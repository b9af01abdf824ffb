package codegen

import (
	"bytes"
	"testing"

	"vulnstack/internal/dev"
	"vulnstack/internal/emu"
	"vulnstack/internal/ir"
	"vulnstack/internal/isa"
	"vulnstack/internal/kernel"
	"vulnstack/internal/minic"
)

// runIR executes src on the IR interpreter.
func runIR(t *testing.T, src string, width int) ([]byte, int64) {
	t.Helper()
	m, err := minic.Compile(src, width)
	if err != nil {
		t.Fatalf("compile IR: %v", err)
	}
	ip := ir.NewInterp(m, width, 1<<20)
	ip.MaxSteps = 1 << 26
	if err := ip.Run("_start"); err != nil {
		t.Fatalf("IR run: %v", err)
	}
	return ip.Out, ip.ExitCode
}

// runMachine compiles src to machine code and boots it on the emulator.
func runMachine(t *testing.T, src string, is isa.ISA) ([]byte, uint64) {
	t.Helper()
	width := is.XLen()
	m, err := minic.Compile(src, width)
	if err != nil {
		t.Fatalf("compile IR: %v", err)
	}
	prog, err := Build(m, is)
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	img, err := kernel.BuildImage(prog, 1<<21)
	if err != nil {
		t.Fatalf("image: %v", err)
	}
	bus := dev.NewBus(img.NewMemory())
	c := emu.New(is, bus, img.Entry)
	if !c.Run(1 << 26) {
		t.Fatalf("watchdog expired (instret=%d, pc=%#x)", c.Instret, c.PC)
	}
	if bus.Halt != dev.HaltClean {
		t.Fatalf("abnormal halt: %v (panic code %d) pc=%#x", bus.Halt, bus.PanicCode, c.PC)
	}
	return bus.Out, bus.ExitCode
}

// differential asserts IR-interpreter and machine executions agree on
// both ISA variants.
func differential(t *testing.T, src string) {
	t.Helper()
	for _, is := range []isa.ISA{isa.VSA32, isa.VSA64} {
		wantOut, wantCode := runIR(t, src, is.XLen())
		gotOut, gotCode := runMachine(t, src, is)
		if !bytes.Equal(gotOut, wantOut) {
			t.Fatalf("%v: output mismatch\n machine %v\n ir      %v", is, gotOut, wantOut)
		}
		if gotCode != uint64(wantCode)&is.Mask() {
			t.Fatalf("%v: exit code %d, want %d", is, gotCode, wantCode)
		}
	}
}

func TestDiffHello(t *testing.T) {
	differential(t, `
func main() int {
	out('o')
	out('k')
	return 0
}`)
}

func TestDiffArithmetic(t *testing.T) {
	differential(t, `
func main() int {
	var a int = 123456
	var b int = -789
	out32(a * b)
	out32(a / (0 - b))
	out32(a % 1000)
	out32((a << 3) ^ (a >> 2))
	out32(a & b | 0x5A5A)
	out32(-a)
	out32((7 / 0) + (7 % 0))
	return 0
}`)
}

func TestDiffControlAndCalls(t *testing.T) {
	differential(t, `
func gcd(a int, b int) int {
	while b != 0 {
		var tt int = b
		b = a % b
		a = tt
	}
	return a
}

func fib(n int) int {
	if n < 2 { return n }
	return fib(n-1) + fib(n-2)
}

func main() int {
	out(gcd(462, 1071))   // 21
	out(fib(12) & 255)    // 144
	var i int
	var s int = 0
	for i = 1; i <= 100; i = i + 1 {
		if i % 3 == 0 && i % 5 == 0 { continue }
		if i > 90 { break }
		s = s + i
	}
	out32(s)
	return 3
}`)
}

func TestDiffArraysAndPointers(t *testing.T) {
	differential(t, `
const N = 32
var data [N]int
var bytes [N]byte

func fill(p *int, n int, seed int) {
	var i int
	for i = 0; i < n; i = i + 1 {
		seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF
		p[i] = seed
	}
}

func main() int {
	fill(data, N, 42)
	var i int
	var sum int = 0
	for i = 0; i < N; i = i + 1 {
		bytes[i] = data[i]
		sum = sum + bytes[i]
	}
	out32(sum)
	out32(data[7] & 0xFFFF)
	var p *int = &data[4]
	out32(*p & 255)
	p = p + 3
	out32(p[0] & 255)
	return 0
}`)
}

func TestDiffGlobalsInit(t *testing.T) {
	differential(t, `
var tbl [6]int = {5, -4, 3, -2, 1, 0x7FFF}
var msg [12]byte = "hello"
var g int = -77

func main() int {
	var i int
	for i = 0; i < 6; i = i + 1 {
		out32(tbl[i])
	}
	for i = 0; i < 5; i = i + 1 {
		out(msg[i])
	}
	out32(g)
	return 0
}`)
}

func TestDiffShortCircuitEffects(t *testing.T) {
	differential(t, `
var n int

func eff(v int) int {
	n = n + 1
	return v
}

func main() int {
	if eff(0) && eff(1) { out(9) }
	out(n)               // 1
	if eff(1) || eff(1) { out(8) }
	out(n)               // 2
	out(!(n == 2))       // 0
	out(eff(0) || eff(3)) // 1 (nonzero -> bool 1)
	out(n)               // 4
	return 0
}`)
}

func TestDiffLocalArraysRecursion(t *testing.T) {
	differential(t, `
func rev(p *byte, n int) {
	var i int
	for i = 0; i < n/2; i = i + 1 {
		var tt int = p[i]
		p[i] = p[n-1-i]
		p[n-1-i] = tt
	}
}

func work(depth int) int {
	var buf [16]byte
	var i int
	for i = 0; i < 16; i = i + 1 {
		buf[i] = depth*16 + i
	}
	rev(&buf[0], 16)
	if depth > 0 {
		return buf[0] + work(depth-1)
	}
	return buf[0]
}

func main() int {
	out32(work(5))
	return 0
}`)
}

func TestDiffBigFunctionSpills(t *testing.T) {
	// Enough simultaneously-live values to exceed the register pool on
	// VSA32 (8 allocatable registers), forcing spills.
	differential(t, `
func main() int {
	var a int = 1
	var b int = 2
	var c int = 3
	var d int = 4
	var e int = 5
	var f int = 6
	var g int = 7
	var h int = 8
	var i int = 9
	var j int = 10
	var k int = 11
	var l int = 12
	var m int = a*b + c*d + e*f + g*h + i*j + k*l
	out32(m + a + b + c + d + e + f + g + h + i + j + k + l)
	out32((a+b)*(c+d)*(e+f)*(g+h) - (i+j)*(k+l))
	return 0
}`)
}

func TestDiffSyscallReturn(t *testing.T) {
	differential(t, `
func main() int {
	var r int = __syscall(3, 0, 0) // read: returns 0
	out(r + 65)
	var bad int = __syscall(99, 0, 0) // unknown: -1
	out(bad & 255)
	return 0
}`)
}

func TestDiffWidthWrap(t *testing.T) {
	// Verify per-width overflow behaviour matches between engines
	// (outputs differ across widths; the differential helper compares
	// per-width only).
	differential(t, `
func main() int {
	var x int = 0x7FFFFFFF
	x = x + 1
	if x < 0 { out(1) } else { out(2) }
	var y int = 0xABCD1234
	out32(y ^ (y >> 7))
	return 0
}`)
}

func TestBuildRejectsBadModule(t *testing.T) {
	m := &ir.Module{Funcs: []*ir.Func{{Name: "broken"}}}
	if _, err := Build(m, isa.VSA64); err == nil {
		t.Fatal("verifier must reject empty function")
	}
	ok, err := minic.Compile(`func main() int { return 0 }`, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(ok, isa.VSA64); err != nil {
		t.Fatal(err)
	}
}

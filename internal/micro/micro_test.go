package micro

import (
	"bytes"
	"testing"

	"vulnstack/internal/asm"
	"vulnstack/internal/codegen"
	"vulnstack/internal/dev"
	"vulnstack/internal/emu"
	"vulnstack/internal/isa"
	"vulnstack/internal/kernel"
	"vulnstack/internal/mem"
	"vulnstack/internal/minic"
	"vulnstack/internal/workload"
)

func TestConfigs(t *testing.T) {
	cfgs := Configs()
	if len(cfgs) != 4 {
		t.Fatal("want 4 configs")
	}
	if cfgs[0].ISA != isa.VSA32 || cfgs[3].ISA != isa.VSA64 {
		t.Fatal("ISA assignment")
	}
	for _, c := range cfgs {
		for s := Structure(0); s < NumStructures; s++ {
			if c.Bits(s) <= 0 {
				t.Errorf("%s/%s: no bits", c.Name, s)
			}
		}
		if c.TotalBits() < c.Bits(StructL2) {
			t.Errorf("%s: total bits", c.Name)
		}
	}
	// L2 must dominate total bits (it is by far the largest SRAM).
	a72 := ConfigA72()
	if float64(a72.Bits(StructL2))/float64(a72.TotalBits()) < 0.5 {
		t.Error("L2 should dominate A72 bit budget")
	}
	if _, err := ConfigByName("A15"); err != nil {
		t.Fatal(err)
	}
	if _, err := ConfigByName("A99"); err == nil {
		t.Fatal("unknown config must error")
	}
	if _, err := ParseStructure("L1d"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseStructure("TLB"); err == nil {
		t.Fatal("unknown structure must error")
	}
}

// buildImage compiles MiniC source for the config's ISA.
func buildImage(t testing.TB, src string, is isa.ISA) *kernel.Image {
	t.Helper()
	m, err := minic.Compile(src, is.XLen())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	prog, err := codegen.Build(m, is)
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	img, err := kernel.BuildImage(prog, 1<<21)
	if err != nil {
		t.Fatalf("image: %v", err)
	}
	return img
}

type commitRec struct {
	pc   uint64
	op   isa.Op
	mode isa.Mode
}

// runLockstep executes the image on the OoO core and the reference
// emulator, comparing the full retired-instruction streams, outputs,
// exit status and final memory images.
func runLockstep(t *testing.T, img *kernel.Image, cfg Config, maxCycles uint64) (*Core, *emu.CPU) {
	t.Helper()

	// Reference run.
	refBus := dev.NewBus(img.NewMemory())
	ref := emu.New(img.ISA, refBus, img.Entry)
	var refTrace []commitRec
	ref.OnCommit = func(pc uint64, in isa.Instr, mode isa.Mode) {
		refTrace = append(refTrace, commitRec{pc, in.Op, mode})
	}
	if !ref.Run(maxCycles) {
		t.Fatal("reference watchdog expired")
	}

	// Microarchitectural run.
	core := New(cfg, img.NewMemory(), img.Entry)
	var pos int
	mismatch := false
	core.OnCommit = func(pc uint64, in isa.Instr, mode isa.Mode) {
		if mismatch {
			return
		}
		if pos >= len(refTrace) {
			t.Errorf("micro committed extra instruction #%d pc=%#x %v", pos, pc, in)
			mismatch = true
			return
		}
		want := refTrace[pos]
		if want.pc != pc || want.op != in.Op || want.mode != mode {
			t.Errorf("commit #%d: micro pc=%#x %v (%v), ref pc=%#x %v (%v)",
				pos, pc, in.Op, mode, want.pc, want.op, want.mode)
			mismatch = true
		}
		pos++
	}
	if !core.Run(maxCycles * 40) {
		t.Fatalf("micro watchdog expired: %v", core)
	}
	if mismatch {
		t.Fatal("lockstep mismatch")
	}
	if pos != len(refTrace) {
		t.Fatalf("micro committed %d instructions, reference %d", pos, len(refTrace))
	}
	if core.Instret != ref.Instret {
		t.Fatalf("instret: micro %d, ref %d", core.Instret, ref.Instret)
	}
	if core.Bus.Halt != refBus.Halt || core.Bus.ExitCode != refBus.ExitCode {
		t.Fatalf("halt: micro %v/%d, ref %v/%d", core.Bus.Halt, core.Bus.ExitCode, refBus.Halt, refBus.ExitCode)
	}
	if !bytes.Equal(core.Bus.Out, refBus.Out) {
		t.Fatalf("output mismatch: micro %d bytes, ref %d bytes", len(core.Bus.Out), len(refBus.Out))
	}
	// Final architectural registers must agree.
	for r := 0; r < img.ISA.NumRegs(); r++ {
		if core.ArchReg(r) != ref.Reg(r) {
			t.Fatalf("final reg r%d: micro %#x, ref %#x", r, core.ArchReg(r), ref.Reg(r))
		}
	}
	// Final memory images must agree after writing back dirty lines.
	core.FlushCaches()
	ca := core.Bus.Mem
	ra := refBus.Mem
	for addr := uint64(mem.GuardTop); addr < ca.Size(); addr += 8 {
		a, _ := ca.Read(addr, 8)
		b, _ := ra.Read(addr, 8)
		if a != b {
			t.Fatalf("memory mismatch at %#x: micro %#x, ref %#x", addr, a, b)
		}
	}
	return core, ref
}

func TestLockstepSmallPrograms(t *testing.T) {
	srcs := map[string]string{
		"loops": `
func main() int {
	var i int
	var s int = 0
	for i = 0; i < 200; i = i + 1 {
		if i % 7 == 3 { s = s - i } else { s = s + i }
	}
	out32(s)
	return 0
}`,
		"calls": `
func fib(n int) int {
	if n < 2 { return n }
	return fib(n-1) + fib(n-2)
}
func main() int {
	out32(fib(13))
	return 0
}`,
		"memory": `
var buf [256]int
func main() int {
	var i int
	for i = 0; i < 256; i = i + 1 {
		buf[i] = i * 17
	}
	var s int = 0
	for i = 255; i >= 0; i = i - 1 {
		s = s + buf[i]
	}
	out32(s)
	return 0
}`,
		"division": `
func main() int {
	var i int
	var s int = 0
	for i = 1; i < 50; i = i + 1 {
		s = s + 100000 / i + 100000 % i
	}
	out32(s)
	return 0
}`,
	}
	for name, src := range srcs {
		for _, cfg := range Configs() {
			cfg := cfg
			t.Run(name+"/"+cfg.Name, func(t *testing.T) {
				img := buildImage(t, src, cfg.ISA)
				runLockstep(t, img, cfg, 1<<22)
			})
		}
	}
}

// TestLockstepWorkloads verifies the OoO core against the emulator on
// every benchmark, using one configuration per ISA.
func TestLockstepWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("lockstep workloads are slow")
	}
	for _, spec := range workload.All() {
		spec := spec
		src := spec.Gen(7, 1)
		for _, cfg := range []Config{ConfigA9(), ConfigA72()} {
			cfg := cfg
			t.Run(spec.Name+"/"+cfg.Name, func(t *testing.T) {
				img := buildImage(t, src, cfg.ISA)
				core, _ := runLockstep(t, img, cfg, 1<<24)
				ipc := float64(core.Instret) / float64(core.Cycle)
				t.Logf("%s/%s: %d instrs, %d cycles, IPC %.2f",
					spec.Name, cfg.Name, core.Instret, core.Cycle, ipc)
			})
		}
	}
}

func TestMicroarchitecturesDiffer(t *testing.T) {
	// Same program, different configs: cycle counts must differ (the
	// premise of microarchitecture-dependent vulnerability).
	src := `
var buf [2048]int
func main() int {
	var i int
	for i = 0; i < 2048; i = i + 1 {
		buf[i] = i ^ (i << 3)
	}
	var s int = 0
	for i = 0; i < 2048; i = i + 7 {
		s = s + buf[i]
	}
	out32(s)
	return 0
}`
	cycles := map[string]uint64{}
	for _, cfg := range Configs() {
		img := buildImage(t, src, cfg.ISA)
		core := New(cfg, img.NewMemory(), img.Entry)
		if !core.Run(1 << 24) {
			t.Fatalf("%s: did not halt", cfg.Name)
		}
		cycles[cfg.Name] = core.Cycle
	}
	// Cross-ISA cycle counts are not comparable (different binaries);
	// compare within each ISA: the small core must be slower.
	if cycles["A9"] <= cycles["A15"] {
		t.Errorf("expected A9-like slower than A15-like: %v", cycles)
	}
	// A57 and A72 differ only in IQ/BTB/L2 capacity; on a cache-resident
	// workload they should be within a whisker of each other.
	if d := float64(cycles["A72"]) / float64(cycles["A57"]); d > 1.05 {
		t.Errorf("A72-like unexpectedly much slower than A57-like: %v", cycles)
	}
	seen := map[uint64]bool{}
	for _, c := range cycles {
		seen[c] = true
	}
	if len(seen) < 3 {
		t.Errorf("cycle counts suspiciously uniform: %v", cycles)
	}
}

func TestCrashOnWildJump(t *testing.T) {
	// A user program jumping into the weeds must end as a kernel panic
	// on the OoO core, exactly as on the emulator.
	b := asm.NewBuilder(isa.VSA64, mem.UserBase)
	b.Label("_start")
	b.Li(5, 0x300000)
	b.Jalr(0, 5, 0)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	img, err := kernel.BuildImage(p, 1<<21)
	if err != nil {
		t.Fatal(err)
	}
	core := New(ConfigA72(), img.NewMemory(), img.Entry)
	if !core.Run(1 << 20) {
		t.Fatal("did not halt")
	}
	if core.Bus.Halt != dev.HaltPanic {
		t.Fatalf("halt = %v", core.Bus.Halt)
	}
}

package emu

import (
	"bytes"
	"math/rand"
	"testing"

	"vulnstack/internal/asm"
	"vulnstack/internal/dev"
	"vulnstack/internal/isa"
	"vulnstack/internal/kernel"
	"vulnstack/internal/mem"
)

// runBare assembles a program at UserBase and runs it in kernel mode
// (bare machine, no kernel), returning the CPU and bus after halt.
func runBare(t *testing.T, is isa.ISA, build func(b *asm.Builder)) (*CPU, *dev.Bus) {
	t.Helper()
	b := asm.NewBuilder(is, mem.UserBase)
	build(b)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 20)
	if err := p.Load(m); err != nil {
		t.Fatal(err)
	}
	bus := dev.NewBus(m)
	c := New(is, bus, p.Entry)
	if !c.Run(1 << 20) {
		t.Fatal("watchdog expired")
	}
	return c, bus
}

// halt stores r4 to the halt port.
func halt(b *asm.Builder) {
	b.Li(isa.RegTMP, int64(mem.MMIOBase))
	b.Sword(isa.RegA0, dev.RegHalt, isa.RegTMP)
}

func TestLiMaterialization(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	vals := []int64{0, 1, -1, 2047, -2048, 2048, -2049, 1 << 20, -(1 << 20),
		0x7FFFFFFF, -0x80000000, 0x80000000, 0x123456789ABCDEF0, -6148914691236517206}
	for i := 0; i < 40; i++ {
		vals = append(vals, int64(r.Uint64()))
	}
	for _, is := range []isa.ISA{isa.VSA32, isa.VSA64} {
		for _, v := range vals {
			v := v
			c, _ := runBare(t, is, func(b *asm.Builder) {
				b.Li(5, v)
				b.Mv(isa.RegA0, 5)
				halt(b)
			})
			want := uint64(v) & is.Mask()
			if got := c.Reg(5); got != want {
				t.Fatalf("%v: Li(%#x) = %#x, want %#x", is, v, got, want)
			}
		}
	}
}

func neg(v int64) uint64 { return uint64(-v) }

func TestALUSemantics(t *testing.T) {
	type tc struct {
		op   isa.Op
		a, b int64
		w32  uint64 // expected on VSA32
		w64  uint64 // expected on VSA64
	}
	cases := []tc{
		{isa.ADD, 5, 7, 12, 12},
		{isa.SUB, 5, 7, 0xFFFFFFFE, 0xFFFFFFFFFFFFFFFE},
		{isa.MUL, -3, 7, 0xFFFFFFEB, 0xFFFFFFFFFFFFFFEB},
		{isa.DIV, -7, 2, neg(3) & 0xFFFFFFFF, neg(3)},
		{isa.DIV, 7, 0, 0xFFFFFFFF, ^uint64(0)},
		{isa.REM, -7, 2, neg(1) & 0xFFFFFFFF, neg(1)},
		{isa.REM, 7, 0, 7, 7},
		{isa.DIVU, 7, 0, 0xFFFFFFFF, ^uint64(0)},
		{isa.REMU, 7, 0, 7, 7},
		{isa.SLT, -1, 0, 1, 1},
		{isa.SLTU, -1, 0, 0, 0}, // -1 is max unsigned
		{isa.SRA, -8, 1, neg(4) & 0xFFFFFFFF, neg(4)},
		{isa.SRL, -8, 1, 0x7FFFFFFC, 0x7FFFFFFFFFFFFFFC},
		{isa.AND, 0xF0F, 0x0FF, 0x00F, 0x00F},
		{isa.XOR, 0xF0F, 0x0FF, 0xFF0, 0xFF0},
	}
	for _, is := range []isa.ISA{isa.VSA32, isa.VSA64} {
		for _, c := range cases {
			c := c
			cpu, _ := runBare(t, is, func(b *asm.Builder) {
				b.Li(5, c.a)
				b.Li(6, c.b)
				b.Inst(c.op, 7, 5, 6)
				halt(b)
			})
			want := c.w64
			if is == isa.VSA32 {
				want = c.w32
			}
			if got := cpu.Reg(7); got != want {
				t.Fatalf("%v %v(%d,%d) = %#x want %#x", is, c.op, c.a, c.b, got, want)
			}
		}
	}
}

func TestShiftMasking(t *testing.T) {
	// Shift amounts use only the low bits (5 on VSA32, 6 on VSA64).
	c, _ := runBare(t, isa.VSA32, func(b *asm.Builder) {
		b.Li(5, 1)
		b.Li(6, 33) // 33 & 31 == 1
		b.Sll(7, 5, 6)
		halt(b)
	})
	if c.Reg(7) != 2 {
		t.Fatalf("VSA32 sll by 33: %d", c.Reg(7))
	}
	c, _ = runBare(t, isa.VSA64, func(b *asm.Builder) {
		b.Li(5, 1)
		b.Li(6, 65) // 65 & 63 == 1
		b.Sll(7, 5, 6)
		halt(b)
	})
	if c.Reg(7) != 2 {
		t.Fatalf("VSA64 sll by 65: %d", c.Reg(7))
	}
}

func TestLoadsStores(t *testing.T) {
	for _, is := range []isa.ISA{isa.VSA32, isa.VSA64} {
		c, _ := runBare(t, is, func(b *asm.Builder) {
			b.La(5, "buf")
			b.Li(6, -2) // 0xFF..FE
			b.Sw(6, 0, 5)
			b.Lb(7, 0, 5)  // sign-extended 0xFE
			b.Lbu(8, 0, 5) // 0xFE
			b.Lhu(9, 0, 5) // 0xFFFE
			b.Lh(10, 2, 5) // sign-extended 0xFFFF
			halt(b)
			b.DataLabel("buf")
			b.Zero(16)
		})
		if got := c.Reg(7); got != neg(2)&c.ISA.Mask() {
			t.Fatalf("%v lb: %#x", is, got)
		}
		if c.Reg(8) != 0xFE || c.Reg(9) != 0xFFFE {
			t.Fatalf("%v lbu/lhu: %#x %#x", is, c.Reg(8), c.Reg(9))
		}
		if got := c.Reg(10); got != neg(1)&c.ISA.Mask() {
			t.Fatalf("%v lh: %#x", is, got)
		}
	}
}

func TestControlFlow(t *testing.T) {
	// Sum 1..10 with a loop; call/return through a function.
	c, _ := runBare(t, isa.VSA64, func(b *asm.Builder) {
		b.Label("_start")
		b.Li(5, 10)
		b.Call("sum")
		b.Mv(isa.RegA0, 6)
		halt(b)
		b.Label("sum")
		b.Li(6, 0)
		b.Label("loop")
		b.Add(6, 6, 5)
		b.Addi(5, 5, -1)
		b.Bne(5, 0, "loop")
		b.Ret()
	})
	if c.Reg(isa.RegA0) != 55 {
		t.Fatalf("sum: %d", c.Reg(isa.RegA0))
	}
}

func TestTrapsHaltBareMachine(t *testing.T) {
	// In a bare (kernel-mode) machine any fault is a double fault ->
	// panic halt. TVEC is zero, but double-fault fires first.
	cases := []func(b *asm.Builder){
		func(b *asm.Builder) { // illegal instruction
			b.Li(5, 0x8000)
			b.Jalr(0, 5, 0) // jump to zeroed memory -> illegal (0 word) after fetch OK
		},
		func(b *asm.Builder) { // load fault (null)
			b.Lw(5, 0, 0)
		},
		func(b *asm.Builder) { // misaligned load
			b.Li(5, 0x8002)
			b.Lw(6, 0, 5)
		},
		func(b *asm.Builder) { // misaligned jump
			b.Li(5, 0x8002)
			b.Jalr(0, 5, 0)
		},
		func(b *asm.Builder) { // fetch outside RAM
			b.Li(5, 0x7FFFFF0)
			b.Jalr(0, 5, 0)
		},
	}
	for i, build := range cases {
		_, bus := runBare(t, isa.VSA64, build)
		if bus.Halt != dev.HaltPanic {
			t.Fatalf("case %d: expected panic halt, got %v", i, bus.Halt)
		}
	}
}

// buildUser assembles a user program for kernel-hosted runs.
func buildUser(t *testing.T, is isa.ISA, build func(b *asm.Builder)) *kernel.Image {
	t.Helper()
	b := asm.NewBuilder(is, mem.UserBase)
	build(b)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	img, err := kernel.BuildImage(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// Boot boots an image on the functional emulator.
func bootRun(t *testing.T, img *kernel.Image, maxInstr uint64) (*CPU, *dev.Bus) {
	t.Helper()
	bus := dev.NewBus(img.NewMemory())
	c := New(img.ISA, bus, img.Entry)
	if !c.Run(maxInstr) {
		t.Fatal("watchdog expired")
	}
	return c, bus
}

func TestKernelBootWriteExit(t *testing.T) {
	for _, is := range []isa.ISA{isa.VSA32, isa.VSA64} {
		img := buildUser(t, is, func(b *asm.Builder) {
			b.Label("_start")
			// write(msg, 13)
			b.Li(isa.RegA0, isa.SysWrite)
			b.La(isa.RegA1, "msg")
			b.Li(isa.RegA2, 13)
			b.Ecall()
			// Verify return value is the byte count.
			b.Li(5, 13)
			b.Bne(isa.RegA0, 5, "bad")
			// exit(0)
			b.Li(isa.RegA0, isa.SysExit)
			b.Li(isa.RegA1, 0)
			b.Ecall()
			b.Label("bad")
			b.Li(isa.RegA0, isa.SysExit)
			b.Li(isa.RegA1, 1)
			b.Ecall()
			b.DataLabel("msg")
			b.Bytes([]byte("hello, kernel"))
		})
		c, bus := bootRun(t, img, 1<<20)
		if bus.Halt != dev.HaltClean || bus.ExitCode != 0 {
			t.Fatalf("%v: halt=%v code=%d dbg=%q", is, bus.Halt, bus.ExitCode, bus.Dbg)
		}
		if !bytes.Equal(bus.Out, []byte("hello, kernel")) {
			t.Fatalf("%v: out=%q", is, bus.Out)
		}
		if c.KernelInstret == 0 || c.KernelInstret >= c.Instret {
			t.Fatalf("%v: kernel instret %d of %d", is, c.KernelInstret, c.Instret)
		}
	}
}

func TestKernelZeroCopyWrite(t *testing.T) {
	// A write of >= ZeroCopyThreshold bytes must be DMA'd directly.
	n := int64(kernel.ZeroCopyThreshold + 64)
	img := buildUser(t, isa.VSA64, func(b *asm.Builder) {
		b.Label("_start")
		// Fill buf[i] = i&0xFF.
		b.La(5, "buf")
		b.Li(6, 0)
		b.Label("fill")
		b.Add(7, 5, 6)
		b.Sb(6, 0, 7)
		b.Addi(6, 6, 1)
		b.Li(8, n)
		b.Blt(6, 8, "fill")
		b.Li(isa.RegA0, isa.SysWrite)
		b.La(isa.RegA1, "buf")
		b.Li(isa.RegA2, n)
		b.Ecall()
		b.Li(isa.RegA0, isa.SysExit)
		b.Li(isa.RegA1, 0)
		b.Ecall()
		b.DataLabel("buf")
		b.Zero(int(n))
	})
	_, bus := bootRun(t, img, 1<<20)
	if bus.Halt != dev.HaltClean {
		t.Fatalf("halt %v", bus.Halt)
	}
	if int64(len(bus.Out)) != n {
		t.Fatalf("out len %d", len(bus.Out))
	}
	for i, c := range bus.Out {
		if c != byte(i) {
			t.Fatalf("out[%d] = %d", i, c)
		}
	}
}

func TestKernelSyscallMisc(t *testing.T) {
	img := buildUser(t, isa.VSA64, func(b *asm.Builder) {
		b.Label("_start")
		// read() returns 0
		b.Li(isa.RegA0, isa.SysRead)
		b.Li(isa.RegA1, 0)
		b.Li(isa.RegA2, 0)
		b.Ecall()
		b.Bne(isa.RegA0, 0, "fail")
		// unknown syscall returns -1
		b.Li(isa.RegA0, 99)
		b.Ecall()
		b.Li(5, -1)
		b.Bne(isa.RegA0, 5, "fail")
		// brk(0) returns current break (nonzero)
		b.Li(isa.RegA0, isa.SysBrk)
		b.Li(isa.RegA1, 0)
		b.Ecall()
		b.Beq(isa.RegA0, 0, "fail")
		// brk(x) sets break
		b.Mv(6, isa.RegA0)
		b.Addi(6, 6, 256)
		b.Li(isa.RegA0, isa.SysBrk)
		b.Mv(isa.RegA1, 6)
		b.Ecall()
		b.Bne(isa.RegA0, 6, "fail")
		b.Li(isa.RegA0, isa.SysExit)
		b.Li(isa.RegA1, 0)
		b.Ecall()
		b.Label("fail")
		b.Li(isa.RegA0, isa.SysExit)
		b.Li(isa.RegA1, 1)
		b.Ecall()
	})
	_, bus := bootRun(t, img, 1<<20)
	if bus.Halt != dev.HaltClean || bus.ExitCode != 0 {
		t.Fatalf("halt=%v code=%d", bus.Halt, bus.ExitCode)
	}
}

func TestKernelDetectSyscall(t *testing.T) {
	img := buildUser(t, isa.VSA64, func(b *asm.Builder) {
		b.Label("_start")
		b.Li(isa.RegA0, isa.SysDetect)
		b.Li(isa.RegA1, 5)
		b.Ecall()
	})
	_, bus := bootRun(t, img, 1<<20)
	if bus.Halt != dev.HaltDetected || bus.DetectCode != 5 {
		t.Fatalf("halt=%v code=%d", bus.Halt, bus.DetectCode)
	}
}

func TestUserModeProtection(t *testing.T) {
	// User code touching MMIO or CSRs must crash (via kernel panic).
	cases := []func(b *asm.Builder){
		func(b *asm.Builder) {
			b.Li(5, int64(mem.MMIOBase))
			b.Sword(0, dev.RegHalt, 5)
		},
		func(b *asm.Builder) { b.Csrw(isa.CsrTVEC, 5) },
		func(b *asm.Builder) { b.Csrr(5, isa.CsrSEPC) },
		func(b *asm.Builder) { b.Eret() },
		func(b *asm.Builder) { b.Lw(5, 0, 0) }, // null deref
	}
	for i, mk := range cases {
		img := buildUser(t, isa.VSA64, func(b *asm.Builder) {
			b.Label("_start")
			mk(b)
			// If we get here the protection failed; exit cleanly.
			b.Li(isa.RegA0, isa.SysExit)
			b.Li(isa.RegA1, 0)
			b.Ecall()
		})
		_, bus := bootRun(t, img, 1<<20)
		if bus.Halt != dev.HaltPanic {
			t.Fatalf("case %d: halt=%v", i, bus.Halt)
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	img := buildUser(t, isa.VSA64, func(b *asm.Builder) {
		b.Label("_start")
		b.Li(5, 100)
		b.Label("loop")
		b.Addi(5, 5, -1)
		b.Bne(5, 0, "loop")
		b.Li(isa.RegA0, isa.SysExit)
		b.Li(isa.RegA1, 0)
		b.Ecall()
	})
	bus := dev.NewBus(img.NewMemory())
	c := New(img.ISA, bus, img.Entry)
	for i := 0; i < 50; i++ {
		c.Step()
	}
	snap := c.Save()
	memSnap := bus.Mem.Clone()
	c.Run(1 << 20)
	end := c.Instret
	// Restore and re-run: identical end state.
	bus2 := dev.NewBus(memSnap)
	c2 := New(img.ISA, bus2, 0)
	c2.Restore(snap)
	c2.Bus = bus2
	c2.Run(1 << 20)
	if c2.Instret != end {
		t.Fatalf("restored run: %d instret, want %d", c2.Instret, end)
	}
}

package tb

import (
	"bytes"
	"math/bits"
	"testing"

	"vulnstack/internal/asm"
	"vulnstack/internal/dev"
	"vulnstack/internal/emu"
	"vulnstack/internal/isa"
	"vulnstack/internal/kernel"
	"vulnstack/internal/mem"
)

// ramSize keeps the hand-built images small: every limit below runs on
// a fresh clone of the image.
const ramSize = 1 << 18

// userImage assembles a user program and loads it with the kernel.
// body must end the program itself (exitWith, or a trapping access).
func userImage(t *testing.T, is isa.ISA, body func(b *asm.Builder)) *kernel.Image {
	t.Helper()
	b := asm.NewBuilder(is, mem.UserBase)
	b.Label("_start")
	body(b)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	img, err := kernel.BuildImage(p, ramSize)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// exitWith ends the program with register r as exit code.
func exitWith(b *asm.Builder, r int) {
	b.Mv(isa.RegA1, r)
	b.Li(isa.RegA0, isa.SysExit)
	b.Ecall()
}

// access emits one load or store of op: register r is the load's
// destination or the store's source, the address is rs1+off.
func access(b *asm.Builder, op isa.Op, r int, off int64, rs1 int) {
	map[isa.Op]func(int, int64, int){
		isa.LB: b.Lb, isa.LH: b.Lh, isa.LW: b.Lw, isa.LD: b.Ld,
		isa.LBU: b.Lbu, isa.LHU: b.Lhu, isa.LWU: b.Lwu,
		isa.SB: b.Sb, isa.SH: b.Sh, isa.SW: b.Sw, isa.SD: b.Sd,
	}[op](r, off, rs1)
}

type machine struct {
	cpu *emu.CPU
	bus *dev.Bus
}

func boot(img *kernel.Image) machine {
	bus := dev.NewBus(img.NewMemory())
	return machine{emu.New(img.ISA, bus, img.Entry), bus}
}

// assertMatchesStep runs img to every instruction limit up to its halt
// and requires a fresh translation-block engine, run to that limit in
// one call, to leave exactly the state emu.Step leaves: registers, PC,
// CSRs (SEPC, SCAUSE and STVAL included), mode, counters, device state
// and all of RAM. Landing on every limit covers blocks clipped at each
// op as well as blocks run whole; since each engine runs in one call,
// blocks cached early stay cached across every later store.
//
// Each limit also runs on an arena: one machine on dirty-tracked memory,
// as a campaign worker holds it, driven by one engine throughout and
// restored to boot with one RestoreDirty before each run. Only there do
// pages turn plain (mem.Memory.Store64). After its run to the limit the
// arena runs once more to the halt, which must leave emu.Step's final
// state: the first such run builds every block on tracked memory, and
// each later one starts from a restore that follows a run to the limit.
// It returns the halted reference machine.
func assertMatchesStep(t *testing.T, img *kernel.Image) machine {
	t.Helper()
	const maxLimit = 1 << 12
	final := boot(img)
	if !final.cpu.Run(maxLimit) {
		t.Fatal("program did not halt")
	}
	arena := boot(img)
	arena.bus.Mem.EnableTracking()
	eng := New(arena.cpu)
	start := arena.cpu.Save()
	rerun := func(limit uint64) bool {
		arena.bus.Mem.RestoreDirty(img.RAM)
		arena.bus.Reset()
		arena.cpu.Restore(start)
		return eng.Run(limit)
	}
	ref := boot(img)
	for k := uint64(0); k < maxLimit; k++ {
		refHalted := ref.cpu.Run(k)
		m := boot(img)
		halted := New(m.cpu).Run(k)
		if d := diff(ref, m); d != "" {
			t.Fatalf("limit %d (PC %#x): tb engine differs from emu.Step: %s", k, ref.cpu.PC, d)
		}
		if halted != refHalted {
			t.Fatalf("limit %d: tb engine halted=%v, emu.Step %v", k, halted, refHalted)
		}
		if h := rerun(k); h != refHalted {
			t.Fatalf("limit %d: tb engine on the arena halted=%v, emu.Step %v", k, h, refHalted)
		}
		if d := diff(ref, arena); d != "" {
			t.Fatalf("limit %d (PC %#x): tb engine on the arena differs from emu.Step: %s", k, ref.cpu.PC, d)
		}
		if !rerun(maxLimit) {
			t.Fatalf("after limit %d: the arena's run to the halt did not halt", k)
		}
		if d := diff(final, arena); d != "" {
			t.Fatalf("after limit %d: the arena's run to the halt differs from emu.Step: %s", k, d)
		}
		if halted {
			return ref
		}
	}
	t.Fatal("program did not halt")
	return ref
}

// diff describes the first architectural difference between two
// machines ("" when identical).
func diff(want, got machine) string {
	w, g := want.cpu, got.cpu
	switch {
	case w.Regs != g.Regs:
		return "registers"
	case w.PC != g.PC:
		return "PC"
	case w.CSR != g.CSR:
		return "CSRs"
	case w.Mode != g.Mode:
		return "mode"
	case w.Instret != g.Instret || w.KernelInstret != g.KernelInstret:
		return "instruction counters"
	case w.DoubleFault != g.DoubleFault:
		return "double fault"
	case !want.bus.StateEqual(got.bus):
		return "device state"
	case !bytes.Equal(want.bus.Mem.Bytes(), got.bus.Mem.Bytes()):
		return "RAM"
	}
	return ""
}

// patched is the instruction the self-modifying programs write over
// "addi x8, x8, 1".
var patched = isa.Encode(isa.Instr{Op: isa.ADDI, Rd: 8, Rs1: 8, Imm: 100})

// TestStorePatchesLaterOpOfRunningBlock: a store overwrites an op
// further down the straight-line block it executes from. The block was
// decoded before the store, so only the post-store freshness re-check
// stops the stale "+1" from running.
func TestStorePatchesLaterOpOfRunningBlock(t *testing.T) {
	img := userImage(t, isa.VSA64, func(b *asm.Builder) {
		b.La(6, "slot")
		b.Li(7, int64(patched))
		b.Li(8, 0)
		b.Sw(7, 0, 6)
		b.Addi(9, 9, 3)
		b.Label("slot")
		b.Addi(8, 8, 1) // overwritten with addi x8, x8, 100 before it runs
		exitWith(b, 8)
	})
	if got := assertMatchesStep(t, img).bus.ExitCode; got != 100 {
		t.Fatalf("exit %d, want 100 (the patched op)", got)
	}
}

// TestStorePatchesCachedBlock: a block in another granule patches a
// block that already ran and sits in the cache, before control returns
// to it. Only the store's version bump on the patched granule forces
// the re-decode.
func TestStorePatchesCachedBlock(t *testing.T) {
	img := userImage(t, isa.VSA64, func(b *asm.Builder) {
		b.La(6, "slot")
		b.Li(7, int64(patched))
		b.Li(8, 0)
		b.Li(9, 2)
		b.Jmp("loop") // so that a block starts at "slot" on the first pass
		b.Label("loop")
		b.Label("slot")
		b.Addi(8, 8, 1) // +1 on the first pass, +100 on the second
		b.Jmp("far")
		for i := 0; i < 2*mem.VerGranule/4; i++ {
			b.Nop() // never executed: puts "far" in another granule
		}
		b.Label("far")
		b.Sw(7, 0, 6)
		b.Addi(9, 9, -1)
		b.Bne(9, isa.RegZero, "loop")
		exitWith(b, 8)
	})
	if got := assertMatchesStep(t, img).bus.ExitCode; got != 101 {
		t.Fatalf("exit %d, want 101 (1, then the patched 100)", got)
	}
}

// TestRestoredWordReusesKeptBlock: a flip into a cached block's code (a
// WI/WOI fault) rebuilds the block, and flipping the word back, as the
// restore after the injection does, brings back the original block:
// re-stamped by its word check, not decoded again.
func TestRestoredWordReusesKeptBlock(t *testing.T) {
	var loop uint64
	img := userImage(t, isa.VSA64, func(b *asm.Builder) {
		b.Li(8, 0)
		b.Li(9, 4)
		loop = b.PC()
		b.Label("loop")
		b.Addi(8, 8, 1)
		b.Addi(9, 9, -1)
		b.Bne(9, isa.RegZero, "loop")
		exitWith(b, 8)
	})
	m := boot(img)
	e := New(m.cpu)
	for m.cpu.PC != loop {
		if e.Run(m.cpu.Instret + 1) {
			t.Fatal("halted before the loop")
		}
	}
	slot := (loop >> 2) & (1<<cacheBits - 1)
	iteration := func(wantX8 uint64) *block {
		t.Helper()
		e.Run(m.cpu.Instret + 3)
		if m.cpu.PC != loop || m.cpu.Regs[8] != wantX8 {
			t.Fatalf("after an iteration: PC %#x, x8 %d; want %#x, %d", m.cpu.PC, m.cpu.Regs[8], loop, wantX8)
		}
		return e.blocks[slot]
	}
	orig := iteration(1)
	if orig == nil || orig.entry != loop || len(orig.ops) != 3 {
		t.Fatalf("loop block not cached whole: %+v", orig)
	}
	// The one bit that turns "addi x8, x8, 1" into "addi x8, x8, 3".
	diff := isa.Encode(isa.Instr{Op: isa.ADDI, Rd: 8, Rs1: 8, Imm: 1}) ^
		isa.Encode(isa.Instr{Op: isa.ADDI, Rd: 8, Rs1: 8, Imm: 3})
	if bits.OnesCount32(diff) != 1 {
		t.Fatalf("immediates 1 and 3 differ in %d bits", bits.OnesCount32(diff))
	}
	bit := uint64(bits.TrailingZeros32(diff))
	flip := func() {
		if !m.bus.Mem.FlipBit(loop+bit/8, uint(bit%8)) {
			t.Fatal("flip failed")
		}
	}
	flip()
	flipped := iteration(4)
	if flipped == orig || flipped.kept != orig {
		t.Fatalf("the flip did not rebuild the block and keep the original (%p, kept %p, original %p)", flipped, flipped.kept, orig)
	}
	flip()
	if got := iteration(5); got != orig {
		t.Fatalf("after the word was flipped back, slot holds %p, want the original block %p", got, orig)
	}
	if orig.kept != flipped {
		t.Errorf("the original block keeps %p, want the flipped one %p", orig.kept, flipped)
	}
	if !e.Run(1<<20) || m.bus.ExitCode != 6 {
		t.Fatalf("exit %d, want 6 (1, 3, 1, 1)", m.bus.ExitCode)
	}
}

// TestDataStoreIntoCodeGranule: stores that hit a code granule without
// changing any instruction — an instruction word written back as it
// is, and a data word over never-executed padding in the same granule —
// must leave execution exactly as emu.Step has it, however the engine
// splits the block around them.
func TestDataStoreIntoCodeGranule(t *testing.T) {
	img := userImage(t, isa.VSA64, func(b *asm.Builder) {
		b.La(6, "same")
		b.La(10, "pad")
		b.Li(8, 0)
		b.Li(9, 3)
		b.Label("loop")
		b.Lw(7, 0, 6)
		b.Sw(7, 0, 6) // the word it loaded: no instruction changes
		b.Sw(9, 0, 10)
		b.Label("same")
		b.Addi(8, 8, 5)
		b.Addi(9, 9, -1)
		b.Bne(9, isa.RegZero, "loop")
		exitWith(b, 8)
		b.Label("pad")
		b.Nop()
		b.Nop()
	})
	if got := assertMatchesStep(t, img).bus.ExitCode; got != 15 {
		t.Fatalf("exit %d, want 15", got)
	}
}

// TestTrappingAccesses: misaligned, guard-page, out-of-range and
// user-mode MMIO loads and stores leave the inline path for full Step
// semantics, mid-block, and trap with the same SEPC, SCAUSE, STVAL,
// counters and registers (the kernel then panics on the cause). Each
// access runs twice, so on the arena a second 8-byte store meets a plain
// page; the last word of RAM must take the inline path and exit cleanly.
func TestTrappingAccesses(t *testing.T) {
	const noTrap = ^uint64(0)
	cases := []struct {
		name  string
		addr  uint64
		op    isa.Op
		cause uint64
	}{
		{"last RAM word ld", ramSize - 8, isa.LD, noTrap},
		{"last RAM word sd", ramSize - 8, isa.SD, noTrap},
		{"past RAM ld", ramSize, isa.LD, isa.CauseLoadFault},
		{"below guard top ld", mem.GuardTop - 8, isa.LD, isa.CauseLoadFault},
		{"below guard top sd", mem.GuardTop - 8, isa.SD, isa.CauseStoreFault},
		{"wrapping ld", ^uint64(0) - 7, isa.LD, isa.CauseLoadFault},
		{"wrapping sd", ^uint64(0) - 7, isa.SD, isa.CauseStoreFault},
		{"misaligned ld", mem.UserBase + 0x1004, isa.LD, isa.CauseMisalignLoad},
		{"misaligned lw", mem.UserBase + 0x1002, isa.LW, isa.CauseMisalignLoad},
		{"misaligned lhu", mem.UserBase + 0x1001, isa.LHU, isa.CauseMisalignLoad},
		{"misaligned sd", mem.UserBase + 0x1004, isa.SD, isa.CauseMisalignStore},
		{"misaligned sh", mem.UserBase + 0x1003, isa.SH, isa.CauseMisalignStore},
		{"guard-page ld", 0x800, isa.LD, isa.CauseLoadFault},
		{"guard-page sb", 0x10, isa.SB, isa.CauseStoreFault},
		{"null sw", 0, isa.SW, isa.CauseStoreFault},
		{"past RAM lw", ramSize, isa.LW, isa.CauseLoadFault},
		{"past RAM sd", ramSize, isa.SD, isa.CauseStoreFault},
		{"misaligned past RAM sd", ramSize - 4, isa.SD, isa.CauseMisalignStore},
		{"past MMIO window ld", mem.MMIOBase + mem.MMIOSize, isa.LD, isa.CauseLoadFault},
		{"wrapping lw", ^uint64(0) - 3, isa.LW, isa.CauseLoadFault},
		{"user MMIO ld", mem.MMIOBase, isa.LD, isa.CausePrivilege},
		{"user MMIO sd", mem.MMIOBase + dev.RegHalt, isa.SD, isa.CausePrivilege},
		{"user MMIO lbu", mem.MMIOBase + dev.RegPutc, isa.LBU, isa.CausePrivilege},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			img := userImage(t, isa.VSA64, func(b *asm.Builder) {
				b.Li(6, int64(c.addr))
				b.Li(7, 0x55)
				b.Addi(8, 8, 1)
				b.Add(9, 8, 8)
				access(b, c.op, 7, 0, 6)
				access(b, c.op, 7, 0, 6)
				b.Addi(8, 8, 1) // must not run after a trap
				exitWith(b, 8)
			})
			ref := assertMatchesStep(t, img)
			csr := ref.cpu.CSR
			if c.cause == noTrap {
				if ref.bus.Halt != dev.HaltClean {
					t.Fatalf("halt %v, SCAUSE %d, STVAL %#x; want a clean exit",
						ref.bus.Halt, csr[isa.CsrSCAUSE], csr[isa.CsrSTVAL])
				}
				return
			}
			if ref.bus.Halt != dev.HaltPanic || csr[isa.CsrSCAUSE] != c.cause || csr[isa.CsrSTVAL] != c.addr {
				t.Fatalf("halt %v, SCAUSE %d, STVAL %#x; want panic on cause %d at %#x",
					ref.bus.Halt, csr[isa.CsrSCAUSE], csr[isa.CsrSTVAL], c.cause, c.addr)
			}
		})
	}

	// A data store makes a page dirty, and so plain on the arena, before
	// any code in it runs; the block built there then flags a granule of
	// that page. An sd from that block patching its own next op must
	// still bump the granule's version and stop the block: the patched
	// op runs, not the predecoded one.
	t.Run("sd into a dirty page after a block build flagged it", func(t *testing.T) {
		next := isa.Encode(isa.Instr{Op: isa.ADDI, Rd: 8, Rs1: 8})
		img := userImage(t, isa.VSA64, func(b *asm.Builder) {
			b.La(6, "slot")
			b.Li(7, int64(uint64(patched)|uint64(next)<<32))
			b.Li(8, 0)
			b.La(10, "pad")
			b.Sd(isa.RegZero, 0, 10) // the page's first write: no code in it yet
			b.Jmp("far")
			for b.PC()%mem.PageSize != 0 {
				b.Nop() // never executed: "far" starts a page
			}
			b.Label("far")
			b.Sd(7, 0, 6)
			b.Addi(9, 9, 3)
			b.Label("slot") // far+8: the sd writes slot and the op after it
			b.Addi(8, 8, 1) // overwritten with addi x8, x8, 100 before it runs
			b.Addi(8, 8, 0)
			exitWith(b, 8)
			for i := 0; i < 2*mem.VerGranule/4 || b.PC()%8 != 0; i++ {
				b.Nop() // never executed: puts "pad" in another granule
			}
			b.Label("pad")
			b.Nop()
		})
		if got := assertMatchesStep(t, img).bus.ExitCode; got != 100 {
			t.Fatalf("exit %d, want 100 (the patched op)", got)
		}
	})
}

// TestLoadExtension: every load size, signed and unsigned, over bytes
// with their top bits set, on both ISA widths (the 32-bit machine masks
// the sign-extended value to its XLen).
func TestLoadExtension(t *testing.T) {
	for _, is := range []isa.ISA{isa.VSA64, isa.VSA32} {
		is := is
		t.Run(is.String(), func(t *testing.T) {
			loads := []isa.Op{isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW}
			if is == isa.VSA64 {
				loads = append(loads, isa.LWU, isa.LD)
			}
			img := userImage(t, is, func(b *asm.Builder) {
				b.La(6, "buf")
				b.Li(7, -0x7e7d7c7b)
				b.Sw(7, 0, 6) // bytes 85 83 82 81
				b.Li(7, -0x12)
				b.Sb(7, 4, 6)
				b.Li(7, 0x7fee)
				b.Sh(7, 6, 6)
				for off := int64(0); off < 8; off++ {
					for i, op := range loads {
						if n := int64(op.MemBytes()); off%n == 0 && off+n <= 8 {
							access(b, op, 8+i, off, 6)
						}
					}
				}
				b.Li(8, 0)
				exitWith(b, 8)
				b.Align(8)
				b.DataLabel("buf")
				b.Zero(8)
			})
			assertMatchesStep(t, img)
		})
	}
}

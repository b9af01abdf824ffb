package micro

import (
	"bytes"
	"testing"

	"vulnstack/internal/asm"
	"vulnstack/internal/dev"
	"vulnstack/internal/emu"
	"vulnstack/internal/isa"
	"vulnstack/internal/kernel"
	"vulnstack/internal/mem"
	"vulnstack/internal/workload"
)

// smcImage builds a self-modifying program: a two-iteration loop whose
// body instruction is overwritten (addi +1 -> addi +100) during the
// first iteration, then exits with the accumulator as the exit code.
// The micro decode memo is keyed on the fetched word, so the patched
// word must decode fresh — a stale hit would add 1 twice (exit 2)
// instead of 1 then 100 (exit 101).
func smcImage(t *testing.T) *kernel.Image {
	t.Helper()
	patched := isa.Encode(isa.Instr{Op: isa.ADDI, Rd: 8, Rs1: 8, Imm: 100})
	b := asm.NewBuilder(isa.VSA64, mem.UserBase)
	b.Label("_start")
	b.La(6, "slot")
	b.Li(7, int64(patched))
	b.Li(8, 0)
	b.Li(9, 2)
	b.Label("loop")
	b.Label("slot")
	b.Addi(8, 8, 1) // overwritten with addi x8, x8, 100
	b.Sw(7, 0, 6)
	b.Addi(9, 9, -1)
	b.Bne(9, 0, "loop")
	b.Li(isa.RegA0, isa.SysExit)
	b.Add(isa.RegA1, 8, 0)
	b.Ecall()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	img, err := kernel.BuildImage(p, 1<<21)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestEmuDecodeCacheSelfModifying: the functional emulator rereads the
// instruction stream every step, so the patched instruction must take
// effect.
func TestEmuDecodeCacheSelfModifying(t *testing.T) {
	img := smcImage(t)
	bus := dev.NewBus(img.NewMemory())
	if !emu.New(img.ISA, bus, img.Entry).Run(1 << 20) {
		t.Fatal("did not halt")
	}
	if bus.Halt != dev.HaltClean {
		t.Fatalf("halt %v", bus.Halt)
	}
	if bus.ExitCode != 101 {
		t.Fatalf("exit %d, want 101 (1 then patched +100)", bus.ExitCode)
	}
}

// TestMicroDecodeCacheSelfModifying: whatever instruction bytes the
// OoO front end fetches, the memoized decode must match a fresh
// isa.Decode of those bytes — the cached core and the reference core
// must agree cycle for cycle.
func TestMicroDecodeCacheSelfModifying(t *testing.T) {
	img := smcImage(t)
	cfgOn := ConfigA72()
	cfgOff := ConfigA72()
	cfgOff.Reference = true
	run := func(cfg Config) *Core {
		c := New(cfg, img.NewMemory(), img.Entry)
		if !c.Run(1 << 22) {
			t.Fatal("did not halt")
		}
		return c
	}
	on, off := run(cfgOn), run(cfgOff)
	if on.Bus.Halt != off.Bus.Halt || on.Bus.ExitCode != off.Bus.ExitCode {
		t.Fatalf("decode cache changed the outcome: %v/%d vs %v/%d",
			on.Bus.Halt, on.Bus.ExitCode, off.Bus.Halt, off.Bus.ExitCode)
	}
	if on.Cycle != off.Cycle || on.Instret != off.Instret {
		t.Fatalf("decode cache changed timing: %d/%d cycles, %d/%d instrs",
			on.Cycle, off.Cycle, on.Instret, off.Instret)
	}
	if !on.StateEqual(off) {
		t.Fatal("final core states differ with the decode cache on vs off")
	}
}

// TestDecodeMemoCollisionEviction pins the direct-mapped geometry of
// the memo: PCs 4<<decodeBits bytes apart index the same slot, so
// alternating between two such PCs evicts and re-tags the slot on
// every probe — each probe must still return the fresh isa.Decode of
// its own word, the aliasing pair must occupy exactly one slot between
// them, and a cached illegal-word result must never leak into a later
// legal probe of the same slot.
func TestDecodeMemoCollisionEviction(t *testing.T) {
	img := smcImage(t)
	c := New(ConfigA72(), img.NewMemory(), img.Entry)

	pcA := uint64(mem.UserBase)
	pcB := pcA + 4<<decodeBits
	idx := func(pc uint64) uint64 { return (pc >> 2) & (1<<decodeBits - 1) }
	if idx(pcA) != idx(pcB) {
		t.Fatal("test PCs do not alias one memo slot")
	}
	wa := isa.Encode(isa.Instr{Op: isa.ADDI, Rd: 5, Rs1: 6, Imm: 42})
	wb := isa.Encode(isa.Instr{Op: isa.XOR, Rd: 7, Rs1: 8, Rs2: 9})

	check := func(pc uint64, w uint32) {
		t.Helper()
		in, ok := c.decode(pc, w)
		win, wok := isa.Decode(w, c.IS)
		if ok != wok || in != win {
			t.Fatalf("decode(%#x, %#x) = %+v/%v, fresh isa.Decode = %+v/%v",
				pc, w, in, ok, win, wok)
		}
	}
	for i := 0; i < 3; i++ {
		check(pcA, wa)
		check(pcB, wb)
	}
	used := 0
	for i := range c.decodeMemo {
		if c.decodeMemo[i].state != 0 {
			used++
		}
	}
	if used != 1 {
		t.Fatalf("aliasing pair occupies %d memo slots, want 1 (eviction, not accumulation)", used)
	}
	if got := c.decodeMemo[idx(pcB)].word; got != wb {
		t.Fatalf("slot tag %#x after eviction, want last probed word %#x", got, wb)
	}

	const illegal = uint32(0xFFFFFFFF)
	if _, ok := isa.Decode(illegal, c.IS); ok {
		t.Fatalf("%#x unexpectedly decodes; pick a different illegal word", illegal)
	}
	check(pcA, illegal) // caches the negative result
	check(pcA, wa)      // same slot, legal word: must evict, not report illegal
}

// TestDecodeCacheLockstepOnWorkload: cached and reference cores run a
// real benchmark in lockstep to the same output.
func TestDecodeCacheLockstepOnWorkload(t *testing.T) {
	spec, err := workload.Get("crc32")
	if err != nil {
		t.Fatal(err)
	}
	img := buildImage(t, spec.Gen(3, 1), isa.VSA64)
	cfgOff := ConfigA72()
	cfgOff.Reference = true
	on := New(ConfigA72(), img.NewMemory(), img.Entry)
	off := New(cfgOff, img.NewMemory(), img.Entry)
	if !on.Run(1<<26) || !off.Run(1<<26) {
		t.Fatal("did not halt")
	}
	if on.Cycle != off.Cycle || !bytes.Equal(on.Bus.Out, off.Bus.Out) {
		t.Fatal("decode cache changed execution on crc32")
	}
	if !on.StateEqual(off) {
		t.Fatal("final states differ")
	}
}

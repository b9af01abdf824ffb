package micro

import (
	"bytes"
	"testing"

	"vulnstack/internal/asm"
	"vulnstack/internal/isa"
	"vulnstack/internal/kernel"
	"vulnstack/internal/mem"
)

// The targeted lifetime tests below pin one read channel each: a fault
// whose first golden access after the fault cycle is a read through
// that channel must be FateRun, and injecting it must really change
// the run. Dropping the channel's recording turns that fault FateMasked
// and fails the test; a random sweep rarely lands on such a fault.

// lifeImage assembles a VSA64 program.
func lifeImage(t *testing.T, build func(b *asm.Builder)) (*kernel.Image, *asm.Program) {
	t.Helper()
	b := asm.NewBuilder(isa.VSA64, mem.UserBase)
	build(b)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	img, err := kernel.BuildImage(p, 1<<21)
	if err != nil {
		t.Fatal(err)
	}
	return img, p
}

// spin burns about n loop iterations in register 9, giving a wide
// window between the accesses around it.
func spin(b *asm.Builder, label string, n int64) {
	b.Li(9, n)
	b.Label(label)
	b.Addi(9, 9, -1)
	b.Bne(9, 0, label)
}

func exit(b *asm.Builder, code int) {
	b.Li(isa.RegA0, isa.SysExit)
	b.Mv(isa.RegA1, code)
	b.Ecall()
}

func sym(t *testing.T, p *asm.Program, name string) uint64 {
	t.Helper()
	a, ok := p.Symbol(name)
	if !ok {
		t.Fatalf("no symbol %q", name)
	}
	return a
}

// lifeGolden records img's golden run and returns its lifetime table
// and the halted core.
func lifeGolden(t *testing.T, cfg Config, img *kernel.Image) (*Lifetimes, *Core) {
	t.Helper()
	c := New(cfg, img.NewMemory(), img.Entry)
	c.RecordLifetimes()
	if !c.Run(1 << 24) {
		t.Fatal("golden run did not halt")
	}
	lt, err := DecodeLifetimes(c.AppendLifetimes(nil))
	if err != nil {
		t.Fatal(err)
	}
	return lt, c
}

// commitCycle returns the cycle at which the instruction at pc first
// commits in img's golden run.
func commitCycle(t *testing.T, cfg Config, img *kernel.Image, pc uint64) uint64 {
	t.Helper()
	c := New(cfg, img.NewMemory(), img.Entry)
	var at uint64
	c.OnCommit = func(p uint64, _ isa.Instr, _ isa.Mode) {
		if p == pc && at == 0 {
			at = c.Cycle
		}
	}
	c.Run(1 << 24)
	if at == 0 {
		t.Fatalf("pc %#x never commits", pc)
	}
	return at
}

// at steps a fresh core to cycle.
func at(t *testing.T, cfg Config, img *kernel.Image, cycle uint64) *Core {
	t.Helper()
	c := New(cfg, img.NewMemory(), img.Entry)
	for c.Cycle < cycle {
		if !c.Step() {
			t.Fatal("halted before the fault cycle")
		}
	}
	return c
}

// lineEntry returns the entry and data bit of byte addr's bit k in
// cache ch, which must hold addr.
func lineEntry(t *testing.T, ch *cache, addr uint64, k int) (entry, bit int) {
	t.Helper()
	set, tag, off := ch.index(addr)
	way := ch.lookup(set, tag)
	if way < 0 {
		t.Fatalf("%#x not resident", addr)
	}
	return set*ch.cfg.Assoc + way, off*8 + k
}

// checkRead asserts that the table leaves fault (s, entry, bit, cycle)
// to simulation and that the faulty run departs from golden: it makes
// architectural contact of class want and changes the exit code or the
// output.
func checkRead(t *testing.T, what string, cfg Config, img *kernel.Image, lt *Lifetimes, golden *Core,
	s Structure, entry, bit int, cycle uint64, want FPM) {
	t.Helper()
	if f := lt.Fate(s, entry, bit, cycle); f != FateRun {
		t.Errorf("%s: fate %d, want FateRun (%s entry %d bit %d cycle %d)", what, f, s, entry, bit, cycle)
	}
	c := at(t, cfg, img, cycle)
	if !c.Inject(s, entry, bit).Live {
		t.Fatalf("%s: flip not live", what)
	}
	c.Run(1 << 24)
	if !c.Taint.Contacted() || c.Taint.Class() != want {
		t.Errorf("%s: contact %v class %v, want %v", what, c.Taint.Contacted(), c.Taint.Class(), want)
	}
	if c.Bus.ExitCode == golden.Bus.ExitCode && bytes.Equal(c.Bus.Out, golden.Bus.Out) {
		t.Errorf("%s: the faulty run ended like golden", what)
	}
}

// TestLifetimeLoadAndFetch pins the load and fetch channels: a stored
// byte read back by one load after a spin, and the spin loop's own
// instruction, fetched again every iteration.
func TestLifetimeLoadAndFetch(t *testing.T) {
	cfg := ConfigA72()
	img, p := lifeImage(t, func(b *asm.Builder) {
		b.Label("_start")
		b.La(5, "val")
		b.Li(6, 0x5a)
		b.Sb(6, 0, 5)
		spin(b, "spin", 2000)
		b.Label("after")
		b.Lbu(7, 0, 5)
		exit(b, 7)
		b.DataLabel("val")
		b.Zero(8)
	})
	lt, golden := lifeGolden(t, cfg, img)
	if golden.Bus.ExitCode != 0x5a {
		t.Fatalf("golden exit code %#x", golden.Bus.ExitCode)
	}
	cycle := (commitCycle(t, cfg, img, sym(t, p, "spin")) + commitCycle(t, cfg, img, sym(t, p, "after"))) / 2
	c := at(t, cfg, img, cycle)
	e, bit := lineEntry(t, c.l1d, sym(t, p, "val"), 0)
	checkRead(t, "load", cfg, img, lt, golden, StructL1D, e, bit, cycle, FPMWD)
	e, bit = lineEntry(t, c.l1i, sym(t, p, "spin"), 0)
	checkRead(t, "fetch", cfg, img, lt, golden, StructL1I, e, bit, cycle, FPMWI)
}

// TestLifetimeEvictionChannels pins the dirty-victim write-back, the
// L2→L1 refill and the DMA snoop from L2. The program fills a 256-byte
// buffer (dirty L1d lines), sweeps twice the L1d's size so every buffer
// line is written back to L2, reloads one buffer byte from L2 and
// finally DMAs the buffer out, snooping the lines still only in L2.
// The reload's address depends on the spin counter, so the squashed
// path of the spin's first, mispredicted iteration cannot perform it
// early.
func TestLifetimeEvictionChannels(t *testing.T) {
	cfg := ConfigA72()
	img, p := lifeImage(t, func(b *asm.Builder) {
		b.Label("_start")
		b.La(5, "buf")
		b.Li(6, 0)
		b.Label("fill")
		b.Add(7, 5, 6)
		b.Sb(6, 0, 7)
		b.Addi(6, 6, 1)
		b.Li(8, 256)
		b.Blt(6, 8, "fill")
		spin(b, "spinA", 2000)
		b.Label("sweep0")
		b.La(10, "big")
		b.Li(11, 0)
		b.Li(12, int64(2*cfg.L1D.SizeBytes))
		b.Label("sweep")
		b.Add(13, 10, 11)
		b.Lbu(14, 0, 13)
		b.Addi(11, 11, int64(cfg.L1D.LineBytes))
		b.Blt(11, 12, "sweep")
		spin(b, "spinB", 2000)
		b.Label("reload")
		b.Add(16, 5, 9)
		b.Lbu(15, 200, 16)
		spin(b, "spinC", 2000)
		b.Li(isa.RegA0, isa.SysWrite)
		b.La(isa.RegA1, "buf")
		b.Li(isa.RegA2, 256)
		b.Ecall()
		exit(b, 0)
		b.DataLabel("buf")
		b.Zero(256)
		b.DataLabel("big")
		b.Zero(2 * cfg.L1D.SizeBytes)
	})
	lt, golden := lifeGolden(t, cfg, img)
	if len(golden.Bus.Out) != 256 {
		t.Fatalf("golden output %d bytes", len(golden.Bus.Out))
	}
	buf := sym(t, p, "buf")
	mid := func(from, to string) uint64 {
		return (commitCycle(t, cfg, img, sym(t, p, from)) + commitCycle(t, cfg, img, sym(t, p, to))) / 2
	}

	cycle := mid("spinA", "sweep0")
	e, bit := lineEntry(t, at(t, cfg, img, cycle).l1d, buf+10, 3)
	checkRead(t, "dirty-victim write-back", cfg, img, lt, golden, StructL1D, e, bit, cycle, FPMESC)

	cycle = mid("spinB", "reload")
	c := at(t, cfg, img, cycle)
	if set, tag, _ := c.l1d.index(buf + 10); c.l1d.lookup(set, tag) >= 0 {
		t.Fatal("the sweep left the buffer in L1d")
	}
	e, bit = lineEntry(t, c.l2, buf+10, 3)
	checkRead(t, "DMA snoop from L2", cfg, img, lt, golden, StructL2, e, bit, cycle, FPMESC)
	e, bit = lineEntry(t, c.l2, buf+200, 3)
	checkRead(t, "L2→L1 refill", cfg, img, lt, golden, StructL2, e, bit, cycle, FPMWD)
}

// TestLifetimeSnoopFromL1D pins the DMA snoop from L1d: the output
// buffer is still dirty in L1d when the device drains it (escImage).
func TestLifetimeSnoopFromL1D(t *testing.T) {
	cfg := ConfigA72()
	img, bufAddr := escImage(t)
	lt, golden := lifeGolden(t, cfg, img)
	cycle := golden.Cycle * 3 / 4
	e, bit := lineEntry(t, at(t, cfg, img, cycle).l1d, bufAddr+10, 3)
	checkRead(t, "DMA snoop from L1d", cfg, img, lt, golden, StructL1D, e, bit, cycle, FPMESC)
}

// TestLifetimeWrongPathRead pins a wrong-path srcVal read: register 20
// is read only by an add on the not-taken side of an always-taken
// branch, then overwritten (freeing its old physical register) before
// the exit call saves it. The cold predictor predicts not taken, and
// the branch waits on a divide, so the add issues (reading register
// 20) before the squash. A squashed read still steers timing, so the
// flip is not resolvable from the table.
func TestLifetimeWrongPathRead(t *testing.T) {
	cfg := ConfigA72()
	img, p := lifeImage(t, func(b *asm.Builder) {
		b.Label("_start")
		b.Li(20, 1234)
		b.Li(21, 7)
		b.Li(22, 3)
		spin(b, "spin", 500)
		b.Label("after")
		b.Div(23, 21, 22)
		b.Beq(23, 23, "skip")
		b.Add(24, 20, 20)
		b.Label("skip")
		b.Li(20, 0)
		exit(b, 0)
	})
	lt, _ := lifeGolden(t, cfg, img)
	cycle := (commitCycle(t, cfg, img, sym(t, p, "spin")) + commitCycle(t, cfg, img, sym(t, p, "after"))) / 2
	c := at(t, cfg, img, cycle)
	reg := c.retRAT[20]
	// No committed instruction reads register 20 after the fault cycle
	// and before its overwrite.
	skip, done := sym(t, p, "skip"), false
	c.OnCommit = func(pc uint64, in isa.Instr, _ isa.Mode) {
		done = done || pc == skip
		if !done && ((in.Op.ReadsRs1() && in.Rs1 == 20) || (in.Op.ReadsRs2() && in.Rs2 == 20)) {
			t.Fatalf("committed %v reads register 20", in.Op)
		}
	}
	c.Run(1 << 24)
	if f := lt.Fate(StructRF, reg, 0, cycle); f != FateRun {
		t.Errorf("wrong-path read: fate %d, want FateRun (register %d, cycle %d)", f, reg, cycle)
	}
}

// TestLifetimeDeadMatchesMachine checks the table's dead verdicts
// against the golden machine itself at a spread of cycles: a register
// is FateDead exactly when it is on the free list, and a line's data,
// tag or dirty bit exactly when the line is invalid.
func TestLifetimeDeadMatchesMachine(t *testing.T) {
	for _, cfg := range []Config{ConfigA9(), ConfigA72()} {
		img := shaImage(t, cfg)
		lt, golden := lifeGolden(t, cfg, img)
		c := New(cfg, img.NewMemory(), img.Entry)
		for step := uint64(1); c.Cycle < golden.Cycle; step = step*3/2 + 1 {
			for n := uint64(0); n < step && c.Cycle < golden.Cycle; n++ {
				c.Step()
			}
			free := make(map[int]bool)
			for _, p := range c.freeList {
				free[p] = true
			}
			for p := 0; p < cfg.PhysRegs; p++ {
				if got := lt.Fate(StructRF, p, 1, c.Cycle) == FateDead; got != free[p] {
					t.Fatalf("%s cycle %d: register %d dead=%v, free list says %v", cfg.Name, c.Cycle, p, got, free[p])
				}
			}
			for i, s := range []Structure{StructL1I, StructL1D, StructL2} {
				ch := c.caches()[i]
				_, bits := cfg.StructDims(s)
				for li := 0; li < ch.cfg.Lines(); li++ {
					invalid := !ch.line(li).valid
					for _, bit := range []int{5, bits - 2, bits - 1} {
						want := invalid && bit != bits-2
						if got := lt.Fate(s, li, bit, c.Cycle) == FateDead; got != want {
							t.Fatalf("%s cycle %d: %s line %d bit %d dead=%v, want %v", cfg.Name, c.Cycle, s, li, bit, got, want)
						}
					}
				}
			}
		}
	}
}

// TestLifetimesRoundTrip: the recorded table re-encodes byte for byte,
// fits only its own geometry, and rejects truncation.
func TestLifetimesRoundTrip(t *testing.T) {
	cfg := ConfigA72()
	img, _ := escImage(t)
	c := New(cfg, img.NewMemory(), img.Entry)
	c.RecordLifetimes()
	c.Run(1 << 24)
	enc := c.AppendLifetimes(nil)
	lt, err := DecodeLifetimes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lt.AppendBinary(nil), enc) {
		t.Fatal("re-encoding differs")
	}
	a15 := ConfigA15()
	if !lt.Fits(&cfg) || lt.Fits(&a15) {
		t.Fatal("Fits must accept exactly the recording geometry")
	}
	for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeLifetimes(enc[:cut]); err == nil {
			t.Fatalf("table cut at %d decoded", cut)
		}
	}
}

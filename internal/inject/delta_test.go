package inject

import (
	"bytes"
	"math/rand"
	"testing"

	"vulnstack/internal/micro"
)

// TestCoreForRestoresCheckpoint: whatever the previous faulty run
// touched, every coreFor must leave the reused arena re-encoding to
// exactly the restore checkpoint's blob — the cursor's delta restore
// decodes only touched and changed lines, so this pins it to the full
// codec.
func TestCoreForRestoresCheckpoint(t *testing.T) {
	for _, cfg := range micro.Configs() {
		cp := shaCampaign(t, cfg, 24)
		w := &worker{}
		r := rand.New(rand.NewSource(11))
		for i := 0; i < 30; i++ {
			f := cp.Sample(r, micro.Structure(i%int(micro.NumStructures)))
			g := cp.chain.Find(f.Cycle)
			core := cp.coreFor(w, cp.chain.Coord(g), g)
			if !bytes.Equal(core.EncodeState(nil), cp.chain.StateAt(g, nil, -1)) {
				t.Fatalf("%s: injection %d: arena does not re-encode to checkpoint %d", cfg.Name, i, g)
			}
			for core.Cycle < f.Cycle && core.Step() {
			}
			cp.classify(core, f, w)
		}
	}
}

// TestDeltaConvergenceMatchesFullCompare: at every checkpoint boundary
// of every live faulty run, the delta convergence verdict must equal a
// full EncodeState compared against the chain, and the driver's
// convergence test (coordinate, probe, then the machine's Matches) must
// equal probe ∧ full state ∧ RAM. Each config must see converging runs,
// so the equal case is exercised, not only the early exits.
func TestDeltaConvergenceMatchesFullCompare(t *testing.T) {
	for _, cfg := range micro.Configs() {
		cp := shaCampaign(t, cfg, 24)
		w := &worker{}
		r := rand.New(rand.NewSource(2021))
		var buf []byte
		live, converging, checks := 0, 0, 0
		for i := 0; i < 150; i++ {
			f := cp.Sample(r, micro.Structure(i%int(micro.NumStructures)))
			g := cp.chain.Find(f.Cycle)
			core := cp.coreFor(w, f.Cycle, g)
			if core.Bus.Halted() || !core.Inject(f.Struct, f.Entry, f.Bit).Live {
				continue
			}
			live++
		run:
			for j := g + 1; j < cp.chain.Len(); j++ {
				for core.Cycle < cp.chain.Coord(j) {
					if !core.Step() {
						break run
					}
				}
				buf = core.EncodeState(buf[:0])
				full := cp.chain.StateEqual(j, buf)
				if got := w.arena.stateMatches(w.cu, j); got != full {
					t.Fatalf("%s: fault %+v, boundary %d: delta state verdict %v, full %v", cfg.Name, f, j, got, full)
				}
				want := core.StateProbe() == cp.chain.Probe(j) && full && cp.chain.RAMEqual(core.Bus.Mem, g, j)
				if got := converged(w, j); got != want {
					t.Fatalf("%s: fault %+v, boundary %d: converged %v, want %v", cfg.Name, f, j, got, want)
				}
				checks++
				if want {
					converging++
					break
				}
			}
		}
		if converging == 0 {
			t.Fatalf("%s: none of %d live runs converged (%d boundary checks)", cfg.Name, live, checks)
		}
		t.Logf("%s: %d live runs, %d converged, %d boundary checks", cfg.Name, live, converging, checks)
	}
}

// TestConvergedRequiresRAM: a run whose machine state — core, caches,
// devices — matches the golden checkpoint has still not converged while
// its RAM differs, here in a byte no cache line holds, so the faulty
// value would only show once the program reads it.
func TestConvergedRequiresRAM(t *testing.T) {
	cp := shaCampaign(t, micro.ConfigA72(), 24)
	w := &worker{}
	g := cp.chain.Len() / 2
	j := g + 1
	core := cp.coreFor(w, cp.chain.Coord(j), g)
	if !converged(w, j) {
		t.Fatal("fault-free run from checkpoint g did not converge at g+1")
	}
	// The middle of RAM lies between sha's heap and its stack.
	addr := cp.Img.RAM.Size() / 2
	core.Bus.Mem.FlipBit(addr, 3)
	ram, _ := core.Bus.Mem.Byte(addr)
	if seen, _ := core.Bus.Reader.DMARead(addr); seen != ram {
		t.Fatalf("a cache line holds %#x", addr)
	}
	if core.StateProbe() != cp.chain.Probe(j) || !w.arena.stateMatches(w.cu, j) {
		t.Fatal("a RAM flip changed the machine state")
	}
	if converged(w, j) {
		t.Fatalf("converged with RAM byte %#x differing from the golden run", addr)
	}
}

// converged is the driver's convergence test at checkpoint j
// (ckpt.Cursor.Run) for w's arena, restored from the cursor's
// checkpoint and run to j's coordinate.
func converged(w *worker, j int) bool {
	ch := w.cu.Chain()
	return w.arena.Coord() == ch.Coord(j) && w.arena.Probe() == ch.Probe(j) && w.arena.Matches(w.cu, j)
}

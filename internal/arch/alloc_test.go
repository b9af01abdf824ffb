//go:build !race

package arch

import (
	"math/rand"
	"testing"

	"vulnstack/internal/inject"
	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
)

// TestWarmInjectionAllocFree: a WD fault injected again on a reused
// worker — restore from its checkpoint, advance to the fault, apply it,
// run to halt, the watchdog or convergence, classify — allocates
// nothing, on sha's chain as prep builds it. The operand list, the state
// and compare buffers are the worker's or the stack's, and blocks whose
// granules a data store bumped are re-checked word by word, not rebuilt.
// (Built without -race, which changes allocation counts.)
func TestWarmInjectionAllocFree(t *testing.T) {
	cp := prep(t, "sha", isa.VSA64)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		f := cp.Sample(r, micro.FPMWD)
		w := cp.newWorker()
		g := cp.chain.Find(f.K)
		var got inject.Outcome
		run := func() { got, _ = cp.inject(w, f, g) }
		run()
		want := got
		allocs := testing.AllocsPerRun(1, run)
		if got != want {
			t.Fatalf("%+v: warm run gave %v, want %v", f, got, want)
		}
		if allocs != 0 {
			t.Errorf("%+v (%v): a warm injection allocated %v times, want 0", f, want, allocs)
		}
	}
}

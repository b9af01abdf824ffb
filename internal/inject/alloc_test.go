//go:build !race

package inject

import (
	"math/rand"
	"testing"

	"vulnstack/internal/micro"
)

// TestWarmInjectionAllocFree: a fault injected again on a reused worker
// — restore from its checkpoint, run to halt, the watchdog or
// convergence, classify — allocates nothing. Covers live RF, LSQ, L1D
// and L1I faults on A9 and A72 over sha's 192-checkpoint chain: the
// delta restore's scratch, the convergence tests at every boundary and
// the cache taint slots are all owned by the worker's arena. (Built
// without -race, which changes allocation counts.)
func TestWarmInjectionAllocFree(t *testing.T) {
	structs := []micro.Structure{micro.StructRF, micro.StructLSQ, micro.StructL1D, micro.StructL1I}
	for _, cfg := range []micro.Config{micro.ConfigA9(), micro.ConfigA72()} {
		cp := shaCampaign(t, cfg, 192)
		r := rand.New(rand.NewSource(5))
		for _, s := range structs {
			for found := 0; found < 2; {
				f := cp.Sample(r, s)
				if cp.life.Fate(f.Struct, f.Entry, f.Bit, f.Cycle) != micro.FateRun {
					continue
				}
				w := &worker{}
				g := cp.chain.Find(f.Cycle)
				if !cp.run(w, f, g).Live {
					continue
				}
				found++
				want := cp.run(w, f, g)
				var got Result
				allocs := testing.AllocsPerRun(1, func() { got = cp.run(w, f, g) })
				if got != want {
					t.Fatalf("%s: %+v: warm run gave %+v, want %+v", cfg.Name, f, got, want)
				}
				if allocs != 0 {
					t.Errorf("%s: %+v (%v): a warm injection allocated %v times, want 0", cfg.Name, f, want.Outcome, allocs)
				}
			}
		}
	}
}

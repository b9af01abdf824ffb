//go:build !race

package llfi

import (
	"math/rand"
	"testing"

	"vulnstack/internal/inject"
)

// TestWarmInjectionAllocFree: a fault injected again on a reused
// worker — restore from its checkpoint, arm the flip, run to the end,
// the watchdog or convergence, classify — allocates nothing when the
// run ends Masked, SDC or converged. Covers live faults of sha, qsort
// and fft over their 48-checkpoint chains, each outcome at least once;
// a crash allocates its formatted error and is left out. (Built
// without -race, which changes allocation counts.)
func TestWarmInjectionAllocFree(t *testing.T) {
	type kind struct {
		o         inject.Outcome
		converged bool
	}
	seen := map[kind]int{}
	for _, bench := range []string{"sha", "qsort", "fft"} {
		cp := prepWith(t, bench, false)
		r := rand.New(rand.NewSource(5))
		for found := 0; found < 6; {
			f := cp.Sample(r)
			if !cp.UsedDef(f.Seq) {
				continue
			}
			w, g := &worker{}, cp.CkptFor(f.Seq)
			want, wantEarly := cp.inject(w, f, g)
			if want == inject.Crash {
				continue
			}
			found++
			seen[kind{want, wantEarly}]++
			var got inject.Outcome
			var early bool
			allocs := testing.AllocsPerRun(1, func() { got, early = cp.inject(w, f, g) })
			if got != want || early != wantEarly {
				t.Fatalf("%s: %+v: warm run gave %v (converged %v), want %v (%v)", bench, f, got, early, want, wantEarly)
			}
			if allocs != 0 {
				t.Errorf("%s: %+v (%v, converged %v): a warm injection allocated %v times, want 0", bench, f, want, wantEarly, allocs)
			}
		}
	}
	t.Logf("outcomes: %v", seen)
	for _, k := range []kind{{inject.Masked, false}, {inject.Masked, true}, {inject.SDC, false}} {
		if seen[k] == 0 {
			t.Errorf("no %v run (converged %v) among the faults: %v", k.o, k.converged, seen)
		}
	}
}

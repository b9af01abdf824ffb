package vulnstack

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
	"vulnstack/internal/strata"
	"vulnstack/internal/vuln"
)

// stratTestOpts are the scaled-down plan parameters the gates below
// share: a loose 9% bound keeps the uniform comparator (and the
// stratified runs) small enough for breadth across all benchmarks.
var stratTestOpts = StratOptions{CI: 0.09, Confidence: 0.99, Pool: 2000, N0: 8}

// TestStratifiedEstimateWithinCI is the acceptance gate of the
// stratified-sampling work: on every seed benchmark, at every layer,
// the stratified estimate must land inside the uniform run's 99% CI
// around the uniform estimate. The injections saved follow the
// statistics: the micro layer (masked-heavy outcomes, far from the
// worst-case p=0.5) must always use fewer injections than the uniform
// worst-case count, and a majority of its cells at least 1.5x fewer
// (BenchmarkStratifiedReductionFloor holds the full-scale 3x floor);
// the arch/soft layers — whose failure rates sit near 0.5, where
// uniform worst-case sampling is already optimal — must never exceed
// it by more than the adaptive-round and pool-term overhead.
func TestStratifiedEstimateWithinCI(t *testing.T) {
	nUniform := vuln.SamplesFor(stratTestOpts.CI, stratTestOpts.Confidence)
	margin := vuln.Margin(nUniform, stratTestOpts.Confidence)
	cfg := micro.ConfigA72()

	var countMu sync.Mutex
	var fewer, total int
	var microN []int
	for _, bench := range Benchmarks() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			sys, err := Build(Target{Bench: bench, Seed: 1}, isa.VSA64)
			if err != nil {
				t.Fatal(err)
			}

			check := func(layer string, uniform vuln.Split, res StratResult, err error) {
				if err != nil {
					t.Fatalf("%s: %v", layer, err)
				}
				assertWithinCI(t, layer, res.Split.Total(), uniform.Total(), margin)
				if res.N >= res.Pool {
					t.Errorf("%s: stratified run exhausted its pool (%d)", layer, res.N)
				}
				if res.HalfWidth > stratTestOpts.CI && res.N < res.Pool {
					t.Errorf("%s: stopped at half-width %.4f > target %.4f with pool remaining",
						layer, res.HalfWidth, stratTestOpts.CI)
				}
				if layer == "micro" && res.N >= nUniform {
					t.Errorf("micro: stratified run used %d injections, uniform worst case is %d", res.N, nUniform)
				}
				if res.N > nUniform+nUniform/4 {
					t.Errorf("%s: stratified run used %d injections, over 1.25x the uniform worst case %d",
						layer, res.N, nUniform)
				}
				countMu.Lock()
				total++
				if res.N < nUniform {
					fewer++
				}
				if layer == "micro" {
					microN = append(microN, res.N)
				}
				countMu.Unlock()
				t.Logf("%s: stratified n=%d (uniform %d), estimate %.4f vs %.4f, half-width %.4f, %d strata",
					layer, res.N, nUniform, res.Split.Total(), uniform.Total(), res.HalfWidth, len(res.Strata))
			}

			// Micro (AVF, RF structure).
			tally, err := sys.MicroTally(cfg, micro.StructRF, nUniform, 2021)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.StratMicro(cfg, micro.StructRF, stratTestOpts, 2021)
			check("micro", vuln.SplitOf(tally), res, err)

			// Arch (PVF, WD model).
			u, err := sys.PVF(micro.FPMWD, nUniform, 2021)
			if err != nil {
				t.Fatal(err)
			}
			res, err = sys.StratPVF(micro.FPMWD, stratTestOpts, 2021)
			check("arch", u, res, err)

			// Soft (SVF).
			u, err = sys.SVF(nUniform, 2021)
			if err != nil {
				t.Fatal(err)
			}
			res, err = sys.StratSVF(stratTestOpts, 2021)
			check("soft", u, res, err)
		})
	}
	t.Cleanup(func() {
		t.Logf("stratified used fewer injections on %d/%d benchmark x layer cells", fewer, total)
		assertReductionFloor(t, nUniform, microN, 1.5)
	})
}

// TestStratPartitionsEngineIndependent: the fast and the reference
// engine partition every layer's pool identically — same stratum labels
// and sizes, each keyed on the demanded-bits level — so a stratified
// campaign's store key and plan do not depend on the engine. Only the
// fast engine counts the soft layer's resolved strata without
// injecting; the reference engine injects them like any other stratum.
func TestStratPartitionsEngineIndependent(t *testing.T) {
	opt := stratTestOpts
	opt.MaxNew = 16
	run := func(reference bool) []StratResult {
		sys, err := Build(Target{Bench: "crc32", Seed: 1}, isa.VSA64)
		if err != nil {
			t.Fatal(err)
		}
		sys.snapshots = 6
		sys.Reference = reference
		var out []StratResult
		for _, f := range []func() (StratResult, error){
			func() (StratResult, error) {
				return sys.StratMicro(micro.ConfigA72(), micro.StructRF, opt, 2021)
			},
			func() (StratResult, error) { return sys.StratPVF(micro.FPMWD, opt, 2021) },
			func() (StratResult, error) { return sys.StratPVF(micro.FPMWI, opt, 2021) },
			func() (StratResult, error) { return sys.StratSVF(opt, 2021) },
		} {
			res, err := f()
			if err != nil {
				t.Fatalf("reference=%v: %v", reference, err)
			}
			out = append(out, res)
		}
		return out
	}
	fast, ref := run(false), run(true)
	for i, what := range []string{"micro RF", "arch WD", "arch WI", "soft"} {
		a, b := fast[i], ref[i]
		if a.Key.Mode != b.Key.Mode || len(a.Strata) != len(b.Strata) {
			t.Fatalf("%s: fast mode %q with %d strata, reference %q with %d", what, a.Key.Mode, len(a.Strata), b.Key.Mode, len(b.Strata))
		}
		for h := range a.Strata {
			if a.Strata[h].Label != b.Strata[h].Label || a.Strata[h].Size != b.Strata[h].Size {
				t.Errorf("%s: stratum %d is %q (%d sites) on the fast engine, %q (%d) on the reference",
					what, h, a.Strata[h].Label, a.Strata[h].Size, b.Strata[h].Label, b.Strata[h].Size)
			}
			if !strings.Contains(a.Strata[h].Label, "/d") {
				t.Errorf("%s: stratum %q has no demanded-bits level", what, a.Strata[h].Label)
			}
			if b.Strata[h].Resolved {
				t.Errorf("%s: the reference engine counted stratum %q as resolved", what, b.Strata[h].Label)
			}
		}
	}
	resolved := fmt.Sprintf("/d%d", strata.DemResolved)
	soft, saw := fast[3], false
	for _, sr := range soft.Strata {
		if strings.HasSuffix(sr.Label, resolved) {
			saw = true
			if !sr.Resolved {
				t.Errorf("soft: fast-engine stratum %q is not counted as resolved", sr.Label)
			}
		}
	}
	if !saw || soft.Resolved == 0 {
		t.Errorf("soft: no demanded-bits-resolved stratum in the partition (%d sites resolved)", soft.Resolved)
	}
}

// assertWithinCI fails tb unless the stratified estimate est lies
// within margin of the uniform estimate uniform: stratification must
// not bias the estimate.
func assertWithinCI(tb testing.TB, what string, est, uniform, margin float64) {
	tb.Helper()
	if d := est - uniform; d < -margin || d > margin {
		tb.Errorf("%s: stratified estimate %.4f outside uniform CI %.4f +- %.4f", what, est, uniform, margin)
	}
}

// assertReductionFloor fails tb unless a strict majority of the
// stratified runs, which spent nStrat injections each, needed at least
// floor times fewer injections than the uniform worst case nUniform.
func assertReductionFloor(tb testing.TB, nUniform int, nStrat []int, floor float64) {
	tb.Helper()
	cleared := 0
	for _, n := range nStrat {
		if float64(nUniform)/float64(n) >= floor {
			cleared++
		}
	}
	if len(nStrat) > 0 && 2*cleared <= len(nStrat) {
		tb.Errorf("only %d/%d stratified runs needed >= %.1fx fewer injections than the uniform %d (injections %v)",
			cleared, len(nStrat), floor, nUniform, nStrat)
	}
}

// BenchmarkStratifiedReductionFloor is the stratified-sampling floor at
// full scale: at the paper's ±2.88%/99% bound, micro layer (A72, RF),
// every benchmark's stratified estimate must lie inside its uniform
// run's CI, and a majority must need at least 3x fewer injections than
// the uniform worst case.
func BenchmarkStratifiedReductionFloor(b *testing.B) {
	opt := StratOptions{CI: DefaultStratCI}
	nUniform := vuln.SamplesFor(opt.CI, 0.99)
	margin := vuln.Margin(nUniform, 0.99)
	cfg := micro.ConfigA72()
	for i := 0; i < b.N; i++ {
		var nStrat []int
		for _, bench := range Benchmarks() {
			sys, err := Build(Target{Bench: bench, Seed: 1}, isa.VSA64)
			if err != nil {
				b.Fatal(err)
			}
			tally, err := sys.MicroTally(cfg, micro.StructRF, nUniform, 2021)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sys.StratMicro(cfg, micro.StructRF, opt, 2021)
			if err != nil {
				b.Fatal(err)
			}
			assertWithinCI(b, bench, res.Split.Total(), tally.AVF(), margin)
			nStrat = append(nStrat, res.N)
			b.Logf("%s: uniform %d -> stratified %d (%.1fx, %d strata)", bench, nUniform, res.N,
				float64(nUniform)/float64(res.N), len(res.Strata))
		}
		assertReductionFloor(b, nUniform, nStrat, 3)
	}
}

// TestStratifiedResumeBitIdentical pins the determinism contract: a
// budget-truncated stratified run resumed from the store must finish
// bit-identical to a one-shot run — same estimate, same half-width,
// same per-stratum tallies, same stored record stream — and the stream
// must not depend on the worker count.
func TestStratifiedResumeBitIdentical(t *testing.T) {
	const seed = 2021
	cfg := micro.ConfigA72()
	mk := func(workers int) *System {
		sys, err := Build(Target{Bench: "sha", Seed: 1}, isa.VSA64)
		if err != nil {
			t.Fatal(err)
		}
		sys.snapshots = 6
		sys.Workers = workers
		st, err := results.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sys.Store = st
		return sys
	}

	oneShot := mk(1)
	ref, err := oneShot.StratMicro(cfg, micro.StructRF, stratTestOpts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Fresh != ref.N {
		t.Fatalf("one-shot run served %d of %d records from an empty store", ref.N-ref.Fresh, ref.N)
	}

	// Budgeted: repeat with a small fresh-injection budget until done.
	budgeted := mk(1)
	opts := stratTestOpts
	opts.MaxNew = 40
	var res StratResult
	for i := 0; ; i++ {
		if i > 100 {
			t.Fatal("budgeted run did not converge in 100 resumes")
		}
		res, err = budgeted.StratMicro(cfg, micro.StructRF, opts, seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fresh == 0 {
			break
		}
	}
	// Fresh counts per-call injections, so it legitimately differs
	// between a one-shot run and the final resumed call; everything
	// else must be bit-identical.
	sameButFresh := func(a, b StratResult) bool {
		a.Fresh, b.Fresh = 0, 0
		return reflect.DeepEqual(a, b)
	}
	if !sameButFresh(res, ref) {
		t.Errorf("resumed result differs from one-shot:\n got %+v\nwant %+v", res, ref)
	}

	// Parallel workers: same stream, fresh store.
	par := mk(3)
	resPar, err := par.StratMicro(cfg, micro.StructRF, stratTestOpts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resPar, ref) {
		t.Errorf("3-worker result differs from 1-worker:\n got %+v\nwant %+v", resPar, ref)
	}
	if resPar.Fresh != resPar.N {
		t.Errorf("3-worker run on a fresh store served %d stored records", resPar.N-resPar.Fresh)
	}

	// The stored record streams must be byte-for-byte the same records.
	load := func(sys *System, k results.Key) []results.Record {
		recs, ok, err := sys.Store.Load(k)
		if err != nil || !ok {
			t.Fatalf("stored stratified campaign missing: ok=%v err=%v", ok, err)
		}
		return recs
	}
	refRecs := load(oneShot, ref.Key)
	if got := load(budgeted, res.Key); !reflect.DeepEqual(got, refRecs) {
		t.Error("resumed record stream differs from one-shot stream")
	}
	if got := load(par, resPar.Key); !reflect.DeepEqual(got, refRecs) {
		t.Error("3-worker record stream differs from 1-worker stream")
	}
	// Every stored record carries its stratum label (schema v2 column).
	for i, r := range refRecs {
		if r.Stratum == "" {
			t.Fatalf("record %d has no stratum label", i)
		}
	}

	// A repeat call on the fully stored campaign must inject nothing.
	again, err := oneShot.StratMicro(cfg, micro.StructRF, stratTestOpts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if again.Fresh != 0 {
		t.Errorf("repeat call injected %d fresh records on a complete store", again.Fresh)
	}
	if !sameButFresh(again, ref) {
		t.Errorf("repeat call result differs from original")
	}
}

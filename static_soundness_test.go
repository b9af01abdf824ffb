package vulnstack

import (
	"reflect"
	"testing"

	"vulnstack/internal/inject"
	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
)

// TestStaticSoundnessGate is the machine-checked soundness gate of the
// bit-precise static analysis: across every seed benchmark, every fault
// the demanded-bits pass classifies as provably Masked must dynamically
// run to Masked on the reference engine (no dead-def filter, no static
// resolution — the interpreter executes each fault to completion). One statically-masked site observed as SDC, Crash, or
// Detected fails the build: the analysis claims a proof, not a
// heuristic.
func TestStaticSoundnessGate(t *testing.T) {
	const pool = 2000
	const maxVerify = 200 // dynamic runs per benchmark; the pool scan is full
	for _, bench := range Benchmarks() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			sys, err := Build(Target{Bench: bench, Seed: 1}, isa.VSA64)
			if err != nil {
				t.Fatal(err)
			}
			sys.Static = true
			cp, err := sys.LLFICampaign()
			if err != nil {
				t.Fatal(err)
			}
			if cp.IRBits() == nil {
				t.Fatal("static campaign has no demanded-bits result")
			}

			// Dynamic oracle: same module, the reference engine.
			oracle, err := Build(Target{Bench: bench, Seed: 1}, isa.VSA64)
			if err != nil {
				t.Fatal(err)
			}
			oracle.Reference = true
			ocp, err := oracle.LLFICampaign()
			if err != nil {
				t.Fatal(err)
			}

			resolved, verified := 0, 0
			for _, f := range cp.Pool(pool, 2021) {
				if !cp.StaticMasked(f) {
					continue
				}
				resolved++
				if verified >= maxVerify {
					continue
				}
				verified++
				if o := ocp.Run(f); o != inject.Masked {
					t.Fatalf("statically-masked fault seq=%d bit=%d dynamically ran to %v — soundness violated",
						f.Seq, f.Bit, o)
				}
			}
			if resolved == 0 {
				t.Errorf("static analysis resolved nothing in a %d-site pool", pool)
			}
			t.Logf("%d/%d pool sites statically resolved, %d verified dynamically Masked",
				resolved, pool, verified)
		})
	}
}

// TestStaticHardwareLayersNeverResolve pins the layer-resolvability
// boundary: the hardware layers have no sound per-site verdict (the
// architectural target of a fault is dynamic state there), so even with
// Static on their stratified campaigns must classify zero sites
// statically — demanded-bits reaches them only as a stratification
// feature, visible as /d-suffixed stratum labels.
func TestStaticHardwareLayersNeverResolve(t *testing.T) {
	sys, err := Build(Target{Bench: "sha", Seed: 1}, isa.VSA64)
	if err != nil {
		t.Fatal(err)
	}
	sys.snapshots = 6
	sys.Static = true

	res, err := sys.StratMicro(micro.ConfigA72(), micro.StructRF, stratTestOpts, 2021)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolved != 0 {
		t.Errorf("micro layer statically resolved %d sites; no sound verdict exists there", res.Resolved)
	}
	for _, s := range res.Strata {
		if s.Resolved {
			t.Errorf("micro stratum %q marked resolved", s.Label)
		}
	}

	resA, err := sys.StratPVF(micro.FPMWD, stratTestOpts, 2021)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Resolved != 0 {
		t.Errorf("arch layer statically resolved %d sites", resA.Resolved)
	}
}

// TestStaticCampaignTallyEquivalence pins the acceptance contract of
// `campaign -static`: with static resolution on, the uniform soft
// campaign's tally is bit-identical to the dynamic baseline — resolved
// faults are Masked either way; only how the verdict was reached
// differs — and the record stream does not depend on the worker count.
func TestStaticCampaignTallyEquivalence(t *testing.T) {
	const n, seed = 400, 2021
	for _, bench := range []string{"sha", "crc32"} {
		mk := func(static bool, workers int) []results.Record {
			sys, err := Build(Target{Bench: bench, Seed: 1}, isa.VSA64)
			if err != nil {
				t.Fatal(err)
			}
			sys.Static = static
			cp, err := sys.LLFICampaign()
			if err != nil {
				t.Fatal(err)
			}
			cp.Workers = workers
			return cp.Records(n, 0, seed, nil)
		}
		base := mk(false, 1)
		static1 := mk(true, 1)
		staticN := mk(true, 4)

		if !reflect.DeepEqual(static1, staticN) {
			t.Errorf("%s: static record stream differs between 1 and 4 workers", bench)
		}
		bt, st := results.TallyOf(base), results.TallyOf(static1)
		if bt != st {
			t.Errorf("%s: static tally %+v differs from dynamic baseline %+v", bench, st, bt)
		}
		resolved := 0
		for i, r := range static1 {
			if r.StaticResolved {
				resolved++
				if r.Outcome != results.Masked {
					t.Fatalf("%s: statically-resolved record %d has outcome %v", bench, i, r.Outcome)
				}
			}
			if base[i].StaticResolved {
				t.Fatalf("%s: baseline record %d carries the static provenance flag", bench, i)
			}
		}
		if resolved == 0 {
			t.Errorf("%s: no record statically resolved in %d injections", bench, n)
		}
		t.Logf("%s: %d/%d records statically resolved, tally %+v", bench, resolved, n, st)
	}
}

// TestStratStaticFewerLiveInjections pins the efficiency claim on fft,
// qsort and sha: at the same CI bound, the soft-layer stratified
// campaign with static resolution performs strictly fewer live
// injections than the stratified baseline on each of them, stays
// within the combined CIs, and reports its resolved strata as
// exhaustive all-Masked mass.
func TestStratStaticFewerLiveInjections(t *testing.T) {
	benches := []string{"fft", "qsort", "sha"}
	base, stat := assertStaticResolutionFloor(t, benches, stratTestOpts)
	for i, bench := range benches {
		if stat[i].N >= base[i].N {
			t.Errorf("%s: static run used %d live injections, baseline %d — no savings", bench, stat[i].N, base[i].N)
		}
		if stat[i].Resolved == 0 {
			t.Errorf("%s: static run resolved no pool sites", bench)
		}
		sawResolved := false
		for _, s := range stat[i].Strata {
			if !s.Resolved {
				continue
			}
			sawResolved = true
			if s.Tally.N != s.Size || s.Tally.Outcomes[results.Masked] != s.Size {
				t.Errorf("%s: resolved stratum %q tally %+v is not exhaustive all-Masked over %d sites",
					bench, s.Label, s.Tally, s.Size)
			}
		}
		if !sawResolved {
			t.Errorf("%s: no stratum marked resolved", bench)
		}
	}
}

// assertStaticResolutionFloor runs the soft-layer stratified campaign
// at opt on each benchmark without and with static resolution, and
// fails tb unless every pair of estimates agrees within the combined
// half-widths and a strict majority of the benchmarks performs
// strictly fewer live injections with static resolution. It returns
// the baseline and static results in benchmark order.
func assertStaticResolutionFloor(tb testing.TB, benches []string, opt StratOptions) (base, stat []StratResult) {
	tb.Helper()
	// One system per mode: the static flag is baked into the soft
	// campaign at first use.
	run := func(bench string, static bool) StratResult {
		sys, err := Build(Target{Bench: bench, Seed: 1}, isa.VSA64)
		if err != nil {
			tb.Fatal(err)
		}
		sys.Static = static
		res, err := sys.StratSVF(opt, 2021)
		if err != nil {
			tb.Fatalf("%s (static=%v): %v", bench, static, err)
		}
		return res
	}
	fewer := 0
	for _, bench := range benches {
		b, s := run(bench, false), run(bench, true)
		if d, hw := s.Split.Total()-b.Split.Total(), b.HalfWidth+s.HalfWidth; d < -hw || d > hw {
			tb.Errorf("%s: static estimate %.4f vs baseline %.4f differ beyond the combined half-widths ±%.4f",
				bench, s.Split.Total(), b.Split.Total(), hw)
		}
		if s.N < b.N {
			fewer++
		}
		tb.Logf("%s: live injections %d -> %d, %d/%d pool sites resolved", bench, b.N, s.N, s.Resolved, s.Pool)
		base, stat = append(base, b), append(stat, s)
	}
	if 2*fewer <= len(benches) {
		tb.Errorf("only %d/%d benchmarks performed strictly fewer live injections with static resolution", fewer, len(benches))
	}
	return base, stat
}

// BenchmarkStaticResolutionFloor is the static-resolution floor at full
// scale: all ten benchmarks at the paper's ±2.88%/99% bound.
func BenchmarkStaticResolutionFloor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		assertStaticResolutionFloor(b, Benchmarks(), StratOptions{CI: DefaultStratCI})
	}
}

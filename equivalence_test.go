package vulnstack

import (
	"fmt"
	"testing"

	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
)

// equivLayer runs one layer's campaign on sys and returns its record
// stream.
type equivLayer struct {
	name string
	run  func(t *testing.T, sys *System, workers int) []results.Record
}

const equivSeed = 2021

// TestAccelerationEquivalenceAllBenchmarks is the fast-vs-reference
// gate of the micro layer: convergence early-stop and the micro decode
// memo must reproduce the reference engine's record stream on every
// seed benchmark (see assertFastMatchesReference).
func TestAccelerationEquivalenceAllBenchmarks(t *testing.T) {
	cfg := micro.ConfigA72()
	assertFastMatchesReference(t, equivLayer{"micro", func(t *testing.T, sys *System, workers int) []results.Record {
		cp, err := sys.MicroCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cp.Workers = workers
		return cp.Records(micro.StructRF, 10, 0, equivSeed, nil)
	}})
}

// TestTranslationBlockEquivalenceAllBenchmarks is the fast-vs-reference
// gate of the two layers that execute through translation blocks (arch
// emulator, compiled IR): blocks, convergence early-stop and the
// dead-definition filter must reproduce the reference engine's record
// stream on every seed benchmark (see assertFastMatchesReference). The
// arch layer runs all three fault models: WOI and WI flip instruction
// bits in memory, so they exercise code-granule invalidation.
func TestTranslationBlockEquivalenceAllBenchmarks(t *testing.T) {
	arch := func(fpm micro.FPM, n int) equivLayer {
		return equivLayer{"arch " + fpm.String(), func(t *testing.T, sys *System, workers int) []results.Record {
			cp, err := sys.ArchCampaign()
			if err != nil {
				t.Fatal(err)
			}
			cp.Workers = workers
			return cp.Records(fpm, n, 0, equivSeed, nil)
		}}
	}
	assertFastMatchesReference(t,
		arch(micro.FPMWD, 16), arch(micro.FPMWOI, 8), arch(micro.FPMWI, 8),
		equivLayer{"soft", func(t *testing.T, sys *System, workers int) []results.Record {
			cp, err := sys.LLFICampaign()
			if err != nil {
				t.Fatal(err)
			}
			cp.Workers = workers
			return cp.Records(30, 0, equivSeed, nil)
		}})
}

// assertFastMatchesReference runs each layer on every seed benchmark,
// for one and several workers, and requires the fast path to reproduce
// the reference engine's record stream record for record — only the
// EarlyStop provenance flag may differ. Each engine builds its own
// golden chain, so an engine bug cannot corrupt both sides of the
// comparison. The per-layer sample counts are small — the point is
// breadth (every benchmark exercises different convergence, decode and
// block patterns), not statistical depth.
func assertFastMatchesReference(t *testing.T, layers ...equivLayer) {
	for _, bench := range Benchmarks() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			mk := func(reference bool) *System {
				sys, err := Build(Target{Bench: bench, Seed: 1}, isa.VSA64)
				if err != nil {
					t.Fatal(err)
				}
				sys.snapshots = 6
				sys.Reference = reference
				return sys
			}
			fast, ref := mk(false), mk(true)
			for _, l := range layers {
				want := l.run(t, ref, 1)
				for _, workers := range []int{1, 3} {
					assertSameRecords(t, fmt.Sprintf("%s layer, %d workers", l.name, workers),
						l.run(t, fast, workers), want)
				}
			}
		})
	}
}

// assertSameRecords fails unless the fast-path stream equals the
// reference stream record for record, ignoring only the EarlyStop
// provenance flag (which the reference engine never sets). On failure
// it reports the first divergent record with its provenance, so the
// divergence is attributable to a specific shortcut.
func assertSameRecords(t *testing.T, what string, fast, ref []results.Record) {
	t.Helper()
	for i := 0; i < len(fast) || i < len(ref); i++ {
		if i >= len(fast) || i >= len(ref) {
			t.Errorf("%s: fast path has %d records, reference %d", what, len(fast), len(ref))
			return
		}
		a, b := fast[i], ref[i]
		a.EarlyStop = false
		if b.EarlyStop || a != b {
			t.Errorf("%s: first divergent record %d (fast provenance: early-stop=%v static=%v)\n     fast: %+v\nreference: %+v",
				what, i, fast[i].EarlyStop, fast[i].StaticResolved, fast[i], ref[i])
			return
		}
	}
}

// TestCheckpointChainEquivalenceAllBenchmarks is the acceptance gate of
// the delta-checkpoint work: on every benchmark, at both hardware
// injection layers, tallies must be bit-identical across
// (boot-only full snapshot × dense delta chain) ×
// (cold golden-run Prepare × persisted-chain resume) × worker counts.
// The boot-only configuration degenerates the chain to one full
// snapshot — exactly the pre-chain run-from-reset semantics — so it
// doubles as the full-restore baseline for the delta-walk restores the
// dense chain performs.
func TestCheckpointChainEquivalenceAllBenchmarks(t *testing.T) {
	const (
		nMicro = 8
		nArch  = 12
		dense  = 48
		seed   = 2021
	)
	cfg := micro.ConfigA72()
	for _, bench := range Benchmarks() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			mk := func(snapshots int, withStore bool) *System {
				sys, err := Build(Target{Bench: bench, Seed: 1}, isa.VSA64)
				if err != nil {
					t.Fatal(err)
				}
				sys.snapshots = snapshots
				if withStore {
					st, err := results.OpenStore(dir)
					if err != nil {
						t.Fatal(err)
					}
					sys.Store = st
				}
				return sys
			}
			// cold captures and persists its chain into dir; warm is an
			// otherwise-identical fresh system and must resume from it.
			full, cold, warm := mk(1, false), mk(dense, true), mk(dense, true)

			layer := func(sys *System, name string, workers int) results.Tally {
				switch name {
				case "micro":
					cp, err := sys.MicroCampaign(cfg)
					if err != nil {
						t.Fatal(err)
					}
					cp.Workers = workers
					return results.TallyOf(cp.Records(micro.StructRF, nMicro, 0, seed, nil))
				default:
					cp, err := sys.ArchCampaign()
					if err != nil {
						t.Fatal(err)
					}
					cp.Workers = workers
					return results.TallyOf(cp.Records(micro.FPMWD, nArch, 0, seed, nil))
				}
			}
			for _, name := range []string{"micro", "arch"} {
				ref := layer(full, name, 1)
				for _, workers := range []int{1, 3} {
					if got := layer(cold, name, workers); got != ref {
						t.Errorf("%s layer, %d workers: dense-chain tally %+v, full-snapshot %+v",
							name, workers, got, ref)
					}
					if got := layer(warm, name, workers); got != ref {
						t.Errorf("%s layer, %d workers: resumed tally %+v, full-snapshot %+v",
							name, workers, got, ref)
					}
				}
			}
			// The warm campaigns must actually have skipped their golden
			// runs (layer() above forced them to exist).
			if cp, err := warm.MicroCampaign(cfg); err != nil || !cp.Resumed {
				t.Errorf("micro warm campaign not resumed from persisted chain (err=%v)", err)
			}
			if cp, err := warm.ArchCampaign(); err != nil || !cp.Resumed {
				t.Errorf("arch warm campaign not resumed from persisted chain (err=%v)", err)
			}
			if cp, err := cold.MicroCampaign(cfg); err != nil || cp.Resumed {
				t.Errorf("cold campaign unexpectedly resumed (err=%v)", err)
			}
		})
	}
}

// TestChainDenseMemoryBudget pins the memory criterion of the delta
// refactor: at the dense default (192 checkpoints) a chain must hold at
// least 128 restore points while storing less than 12 full snapshots
// would (12 × the chain's own base cost), i.e. checkpoint memory is no
// longer O(snapshots × RAM).
func TestChainDenseMemoryBudget(t *testing.T) {
	sys, err := Build(Target{Bench: "sha", Seed: 1}, isa.VSA64)
	if err != nil {
		t.Fatal(err)
	}
	if sys.snapshots != defaultSnapshots {
		t.Fatalf("default snapshots = %d, want %d", sys.snapshots, defaultSnapshots)
	}
	cp, err := sys.MicroCampaign(micro.ConfigA72())
	if err != nil {
		t.Fatal(err)
	}
	st := cp.Chain().Stats()
	if st.Checkpoints < 128 {
		t.Fatalf("dense chain has %d checkpoints, want >= 128", st.Checkpoints)
	}
	stored := st.BaseBytes + st.DeltaBytes + st.AuxBytes
	// One full snapshot under the old scheme was a RAM image plus a
	// complete machine-state blob; the chain reconstructs the latter, so
	// measure it rather than estimate it.
	full := RAMSize + len(cp.Chain().StateAt(st.Checkpoints-1, nil, -1))
	budget := 12 * full
	if stored > budget {
		t.Fatalf("chain stores %d bytes for %d checkpoints, above the 12-full-snapshot budget %d (full snapshot = %d)",
			stored, st.Checkpoints, budget, full)
	}
	t.Logf("%d checkpoints in %d bytes (base %d, deltas %d, aux %d) vs 12-full-snapshot budget %d (%.1fx headroom)",
		st.Checkpoints, stored, st.BaseBytes, st.DeltaBytes, st.AuxBytes, budget,
		float64(budget)/float64(stored))
}

//go:build !race

package vulnstack

import (
	"sort"
	"testing"
	"time"

	"vulnstack/internal/inject"
	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
)

// Per-injection speedup floors of the fast path over the reference
// engine: the median across benchmarks at the micro, arch and soft
// layers, and every benchmark at the soft layer. The soft per-benchmark
// floor guards against real regressions: the fast soft path can never
// legitimately cost more than the reference, so a dip below ~1.0 is
// an actual slowdown. The micro floor is about half the measured
// median (EXPERIMENTS.md, "Lifetime tables"), above what the fast path
// reaches without its lifetime table.
const (
	microSpeedupFloor     = 3.0
	archSpeedupFloor      = 2.0
	softSpeedupFloor      = 1.5
	softBenchSpeedupFloor = 0.98
)

// The micro row injects into the register file and L1d, where the
// lifetime table resolves most faults (dead entries and bits
// overwritten before any read), on campaigns with six checkpoints: a
// fault the table does not resolve then pays a long restore-and-advance
// on either engine, so the row's speedup is mostly the table's.
var microFloorStructs = []micro.Structure{micro.StructRF, micro.StructL1D}

const microFloorSnapshots = 6

// assertFastPathSpeedFloors times n injections per benchmark at the arch
// (WD) and soft layers, and nMicro per structure in microFloorStructs at
// the micro layer (A72), on the fast path and on the reference engine,
// one worker each, and fails tb below any speedup floor. Each engine
// gets its own system, prepared before the clock starts, so the
// measured quantity is per-injection cost only.
func assertFastPathSpeedFloors(tb testing.TB, n, nMicro int) {
	tb.Helper()
	var mic, arch, soft []float64
	for _, bench := range Benchmarks() {
		mk := func(reference bool) *System {
			sys, err := Build(Target{Bench: bench, Seed: 1}, isa.VSA64)
			if err != nil {
				tb.Fatal(err)
			}
			sys.Workers = 1
			sys.Reference = reference
			return sys
		}
		archRun := func(sys *System) func() []results.Record {
			cp, err := sys.ArchCampaign()
			if err != nil {
				tb.Fatal(err)
			}
			return func() []results.Record { return cp.Records(micro.FPMWD, n, 0, 2021, nil) }
		}
		microRun := func(sys *System) func() []results.Record {
			cfg := micro.ConfigA72()
			cfg.Reference = sys.Reference
			cp, err := inject.Prepare(sys.Image, cfg, microFloorSnapshots)
			if err != nil {
				tb.Fatal(err)
			}
			cp.Workers = 1
			return func() []results.Record {
				var recs []results.Record
				for _, s := range microFloorStructs {
					recs = append(recs, cp.Records(s, nMicro, 0, 2021, nil)...)
				}
				return recs
			}
		}
		softRun := func(sys *System) func() []results.Record {
			cp, err := sys.LLFICampaign()
			if err != nil {
				tb.Fatal(err)
			}
			return func() []results.Record { return cp.Records(n, 0, 2021, nil) }
		}
		fast, ref := mk(false), mk(true)
		m := fastPathSpeedup(tb, bench+" micro", microRun(fast), microRun(ref))
		a := fastPathSpeedup(tb, bench+" arch", archRun(fast), archRun(ref))
		s := fastPathSpeedup(tb, bench+" soft", softRun(fast), softRun(ref))
		if s < softBenchSpeedupFloor {
			tb.Errorf("%s: soft-layer speedup %.2fx is below the %.2fx per-benchmark floor", bench, s, softBenchSpeedupFloor)
		}
		mic, arch, soft = append(mic, m), append(arch, a), append(soft, s)
		tb.Logf("%-12s micro %6.2fx  arch %5.2fx  soft %5.2fx", bench, m, a, s)
	}
	if m := median(mic); m < microSpeedupFloor {
		tb.Errorf("median micro-layer speedup %.2fx is below the %.1fx floor", m, microSpeedupFloor)
	}
	if m := median(arch); m < archSpeedupFloor {
		tb.Errorf("median arch-layer speedup %.2fx is below the %.1fx floor", m, archSpeedupFloor)
	}
	if m := median(soft); m < softSpeedupFloor {
		tb.Errorf("median soft-layer speedup %.2fx is below the %.1fx floor", m, softSpeedupFloor)
	}
}

// fastPathSpeedup runs a prepared campaign three times on each engine,
// alternating, asserts identical tallies on every attempt, and returns
// the reference engine's best time over the fast path's.
func fastPathSpeedup(tb testing.TB, what string, fast, ref func() []results.Record) float64 {
	tb.Helper()
	timed := func(run func() []results.Record) ([]results.Record, time.Duration) {
		start := time.Now()
		recs := run()
		return recs, time.Since(start)
	}
	var best [2]time.Duration
	for try := 0; try < 3; try++ {
		f, fd := timed(fast)
		r, rd := timed(ref)
		if results.TallyOf(f) != results.TallyOf(r) {
			tb.Fatalf("%s: fast-path tally %+v differs from the reference engine's %+v", what, results.TallyOf(f), results.TallyOf(r))
		}
		if try == 0 || fd < best[0] {
			best[0] = fd
		}
		if try == 0 || rd < best[1] {
			best[1] = rd
		}
	}
	return float64(best[1]) / float64(best[0])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// TestFastPathSpeedFloors holds the speedup floors at CI scale: ten
// benchmarks, 30 injections per layer (6 per micro structure).
func TestFastPathSpeedFloors(t *testing.T) { assertFastPathSpeedFloors(t, 30, 6) }

// BenchmarkFastPathSpeedFloors holds the same floors at full scale:
// 150 injections per layer (40 per micro structure).
func BenchmarkFastPathSpeedFloors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		assertFastPathSpeedFloors(b, 150, 40)
	}
}

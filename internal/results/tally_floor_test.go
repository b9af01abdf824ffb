//go:build !race

package results

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// assertColumnarTallyFloor stores rows synthetic records and fails tb
// unless the streaming columnar tally equals the tally of a JSONL
// re-parse of the same records (the pre-columnar load path), a
// pushed-down SDC filter counts exactly the SDC records, and the
// columnar tally is at least floor times faster than the re-parse
// (best of three each).
func assertColumnarTallyFloor(tb testing.TB, rows int, floor float64) {
	tb.Helper()
	dir := tb.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		tb.Fatal(err)
	}
	recs := randomRecords(rows, 2021)
	k := Key{Layer: "micro", Target: "synthetic/agg", Config: "A72", Struct: "mix", Seed: 2021}
	if err := s.Save(k, recs); err != nil {
		tb.Fatal(err)
	}
	jsonl := filepath.Join(dir, "records.jsonl")
	f, err := os.Create(jsonl)
	if err != nil {
		tb.Fatal(err)
	}
	if err := WriteJSONL(f, recs); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}

	var reparsed, columnar Tally
	nsJSONL := bestOf3(tb, func() error {
		f, err := os.Open(jsonl)
		if err != nil {
			return err
		}
		defer f.Close()
		got, err := ReadJSONL(f, rows)
		reparsed = TallyOf(got)
		return err
	})
	nsColumnar := bestOf3(tb, func() error {
		columnar, err = s.TallyPrefix(k, rows)
		return err
	})
	if columnar != reparsed {
		tb.Fatalf("columnar tally %+v != JSONL re-parse tally %+v", columnar, reparsed)
	}
	c, ok, err := s.Cursor(k, Filter{Outcomes: []Outcome{SDC}})
	if err != nil || !ok {
		tb.Fatalf("filtered cursor: ok=%v err=%v", ok, err)
	}
	defer c.Close()
	sdc, err := c.Tally()
	if err != nil || sdc.N != reparsed.Outcomes[SDC] {
		tb.Fatalf("SDC filter tallied %d records (err=%v), want %d", sdc.N, err, reparsed.Outcomes[SDC])
	}
	speedup := float64(nsJSONL) / float64(nsColumnar)
	tb.Logf("%d rows: JSONL re-parse %v, columnar %v, %.0fx", rows, nsJSONL, nsColumnar, speedup)
	if speedup < floor {
		tb.Errorf("columnar tally speedup %.1fx over the JSONL re-parse is below the %.0fx floor", speedup, floor)
	}
}

// bestOf3 runs f three times and returns its fastest wall-clock time.
func bestOf3(tb testing.TB, f func() error) time.Duration {
	tb.Helper()
	best := time.Duration(-1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := f(); err != nil {
			tb.Fatal(err)
		}
		if d := time.Since(start); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// TestColumnarTallySpeedFloor is the re-aggregation floor at CI scale:
// 150,000 rows, at least 5x.
func TestColumnarTallySpeedFloor(t *testing.T) { assertColumnarTallyFloor(t, 150_000, 5) }

// BenchmarkColumnarTallySpeedFloor is the same floor at full scale:
// 10^6 rows, at least 20x.
func BenchmarkColumnarTallySpeedFloor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		assertColumnarTallyFloor(b, 1_000_000, 20)
	}
}

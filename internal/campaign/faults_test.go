package campaign

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"vulnstack/internal/results"
)

// TestPoolTail: a pool is the seed's sequence through the sampler, a
// shorter pool is its prefix, and Tail cuts [from, n) with from clamped
// to the pool.
func TestPoolTail(t *testing.T) {
	sample := func(r *rand.Rand) int { return r.Intn(1000) }
	pool := Pool(20, 7, sample)
	if short := Pool(8, 7, sample); !slices.Equal(short, pool[:8]) {
		t.Fatalf("a shorter pool %v is not a prefix of %v", short, pool)
	}
	for _, c := range []struct{ from, base, n int }{{-3, 0, 20}, {0, 0, 20}, {8, 8, 12}, {20, 20, 0}, {25, 20, 0}} {
		tail, base := Tail(pool, c.from)
		if base != c.base || len(tail) != c.n || (c.n > 0 && &tail[0] != &pool[base]) {
			t.Errorf("Tail(from %d): base %d, %d faults; want %d, %d", c.from, base, len(tail), c.base, c.n)
		}
	}
}

// TestRecordsAt: records carry the absolute index base+i and progress
// sees each once, in order and offset by base, for every worker count;
// every job runs from its group, on a state made at most once per
// worker.
func TestRecordsAt(t *testing.T) {
	faults := Pool(40, 3, func(r *rand.Rand) int { return r.Intn(100) })
	group := func(f int) int { return f / 25 }
	var want []results.Record
	for _, workers := range []int{1, 3} {
		var seen []int
		var states atomic.Int32
		recs := RecordsAt(faults, 100, workers, group,
			func() int { return int(states.Add(1)) },
			func(_ int, f, g int) results.Record {
				if g != group(f) {
					t.Errorf("fault %d ran from group %d, want %d", f, g, group(f))
				}
				return results.Record{Coord: uint64(f)}
			},
			func(i int, r results.Record) {
				if r.Index != i {
					t.Errorf("progress index %d for record %d", i, r.Index)
				}
				seen = append(seen, i)
			})
		if n := int(states.Load()); n > workers {
			t.Errorf("workers %d: %d states made", workers, n)
		}
		for i, r := range recs {
			if r.Index != 100+i || r.Coord != uint64(faults[i]) {
				t.Fatalf("workers %d: record %d is %+v for fault %d", workers, i, r, faults[i])
			}
			if seen[i] != 100+i {
				t.Fatalf("workers %d: progress order %v", workers, seen)
			}
		}
		if want == nil {
			want = recs
		} else if !slices.Equal(recs, want) {
			t.Fatalf("workers %d: records differ from one worker's", workers)
		}
	}
}

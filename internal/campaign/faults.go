package campaign

import (
	"math/rand"

	"vulnstack/internal/results"
)

// Pool pre-draws n faults from seed through a layer's sampler, exactly
// the sequence a serial loop would draw: the faults a campaign of n
// injects, which stratified campaigns partition into strata.
func Pool[F any](n int, seed int64, sample func(r *rand.Rand) F) []F {
	r := rand.New(rand.NewSource(seed))
	faults := make([]F, n)
	for i := range faults {
		faults[i] = sample(r)
	}
	return faults
}

// Tail returns injections [from, n) of an n-fault pool and the absolute
// index of the first. Records for [0, from) from an earlier, shorter
// campaign with the same seed concatenate with the tail's into exactly
// the record set of a one-shot n-injection campaign: the top-up resume
// primitive the persistent store builds on.
func Tail[F any](pool []F, from int) ([]F, int) {
	from = min(max(from, 0), len(pool))
	return pool[from:], from
}

// RecordsAt injects faults, any ordered subset of a pool, and returns
// their records with absolute indices base+i, bit-identical for every
// worker count. group maps a fault to its governing checkpoint, whose
// jobs run together on one worker; run classifies one fault from its
// checkpoint on a worker's state, which newState makes once per worker.
// A layer whose run decides some faults without a machine builds that
// state's arena lazily, when a fault first needs one. progress, when
// non-nil, sees every record once, serialized and in index order.
func RecordsAt[F, S any](faults []F, base, workers int,
	group func(f F) int,
	newState func() S,
	run func(state S, f F, g int) results.Record,
	progress func(i int, r results.Record),
) []results.Record {
	jobs := make([]Job, len(faults))
	for i, f := range faults {
		jobs[i] = Job{Index: i, Group: group(f)}
	}
	var emit func(i int, r results.Record)
	if progress != nil {
		emit = func(i int, r results.Record) { progress(base+i, r) }
	}
	return Run(jobs, workers, newState,
		func(state S, j Job) results.Record {
			rec := run(state, faults[j.Index], j.Group)
			rec.Index = base + j.Index
			return rec
		},
		emit)
}

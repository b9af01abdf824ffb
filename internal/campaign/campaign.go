// Package campaign is the shared parallel fault-injection engine used
// by all three injection layers (microarchitectural AVF, architectural
// PVF, software-level SVF), and their one fault-list driver. Pool
// pre-draws a layer's fault sequence from a single seeded stream
// through the layer's sampler, Tail cuts a top-up's [from, n) from it,
// and RecordsAt hands the engine one independent job per injection, so
// the aggregate tally is bit-identical for every worker count,
// including workers=1 reproducing the serial results.
//
// Jobs carry a state-affinity group (the golden checkpoint a faulty run
// restores from). The engine keeps same-group jobs together on a
// worker, which lets per-worker arenas restore golden state by copying
// only dirty pages instead of the full RAM image.
package campaign

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Job is one injection. Index is its position in the pre-drawn fault
// sequence: results and progress callbacks are keyed by it, and it must
// be unique in [0, len(jobs)). Group is the state-affinity key; jobs
// with equal groups are scheduled contiguously on one worker.
type Job struct {
	Index int
	Group int
}

// Workers resolves a requested worker count: values <= 0 select
// runtime.NumCPU() (the default for campaign fan-out).
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// Run executes every job and returns the results indexed by Job.Index.
//
// newState creates per-worker reusable state (an emulator arena); it is
// called at most once per worker, never concurrently with run on the
// same state. run executes one job on that worker's state; distinct
// workers run concurrently, so run must only share read-only campaign
// state. emit, when non-nil, is the progress callback contract: it is
// invoked exactly once per job, serialized (never concurrently), and in
// strictly increasing Index order — identical observable order to the
// old serial loops, at the cost of buffering out-of-order completions.
// A state with a Release method is released as soon as its worker runs
// out of jobs, before Run returns: an arena that holds a share of a
// process-wide budget hands it on while slower workers finish.
func Run[S any, R any](jobs []Job, workers int,
	newState func() S,
	run func(state S, j Job) R,
	emit func(i int, r R),
) []R {
	n := len(jobs)
	if n == 0 {
		return nil
	}
	results := make([]R, n)
	w := Workers(workers)
	if w > n {
		w = n
	}

	// Serialized in-order delivery of progress callbacks.
	var (
		emitMu   sync.Mutex
		emitDone []bool
		emitNext int
	)
	if emit != nil {
		emitDone = make([]bool, n)
	}
	finish := func(i int, r R) {
		results[i] = r
		if emit == nil {
			return
		}
		emitMu.Lock()
		emitDone[i] = true
		for emitNext < n && emitDone[emitNext] {
			emit(emitNext, results[emitNext])
			emitNext++
		}
		emitMu.Unlock()
	}

	chunks := chunk(jobs, w)
	if w == 1 {
		state := newState()
		defer release(state)
		for _, c := range chunks {
			for _, j := range c {
				finish(j.Index, run(state, j))
			}
		}
		return results
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newState()
			defer release(state)
			for {
				c := int(next.Add(1)) - 1
				if c >= len(chunks) {
					return
				}
				for _, j := range chunks[c] {
					finish(j.Index, run(state, j))
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// release calls state's Release method, if it has one.
func release(state any) {
	if r, ok := state.(interface{ Release() }); ok {
		r.Release()
	}
}

// chunk partitions jobs into work-stealing units: jobs are grouped by
// Group (preserving index order within a group) and each group is split
// into pieces of roughly len(jobs)/(4*workers), so load balances while
// a worker's consecutive jobs usually share a restore source.
func chunk(jobs []Job, workers int) [][]Job {
	size := len(jobs) / (4 * workers)
	if size < 1 {
		size = 1
	}
	// Group jobs, preserving first-seen group order and index order
	// within each group (deterministic, though results don't depend on
	// scheduling).
	order := make([]int, 0, 8)
	byGroup := make(map[int][]Job)
	for _, j := range jobs {
		if _, ok := byGroup[j.Group]; !ok {
			order = append(order, j.Group)
		}
		byGroup[j.Group] = append(byGroup[j.Group], j)
	}
	var chunks [][]Job
	for _, g := range order {
		js := byGroup[g]
		for len(js) > size {
			chunks = append(chunks, js[:size])
			js = js[size:]
		}
		if len(js) > 0 {
			chunks = append(chunks, js)
		}
	}
	return chunks
}

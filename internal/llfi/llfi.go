// Package llfi implements software-level (SVF) fault injection at the
// compiler-IR level, mirroring the LLFI tool the paper uses: faults are
// instantaneous single-bit flips in the destination value of a dynamic
// IR instruction, in user code only (the IR has no kernel), and — like
// LLFI, which supports only 64-bit ISAs — the injector runs the 64-bit
// word width exclusively.
package llfi

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"vulnstack/internal/campaign"
	"vulnstack/internal/inject"
	"vulnstack/internal/ir"
	"vulnstack/internal/results"
	"vulnstack/internal/static"
	"vulnstack/internal/tb"
)

// Width is the only word width LLFI-style injection supports (the
// paper notes LLFI cannot target 32-bit ISAs).
const Width = 64

// Campaign prepares SVF injections for one IR module.
type Campaign struct {
	M *ir.Module

	GoldenOut  []byte
	GoldenExit int64
	// GoldenDefs is the number of value-defining dynamic IR
	// instructions: the injection space.
	GoldenDefs uint64
	// GoldenSteps is the total dynamic IR instruction count.
	GoldenSteps uint64

	MemSize int
	Limit   uint64
	// Workers is the campaign fan-out; <= 0 selects runtime.NumCPU().
	// The tally is bit-identical for every worker count.
	Workers int

	// usedDefs is the golden def-use bitset (ir.Interp.TrackUse), indexed
	// by dynamic definition sequence number. It feeds the dead-definition
	// filter: a fault in a definition whose value the golden run never
	// read is provably Masked — the corrupted register is overwritten or
	// its frame returns before anything consumes it, so execution is
	// bit-identical to golden — and is classified without running the
	// interpreter at all.
	usedDefs []uint64

	// Static enables the bit-precise static resolution pass: faults
	// flipping a bit the interprocedural demanded-bits analysis proves
	// can never influence an observable output (program bytes, exit
	// code, detection, or a crash) are classified Masked without ever
	// preparing an interpreter. Off by default; a reference campaign
	// never resolves statically.
	Static bool
	// defSites maps each dynamic definition sequence number from the
	// golden run to its static instruction site (ir.Interp.DefSites).
	defSites []int32
	// irb is the interprocedural demanded-bits result over cp.M.
	irb *static.IRBits

	// reference selects the reference engine (see Prepare).
	reference bool
	progOnce  sync.Once
	prog      *tb.Prog
}

// Prepare runs the golden execution. reference selects the reference
// engine: no dead-definition filter, no static resolution, and every
// faulty run interpreted instruction-by-instruction with the fault
// applied via the definition hook instead of the compiled
// direct-threaded engine. Outcomes are provably identical either way.
// Golden runs always use the plain interpreter, which the def-use and
// site tracking requires; the tracking still runs, so stratified
// campaigns partition their pools identically on both engines.
func Prepare(m *ir.Module, memSize int, reference bool) (*Campaign, error) {
	ip := ir.NewInterp(m, Width, memSize)
	ip.MaxSteps = 1 << 32
	ip.TrackUse = true
	ip.TrackSites = true
	if err := ip.Run("_start"); err != nil {
		return nil, fmt.Errorf("llfi: golden run: %w", err)
	}
	if !ip.Exited {
		return nil, errors.New("llfi: golden run did not exit")
	}
	return &Campaign{
		M:           m,
		GoldenOut:   append([]byte(nil), ip.Out...),
		GoldenExit:  ip.ExitCode,
		GoldenDefs:  ip.DefSeq,
		GoldenSteps: ip.Steps,
		MemSize:     memSize,
		Limit:       3*ip.Steps + 100000,
		usedDefs:    ip.UsedDefs(),
		defSites:    append([]int32(nil), ip.DefSites()...),
		irb:         static.AnalyzeIR(m, "_start", Width),
		reference:   reference,
	}, nil
}

// Fault selects a dynamic defining instruction and a bit of its result.
type Fault struct {
	Seq uint64
	Bit uint
}

// Sample draws a fault uniformly over the dynamic definition stream.
// Degenerate golden runs with no definitions at all clamp the span to
// one: the single drawn sequence number targets a definition that never
// executes, so the fault provably has no effect (Masked).
func (cp *Campaign) Sample(r *rand.Rand) Fault {
	span := int64(cp.GoldenDefs)
	if span < 1 {
		span = 1
	}
	return Fault{
		Seq: uint64(r.Int63n(span)),
		Bit: uint(r.Intn(Width)),
	}
}

// deadDef reports whether f targets a definition the golden run never
// read: such faults are provably Masked without running.
func (cp *Campaign) deadDef(f Fault) bool {
	if cp.reference {
		return false
	}
	w := int(f.Seq >> 6)
	return w >= len(cp.usedDefs) || cp.usedDefs[w]&(1<<(f.Seq&63)) == 0
}

// StaticMasked reports whether f is provably Masked by the static
// demanded-bits analysis alone: either the fault targets a sequence
// number past the end of the dynamic definition stream (the definition
// never executes), or the flipped bit of the fault's static definition
// site is statically undemanded — no chain of uses can carry it into
// program output, the exit code, a branch, an address, or a syscall
// operand, so the injected run is observably identical to golden.
// It is the analysis verdict alone, whatever Static says: Run and
// RecordsAt act on it only when Static is on and the campaign runs the
// fast engine.
func (cp *Campaign) StaticMasked(f Fault) bool {
	if f.Seq >= cp.GoldenDefs {
		return true
	}
	if f.Seq >= uint64(len(cp.defSites)) {
		return false
	}
	return cp.irb.Masked(int(cp.defSites[f.Seq]), f.Bit)
}

// IRBits exposes the interprocedural demanded-bits result computed at
// Prepare time: the analyze surface reports its resolved fraction, and
// stratified campaigns key strata on its per-site verdicts.
func (cp *Campaign) IRBits() *static.IRBits { return cp.irb }

// Run performs one injection and classifies the outcome. It allocates
// a fresh interpreter per call; campaigns use reusable per-worker
// interpreter arenas in RunCampaign instead.
func (cp *Campaign) Run(f Fault) inject.Outcome {
	if (cp.Static && !cp.reference && cp.StaticMasked(f)) || cp.deadDef(f) {
		return inject.Masked
	}
	return cp.inject(ir.NewInterp(cp.M, Width, cp.MemSize), f)
}

// compiled returns the direct-threaded compiled form of cp.M, building
// it once per campaign, or nil when the campaign runs interpreted
// (the reference engine, or a module the compiler cannot handle —
// execution then falls back to the interpreter with identical outcomes).
func (cp *Campaign) compiled() *tb.Prog {
	if cp.reference {
		return nil
	}
	cp.progOnce.Do(func() {
		// The throwaway interpreter only supplies the global address
		// layout, which is identical for every interpreter over the
		// same module and memory size.
		if p, err := tb.CompileIR(cp.M, ir.NewInterp(cp.M, Width, cp.MemSize)); err == nil {
			cp.prog = p
		}
	})
	return cp.prog
}

// inject runs one fault on a ready (fresh or Reset) interpreter
// through the active engine.
func (cp *Campaign) inject(ip *ir.Interp, f Fault) inject.Outcome {
	if p := cp.compiled(); p != nil {
		return cp.runTB(p, ip, f)
	}
	return cp.runOn(ip, f)
}

// runTB performs one injection via the compiled engine: same
// classification as runOn, with the flip-at-sequence fault inlined in
// the compiled dispatch instead of a per-definition hook closure.
func (cp *Campaign) runTB(p *tb.Prog, ip *ir.Interp, f Fault) inject.Outcome {
	ip.MaxSteps = cp.Limit
	err := p.RunFault(ip, f.Seq, f.Bit)
	switch {
	case err != nil:
		return inject.Crash // bad address, stack overflow, watchdog
	case ip.Detected:
		return inject.Detected
	case ip.Exited && ip.ExitCode == cp.GoldenExit && bytes.Equal(ip.Out, cp.GoldenOut):
		return inject.Masked
	default:
		return inject.SDC
	}
}

// runOn performs one injection on a ready (fresh or Reset) interpreter.
func (cp *Campaign) runOn(ip *ir.Interp, f Fault) inject.Outcome {
	ip.MaxSteps = cp.Limit
	ip.Hook = func(seq uint64, in *ir.Instr, v int64) int64 {
		if seq == f.Seq {
			return v ^ int64(uint64(1)<<f.Bit)
		}
		return v
	}
	err := ip.Run("_start")
	switch {
	case err != nil:
		return inject.Crash // bad address, stack overflow, watchdog
	case ip.Detected:
		return inject.Detected
	case ip.Exited && ip.ExitCode == cp.GoldenExit && bytes.Equal(ip.Out, cp.GoldenOut):
		return inject.Masked
	default:
		return inject.SDC
	}
}

// Tally aggregates SVF outcomes. It is the shared record-stream
// aggregate; SVF() reads it at this layer.
type Tally = results.Tally

// record converts a classified fault into the layer-agnostic form.
func record(f Fault, o inject.Outcome) results.Record {
	return results.Record{
		Layer:   results.LayerSoft,
		Coord:   f.Seq,
		Bit:     int(f.Bit),
		Outcome: o,
	}
}

// RunCampaign performs n injections, fanned across cp.Workers
// goroutines (<= 0: all CPUs). The fault sequence is pre-drawn from the
// seed exactly as the serial loop drew it, so the tally is
// bit-identical for every worker count. progress, when non-nil, is
// called exactly once per injection, serialized and in injection-index
// order; it must not call back into the campaign.
func (cp *Campaign) RunCampaign(n int, seed int64, progress func(i int, r results.Record)) Tally {
	return results.TallyOf(cp.Records(n, 0, seed, progress))
}

// Records executes injections [from, n) of the n-fault sequence
// pre-drawn from seed and returns their records, indexed absolutely.
// Records for [0, from) from an earlier shorter campaign with the same
// key concatenate into exactly a one-shot n-injection record set (the
// top-up resume primitive).
func (cp *Campaign) Records(n, from int, seed int64, progress func(i int, r results.Record)) []results.Record {
	faults := cp.Pool(n, seed)
	if from < 0 {
		from = 0
	}
	if from >= n {
		return nil
	}
	return cp.RecordsAt(faults[from:], from, progress)
}

// Pool pre-draws the n-fault sequence from seed — exactly the faults
// Records would inject, exposed so stratified campaigns can partition
// the pool into equivalence classes and inject per-stratum subsets.
func (cp *Campaign) Pool(n int, seed int64) []Fault {
	r := rand.New(rand.NewSource(seed))
	faults := make([]Fault, n)
	for i := range faults {
		faults[i] = cp.Sample(r)
	}
	return faults
}

// UsedDef reports whether the golden run ever read the value of dynamic
// definition seq — stratified campaigns use it as a stratification
// feature on both engines.
func (cp *Campaign) UsedDef(seq uint64) bool {
	w := int(seq >> 6)
	return w < len(cp.usedDefs) && cp.usedDefs[w]&(1<<(seq&63)) != 0
}

// RecordsAt injects the given faults (any ordered subset of a pool) and
// returns their records with absolute indices base+i — the stratified
// analogue of Records, bit-identical for every worker count.
func (cp *Campaign) RecordsAt(faults []Fault, base int, progress func(i int, r results.Record)) []results.Record {
	jobs := make([]campaign.Job, len(faults))
	for i := range jobs {
		jobs[i] = campaign.Job{Index: i}
	}
	var emit func(i int, rec results.Record)
	if progress != nil {
		emit = func(i int, rec results.Record) { progress(base+i, rec) }
	}
	// The static demanded-bits verdict is the soft layer's resolver:
	// when Static is on, provably-masked faults short-circuit before any
	// interpreter exists. When every fault in the batch resolves, no
	// arena is ever allocated.
	var resolve func(j campaign.Job) results.Record
	var resolveOK func(j campaign.Job) (results.Record, bool)
	if cp.Static && !cp.reference {
		resolve = func(j campaign.Job) results.Record {
			f := faults[j.Index]
			rec := record(f, inject.Masked)
			rec.StaticResolved = true
			rec.Index = base + j.Index
			return rec
		}
		resolveOK = func(j campaign.Job) (results.Record, bool) {
			if cp.StaticMasked(faults[j.Index]) {
				return resolve(j), true
			}
			return results.Record{}, false
		}
	}
	return campaign.RunResolved(jobs, cp.Workers, resolveOK,
		func() *ir.Interp {
			ip := ir.NewInterp(cp.M, Width, cp.MemSize)
			ip.EnableReset()
			return ip
		},
		func(ip *ir.Interp, j campaign.Job) results.Record {
			f := faults[j.Index]
			var rec results.Record
			if cp.deadDef(f) {
				rec = record(f, inject.Masked)
				rec.EarlyStop = true
			} else {
				ip.Reset()
				rec = record(f, cp.inject(ip, f))
			}
			rec.Index = base + j.Index
			return rec
		},
		emit)
}

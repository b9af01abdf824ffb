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

	"vulnstack/internal/campaign"
	"vulnstack/internal/ckpt"
	"vulnstack/internal/inject"
	"vulnstack/internal/ir"
	"vulnstack/internal/mem"
	"vulnstack/internal/results"
	"vulnstack/internal/static"
	"vulnstack/internal/tb"
)

// Width is the only word width LLFI-style injection supports (the
// paper notes LLFI cannot target 32-bit ISAs).
const Width = 64

// Engine is this injector's name in its checkpoint chains.
const Engine = "soft"

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

	// defSites maps each dynamic definition sequence number from the
	// golden run to its static instruction site (ir.Interp.DefSites).
	defSites []int32
	// irb is the interprocedural demanded-bits result over cp.M.
	irb *static.IRBits

	// reference selects the reference engine (see Prepare).
	reference bool
	// prog is the compiled module the fast path runs, and chain the
	// checkpoint chain along its golden run: the compiled state blob and
	// the RAM at definition counts GoldenDefs/nsnaps apart. Both are nil
	// on the reference engine, whose runs reset to image, a
	// just-constructed interpreter's memory.
	prog  *tb.Prog
	chain *ckpt.Chain
	image *mem.Memory
}

// Prepare runs the golden execution and, on the fast path, captures
// the checkpoint chain (the start state alone when nsnaps <= 1).
// reference selects the reference engine: no dead-definition filter, no
// static resolution, no chain, and every faulty run interpreted from
// _start instruction-by-instruction with the fault applied via the
// definition hook. The fast path compiles the module once (a module the
// compiler rejects is an error) and starts each faulty run at the
// nearest checkpoint at or below its definition number, ending it as
// Masked once it converges to golden at a later checkpoint. Outcomes
// are provably identical either way. The golden tracking run always
// uses the plain interpreter, which the def-use and site tracking
// requires; the tracking still runs on the reference engine, so
// stratified campaigns partition their pools identically on both.
func Prepare(m *ir.Module, memSize, nsnaps int, reference bool) (*Campaign, error) {
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
	cp := &Campaign{
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
	}
	if reference {
		cp.image = ir.NewInterp(m, Width, memSize).Mem
		return cp, nil
	}
	if err := cp.capture(nsnaps); err != nil {
		return nil, err
	}
	return cp, nil
}

// capture compiles the module and replays the golden run on the
// compiled engine, checkpointing it every GoldenDefs/nsnaps
// definitions (ckpt.Capture). The compiled run must end exactly as the
// interpreter's golden run did.
func (cp *Campaign) capture(nsnaps int) error {
	ip := ir.NewInterp(cp.M, Width, cp.MemSize)
	p, err := tb.CompileIR(cp.M, ip)
	if err != nil {
		return fmt.Errorf("llfi: %w", err)
	}
	ip.Mem.EnableTracking()
	m := &machine{ip: ip, mc: p.NewMachine(ip)}
	m.mc.MaxSteps = cp.Limit
	if err := m.mc.Start(); err != nil {
		return fmt.Errorf("llfi: compiled golden run: %w", err)
	}
	ch := ckpt.New(ckpt.Meta{Engine: Engine, RAMBytes: cp.MemSize})
	ckpt.Capture(ch, m, cp.GoldenDefs, nsnaps)
	if m.RunTo(tb.NoStop); m.err != nil || !ip.Exited || ip.ExitCode != cp.GoldenExit ||
		!bytes.Equal(ip.Out, cp.GoldenOut) || m.mc.Steps() != cp.GoldenSteps || m.mc.DefSeq() != cp.GoldenDefs {
		return fmt.Errorf("llfi: the compiled golden run differs from the interpreter's (err %v)", m.err)
	}
	cp.prog, cp.chain = p, ch
	return nil
}

// Chain exposes the fast path's checkpoint chain (read-only; nil on the
// reference engine).
func (cp *Campaign) Chain() *ckpt.Chain { return cp.chain }

// CkptFor returns the index of the checkpoint a fault at definition seq
// restores from: the one at or below seq (0 on the reference engine,
// which has no chain).
func (cp *Campaign) CkptFor(seq uint64) int {
	if cp.chain == nil {
		return 0
	}
	return cp.chain.Find(seq)
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

// StaticMasked reports whether f is provably Masked by the static
// demanded-bits analysis alone: either the fault targets a sequence
// number past the end of the dynamic definition stream (the definition
// never executes), or the flipped bit of the fault's static definition
// site is statically undemanded — no chain of uses can carry it into
// program output, the exit code, a branch, an address, or a syscall
// operand, so the injected run is observably identical to golden.
// It is the analysis verdict alone: Run and RecordsAt act on it on the
// fast engine only, and the reference engine runs every fault.
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

// Run classifies one fault as a campaign does, on a throwaway arena that
// is built only if the fault runs; campaigns reuse per-worker arenas in
// RecordsAt.
func (cp *Campaign) Run(f Fault) inject.Outcome {
	return cp.run(&worker{}, f, cp.CkptFor(f.Seq)).Outcome
}

// run classifies one fault. On the fast engine a fault needs no machine
// when the demanded-bits analysis proves it Masked (a record flagged
// StaticResolved) or when it targets a definition the golden run never
// read (the dead-definition filter: Masked, flagged EarlyStop). Every
// other fault, and every fault on the reference engine, runs on w's
// arena from checkpoint g.
func (cp *Campaign) run(w *worker, f Fault, g int) results.Record {
	if !cp.reference {
		if cp.StaticMasked(f) {
			rec := record(f, inject.Masked, false)
			rec.StaticResolved = true
			return rec
		}
		if !cp.UsedDef(f.Seq) {
			return record(f, inject.Masked, true)
		}
	}
	o, early := cp.inject(w, f, g)
	return record(f, o, early)
}

// machine is a compiled machine over an interpreter's memory and output
// as the checkpoint driver sees it: the golden capture machine and, on
// the fast path, every worker arena. Coordinates are definition counts;
// the watchdog is the compiled machine's MaxSteps.
type machine struct {
	ip     *ir.Interp
	mc     *tb.Machine
	golden []byte // the golden output, whose prefix a restore sets
	err    error  // the end of the last run: nil on a clean end
	cmp    []byte // the convergence test's encode scratch
}

func (m *machine) Coord() uint64       { return m.mc.DefSeq() }
func (m *machine) Probe() uint64       { return m.mc.Probe() }
func (m *machine) Memory() *mem.Memory { return m.ip.Mem }
func (m *machine) Aux() []byte         { return nil }

func (m *machine) RunTo(seq uint64) bool {
	paused, err := m.mc.Run(seq)
	m.err = err
	return !paused
}

func (m *machine) Encode(blob []byte, changed []int) ([]byte, []int) {
	blob = m.mc.AppendState(blob[:0])
	return blob, ckpt.AppendChunks(changed, 0, len(blob))
}

// Restore sets the frames, registers, steps and stack pointer from
// checkpoint g's blob and the output to golden's prefix, disarming the
// fault.
func (m *machine) Restore(cu *ckpt.Cursor, g int) error {
	return m.mc.SetState(cu.Blob(), cu.Chain().Coord(g), m.golden)
}

// Matches compares output, RAM and state blob. A run equal to golden
// there (frames, registers, steps, stack pointer, output and memory) is
// golden from then on, watchdog budget included.
func (m *machine) Matches(cu *ckpt.Cursor, j int) bool {
	ch, out := cu.Chain(), m.ip.Out
	if len(out) > len(m.golden) || !bytes.Equal(out, m.golden[:len(out)]) {
		return false
	}
	if !ch.RAMEqual(m.ip.Mem, cu.At(), j) {
		return false
	}
	m.cmp = m.mc.AppendState(m.cmp[:0])
	return ch.StateEqual(j, m.cmp)
}

// worker is the reusable per-worker arena: an interpreter whose memory
// tracks its dirty pages and, on the fast path, a compiled machine over
// it with the cursor that restores it, for every injection in place.
// The arena is built when a fault first needs it, so a worker whose
// faults all resolve without running builds none.
type worker struct {
	ip *ir.Interp   // nil until the worker's first injection
	m  *machine     // nil on the reference engine
	cu *ckpt.Cursor // nil on the reference engine
}

// arena builds w's arena unless it has one. Its memory is a
// just-constructed interpreter's, which is checkpoint 0's RAM (and the
// reference engine's image).
func (cp *Campaign) arena(w *worker) {
	if w.ip != nil {
		return
	}
	w.ip = ir.NewInterp(cp.M, Width, cp.MemSize)
	w.ip.Mem.EnableTracking()
	if cp.prog != nil {
		w.m = &machine{ip: w.ip, mc: cp.prog.NewMachine(w.ip), golden: cp.GoldenOut}
		w.cu = ckpt.NewCursor(cp.chain, w.m)
	}
}

// inject runs fault f on worker w through the active engine, building
// w's arena first if it has none. On the fast path it restores
// checkpoint g, the one at or below f.Seq, arms the flip and runs to the
// end, pausing at every later checkpoint to test for convergence.
// earlyStop reports a run ended by convergence.
func (cp *Campaign) inject(w *worker, f Fault, g int) (o inject.Outcome, earlyStop bool) {
	cp.arena(w)
	if w.m == nil {
		return cp.runReference(w.ip, f), false
	}
	w.cu.Restore(g)
	w.m.mc.MaxSteps = cp.Limit
	w.m.mc.SetFault(f.Seq, f.Bit)
	if _, converged := w.cu.Run(tb.NoStop); converged {
		return inject.Masked, true
	}
	return cp.outcome(w.ip, w.m.err), false
}

// runReference performs one injection on the reference engine: the
// interpreter reset to its start and run from _start, the fault applied
// by the definition hook.
func (cp *Campaign) runReference(ip *ir.Interp, f Fault) inject.Outcome {
	ip.Reset(cp.image)
	ip.MaxSteps = cp.Limit
	ip.Hook = func(seq uint64, in *ir.Instr, v int64) int64 {
		if seq == f.Seq {
			return v ^ int64(uint64(1)<<f.Bit)
		}
		return v
	}
	return cp.outcome(ip, ip.Run("_start"))
}

// outcome classifies an ended run from its error and the interpreter's
// exit and output state.
func (cp *Campaign) outcome(ip *ir.Interp, err error) inject.Outcome {
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
func record(f Fault, o inject.Outcome, earlyStop bool) results.Record {
	return results.Record{
		Layer:     results.LayerSoft,
		Coord:     f.Seq,
		Bit:       int(f.Bit),
		Outcome:   o,
		EarlyStop: earlyStop,
	}
}

// RunCampaign tallies n injections, fanned across cp.Workers goroutines
// (<= 0: all CPUs), bit-identical for every worker count. progress
// follows campaign.RecordsAt's contract and must not call back into the
// campaign.
func (cp *Campaign) RunCampaign(n int, seed int64, progress func(i int, r results.Record)) Tally {
	return results.TallyOf(cp.Records(n, 0, seed, progress))
}

// Records executes injections [from, n) of the n-fault sequence
// pre-drawn from seed and returns their records, indexed absolutely
// (campaign.Tail: the top-up resume primitive).
func (cp *Campaign) Records(n, from int, seed int64, progress func(i int, r results.Record)) []results.Record {
	faults, base := campaign.Tail(cp.Pool(n, seed), from)
	return cp.RecordsAt(faults, base, progress)
}

// Pool pre-draws the n-fault sequence from seed — exactly the faults
// Records would inject, exposed so stratified campaigns can partition
// the pool into equivalence classes and inject per-stratum subsets.
func (cp *Campaign) Pool(n int, seed int64) []Fault {
	return campaign.Pool(n, seed, cp.Sample)
}

// UsedDef reports whether the golden run ever read the value of dynamic
// definition seq — stratified campaigns use it as a stratification
// feature on both engines.
func (cp *Campaign) UsedDef(seq uint64) bool {
	w := int(seq >> 6)
	return w < len(cp.usedDefs) && cp.usedDefs[w]&(1<<(seq&63)) != 0
}

// RecordsAt injects the given faults (any ordered subset of a pool) and
// returns their records with absolute indices base+i
// (campaign.RecordsAt): the stratified analogue of Records.
func (cp *Campaign) RecordsAt(faults []Fault, base int, progress func(i int, r results.Record)) []results.Record {
	return campaign.RecordsAt(faults, base, cp.Workers,
		func(f Fault) int { return cp.CkptFor(f.Seq) },
		func() *worker { return &worker{} }, cp.run, progress)
}

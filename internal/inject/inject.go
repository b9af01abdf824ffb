// Package inject drives microarchitecture-level fault-injection
// campaigns (the GeFIN analogue): statistical single-bit-flip sampling
// per Leveugle et al., checkpoint-accelerated faulty runs, and outcome
// classification into the paper's fault-effect classes (Masked, SDC,
// Crash, Detected) plus the HVF fault-propagation models.
package inject

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"

	"vulnstack/internal/campaign"
	"vulnstack/internal/ckpt"
	"vulnstack/internal/dev"
	"vulnstack/internal/kernel"
	"vulnstack/internal/mem"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
)

// Outcome is the end-to-end fault effect class. It lives in the
// layer-agnostic results package; the aliases keep this package the
// canonical vocabulary for all three injectors.
type Outcome = results.Outcome

const (
	Masked      = results.Masked
	SDC         = results.SDC
	Crash       = results.Crash
	Detected    = results.Detected
	NumOutcomes = results.NumOutcomes
)

// Record is the layer-agnostic per-injection record all campaigns emit.
type Record = results.Record

// Tally is the record-stream aggregate shared by every layer.
type Tally = results.Tally

// Engine is this injector's name in persisted checkpoint chains.
const Engine = "micro"

// Fault is one sampled single-bit transient fault.
type Fault struct {
	Struct micro.Structure
	Entry  int
	Bit    int
	Cycle  uint64
}

// Result is the classified effect of one injection.
type Result struct {
	Fault   Fault
	Outcome Outcome
	// Visible reports architectural contact (the HVF numerator); FPM
	// classifies it.
	Visible bool
	FPM     micro.FPM
	// ContactCycle is when the fault first became visible.
	ContactCycle uint64
	// Live is false when the flip was provably dead at injection time.
	Live bool
	// EarlyStop reports the run was classified by golden-state
	// convergence at a checkpoint boundary, or from the lifetime table
	// (the golden run overwrites or discards the live flipped bit before
	// any read), instead of running to completion. Provenance only: the
	// outcome is provably identical.
	EarlyStop bool
}

// Record converts the result into the layer-agnostic record form
// (Index is the caller's position in the pre-drawn fault sequence).
func (r Result) Record() results.Record {
	return results.Record{
		Layer:     results.LayerMicro,
		Target:    r.Fault.Struct.String(),
		Coord:     r.Fault.Cycle,
		Entry:     r.Fault.Entry,
		Bit:       r.Fault.Bit,
		Outcome:   r.Outcome,
		Visible:   r.Visible,
		FPM:       r.FPM,
		Contact:   r.ContactCycle,
		Live:      r.Live,
		EarlyStop: r.EarlyStop,
	}
}

// Golden describes the fault-free reference run.
type Golden struct {
	Out      []byte
	ExitCode uint64
	Cycles   uint64
	Instret  uint64
	KInstr   uint64
}

// encodeGolden serializes the golden summary into a chain's Meta so a
// warm load learns the reference run without executing it. The fast
// path's Prepare appends the golden run's lifetime table to it
// (micro.Core.AppendLifetimes).
func encodeGolden(g Golden) []byte {
	return ckpt.AppendSummary(nil, g.Out, g.ExitCode, g.Cycles, g.Instret, g.KInstr)
}

// decodeGolden decodes a golden blob: the summary, then the lifetime
// table if any bytes follow it (nil otherwise). The table aliases b.
func decodeGolden(b []byte) (Golden, *micro.Lifetimes, error) {
	g, b, err := decodeSummary(b)
	if err != nil || len(b) == 0 {
		return g, nil, err
	}
	life, err := micro.DecodeLifetimes(b)
	return g, life, err
}

// decodeSummary decodes the golden summary at the head of a golden blob
// and returns the bytes after it.
func decodeSummary(b []byte) (Golden, []byte, error) {
	var g Golden
	var err error
	g.Out, b, err = ckpt.DecodeSummary(b, &g.ExitCode, &g.Cycles, &g.Instret, &g.KInstr)
	return g, b, err
}

// ChainGolden returns the golden-run summary a micro chain carries,
// without preparing a campaign: a caller that needs only the reference
// run's counts reads them from a persisted chain.
func ChainGolden(ch *ckpt.Chain) (Golden, error) {
	if ch.Meta.Engine != Engine {
		return Golden{}, fmt.Errorf("inject: chain engine %q, want %q", ch.Meta.Engine, Engine)
	}
	g, _, err := decodeSummary(ch.Meta.Golden)
	return g, err
}

// Campaign holds everything needed to run injections for one
// (program image, microarchitecture) pair.
type Campaign struct {
	Img    *kernel.Image
	Cfg    micro.Config
	Golden Golden

	// chain is the delta checkpoint chain along the golden run: boot
	// state plus content-changed RAM pages and machine-state chunks at
	// each boundary (internal/ckpt).
	chain *ckpt.Chain
	// Limit is the faulty-run watchdog in cycles.
	Limit uint64
	// Workers is the campaign fan-out; <= 0 selects runtime.NumCPU().
	// The tally is bit-identical for every worker count. Workers build
	// their arenas within the process-wide machines budget, so at most
	// NumCPU of them hold one at a time.
	Workers int
	// Resumed reports the campaign was prepared from a persisted chain:
	// zero golden-run instructions were executed by Prepare.
	Resumed bool

	// life is the golden run's lifetime table, which resolves the faults
	// it decides without a machine (see run). nil on the reference
	// engine, which never records or reads one.
	life *micro.Lifetimes
}

// Chain exposes the campaign's checkpoint chain (for persistence and
// display; read-only).
func (cp *Campaign) Chain() *ckpt.Chain { return cp.chain }

// goldenMaxCycles bounds Prepare's golden run.
const goldenMaxCycles = 1 << 28

// Prepare runs the golden execution (twice: once to learn its length
// and record its lifetime table, once to capture evenly spaced delta
// checkpoints) and returns a ready campaign. nsnaps <= 1 keeps only the
// boot checkpoint. cfg.Reference selects the reference engine for every
// run of the campaign: no decode memo, no lifetime table, and faulty
// runs execute to halt or Limit without convergence early-stop.
// Outcomes are provably identical either way.
func Prepare(img *kernel.Image, cfg micro.Config, nsnaps int) (*Campaign, error) {
	if cfg.ISA != img.ISA {
		return nil, fmt.Errorf("inject: config %s is %v but image is %v", cfg.Name, cfg.ISA, img.ISA)
	}
	// The golden and capture machines share one slot of the budget.
	acquireMachine()
	defer releaseMachine()
	core := micro.New(cfg, img.NewMemory(), img.Entry)
	if !cfg.Reference {
		core.RecordLifetimes()
	}
	if !core.Run(goldenMaxCycles) {
		return nil, fmt.Errorf("inject: golden run did not finish in %d cycles", goldenMaxCycles)
	}
	if core.Bus.Halt != dev.HaltClean {
		return nil, fmt.Errorf("inject: golden run ended %v (panic code %d)", core.Bus.Halt, core.Bus.PanicCode)
	}
	cp := &Campaign{
		Img: img,
		Cfg: cfg,
		Golden: Golden{
			Out:      append([]byte(nil), core.Bus.Out...),
			ExitCode: core.Bus.ExitCode,
			Cycles:   core.Cycle,
			Instret:  core.Instret,
			KInstr:   core.KInstr,
		},
	}
	cp.Limit = 3*cp.Golden.Cycles + 50000

	golden := encodeGolden(cp.Golden)
	if !cfg.Reference {
		n := len(golden)
		// The campaign's table aliases the persisted blob, so it is held
		// once; the clone drops append's spare capacity.
		golden = bytes.Clone(core.AppendLifetimes(golden))
		var err error
		if cp.life, err = micro.DecodeLifetimes(golden[n:]); err != nil {
			return nil, err
		}
	}
	cp.chain = ckpt.New(ckpt.Meta{
		Engine:   Engine,
		Config:   cfg.Name,
		RAMBytes: int(img.RAM.Size()),
		Golden:   golden,
	})
	// The capture machine tracks its dirty pages and encodes
	// incrementally: each checkpoint costs O(state changed since the
	// previous one).
	m2 := img.NewMemory()
	m2.EnableTracking()
	ckpt.Capture(cp.chain, machine{micro.New(cfg, m2, img.Entry)}, cp.Golden.Cycles, nsnaps)
	return cp, nil
}

// PrepareFromChain builds a campaign from a persisted checkpoint chain
// without executing a single golden-run instruction: the golden
// summary, lifetime table, watchdog limit and every restore point come
// from the chain. The caller is responsible for fingerprint-matching
// the chain to its campaign configuration; this validates engine, image
// geometry, the lifetime table's geometry (the fast path refuses a
// chain without one), every checkpoint's claimed state length and
// decodability of the boot checkpoint, returning an error (for a cold
// Prepare fallback) on any mismatch.
func PrepareFromChain(img *kernel.Image, cfg micro.Config, ch *ckpt.Chain) (*Campaign, error) {
	if cfg.ISA != img.ISA {
		return nil, fmt.Errorf("inject: config %s is %v but image is %v", cfg.Name, cfg.ISA, img.ISA)
	}
	if ch.Meta.Engine != Engine {
		return nil, fmt.Errorf("inject: chain engine %q, want %q", ch.Meta.Engine, Engine)
	}
	if ch.Meta.RAMBytes != int(img.RAM.Size()) {
		return nil, fmt.Errorf("inject: chain RAM %d bytes, image has %d", ch.Meta.RAMBytes, img.RAM.Size())
	}
	if ch.Len() == 0 {
		return nil, fmt.Errorf("inject: empty chain")
	}
	g, life, err := decodeGolden(ch.Meta.Golden)
	if err != nil {
		return nil, err
	}
	if cfg.Reference {
		life = nil
	} else if life == nil || !life.Fits(&cfg) {
		return nil, fmt.Errorf("inject: chain has no lifetime table for config %s", cfg.Name)
	}
	// A digest proves only that the bytes are the ones written: refuse a
	// claimed state length outside this geometry's layout before any
	// checkpoint is materialized. At a golden checkpoint the output
	// stream is a prefix of the golden output, and the debug console
	// holds at most one byte per committed instruction.
	lo, hi := micro.StateLenRange(cfg, img.RAM.Size(), uint64(len(g.Out))+g.Instret)
	for i := range ch.Len() {
		if n := uint64(ch.StateLen(i)); n < lo || n > hi {
			return nil, fmt.Errorf("inject: checkpoint %d claims a %d-byte state, outside [%d, %d] for config %s", i, n, lo, hi, cfg.Name)
		}
	}
	// Prove the chain restores on this geometry before committing.
	acquireMachine()
	defer releaseMachine()
	trial := micro.New(cfg, mem.New(img.RAM.Size()), img.Entry)
	if err := trial.DecodeState(ch.StateAt(0, nil, -1)); err != nil {
		return nil, fmt.Errorf("inject: chain boot state: %w", err)
	}
	cp := &Campaign{
		Img:     img,
		Cfg:     cfg,
		Golden:  g,
		chain:   ch,
		Resumed: true,
		life:    life,
	}
	cp.Limit = 3*cp.Golden.Cycles + 50000
	return cp, nil
}

// machines is the process-wide budget of micro machines, one slot per
// CPU. Prepare (its golden and capture runs share a slot),
// PrepareFromChain's trial restore and every RecordsAt worker arena hold
// a slot while their machine exists. A machine is large (an A72 arena is
// about 12 MB: caches, RAM and the materialized state blob of its
// restore point) and no more than NumCPU of them run at once, so a Lab
// that fills many campaigns concurrently keeps at most NumCPU alive
// instead of up to two per call in flight, and its peak memory no longer
// depends on how those calls happen to overlap. A slot holder never
// waits for another slot, so the budget cannot deadlock.
var machines = make(chan struct{}, runtime.NumCPU())

func acquireMachine() { machines <- struct{}{} }
func releaseMachine() { <-machines }

// machine is a micro core as the checkpoint driver sees it. Encode
// (EncodeStateDelta) runs only on Prepare's capture machine, never on a
// worker arena.
type machine struct{ *micro.Core }

func (m machine) Coord() uint64                            { return m.Cycle }
func (m machine) RunTo(c uint64) bool                      { return m.Run(c) }
func (m machine) Probe() uint64                            { return m.StateProbe() }
func (m machine) Memory() *mem.Memory                      { return m.Bus.Mem }
func (m machine) Aux() []byte                              { return nil }
func (m machine) Encode(b []byte, c []int) ([]byte, []int) { return m.EncodeStateDelta(b, c) }

// Restore decodes checkpoint g's state. A restored arena holds
// checkpoint cu.At()'s state except on the cache lines its last run
// touched, so it decodes only those and the lines of the changed chunks.
func (m machine) Restore(cu *ckpt.Cursor, g int) error {
	if cu.At() < 0 {
		return m.DecodeState(cu.Blob())
	}
	return m.DecodeStateDelta(cu.Blob(), cu.Changed(g))
}

// Matches compares the machine state, then RAM: the core's canonical
// encoding against checkpoint j's stored blob (bytes-equality ⟺
// micro.StateEqual) on the cache lines the faulty run touched since its
// restore plus the lines in the chain's content-changed state chunks
// since, and RAM on the union of the faulty run's dirty pages and the
// chain's content-changed pages. Every other line and page provably
// equals the restore checkpoint's copy in both runs.
func (m machine) Matches(cu *ckpt.Cursor, j int) bool {
	return m.stateMatches(cu, j) && cu.Chain().RAMEqual(m.Bus.Mem, cu.At(), j)
}

// stateMatches is Matches's machine-state half.
func (m machine) stateMatches(cu *ckpt.Cursor, j int) bool {
	ch := cu.Chain()
	return m.StateMatches(ch.StateLen(j),
		func(off int, b []byte) bool { return ch.StateRangeEqual(j, off, b) },
		func() []int { return cu.Changed(j) })
}

// worker is the reusable per-worker machine arena: one core restored in
// place by its cursor (dirty RAM pages, touched cache lines, and the
// chunks that changed between the previous and the new restore point)
// instead of deep-copied for every injection.
type worker struct {
	arena machine
	cu    *ckpt.Cursor
	// budgeted workers (RecordsAt's) take a machines slot when a fault
	// first needs their arena and hold it (holding) until Release.
	budgeted, holding bool
}

// Release drops the worker's arena and returns its machines slot.
// campaign.Run calls it when the worker runs out of jobs.
func (w *worker) Release() {
	if w.holding {
		w.arena, w.cu, w.holding = machine{}, nil, false
		releaseMachine()
	}
}

// coreFor readies the worker's arena at the given cycle, restoring
// from checkpoint g.
func (cp *Campaign) coreFor(w *worker, cycle uint64, g int) *micro.Core {
	if w.cu == nil {
		if w.budgeted {
			acquireMachine()
			w.holding = true
		}
		m := mem.New(cp.Img.RAM.Size())
		m.EnableTracking()
		w.arena = machine{micro.New(cp.Cfg, m, cp.Img.Entry)}
		w.cu = ckpt.NewCursor(cp.chain, w.arena)
	}
	w.cu.Restore(g)
	w.arena.Run(cycle)
	return w.arena.Core
}

// Sample draws a fault uniformly over (entry, bit, cycle), following
// the statistical fault sampling of the paper's reference [21].
func (cp *Campaign) Sample(r *rand.Rand, s micro.Structure) Fault {
	entries, bitsPer := cp.Cfg.StructDims(s)
	// A degenerate golden run (<= 2 cycles) leaves no interior cycle to
	// sample; clamp the span so Int63n is never called with n <= 0. The
	// draw still happens, keeping the sequence aligned with longer runs.
	span := int64(cp.Golden.Cycles) - 1
	if span < 1 {
		span = 1
	}
	return Fault{
		Struct: s,
		Entry:  r.Intn(entries),
		Bit:    r.Intn(bitsPer),
		Cycle:  1 + uint64(r.Int63n(span)),
	}
}

// Run performs one injection and classifies its effect, building a
// throwaway arena outside the machines budget; campaigns use the
// pooled worker path in RunCampaign.
func (cp *Campaign) Run(f Fault) Result {
	return cp.run(&worker{}, f, cp.chain.Find(f.Cycle))
}

// run classifies one fault. A fault the lifetime table decides needs no
// machine: a dead entry gives the record a restored injection would
// (Masked, not live), and a live bit the golden run overwrites or
// discards before any read gives the record of a run that re-equals
// golden at the overwrite (Masked, no contact), flagged EarlyStop.
// Every other fault restores w's arena from checkpoint g and runs.
func (cp *Campaign) run(w *worker, f Fault, g int) Result {
	if cp.life != nil && f.Cycle < cp.Golden.Cycles {
		switch cp.life.Fate(f.Struct, f.Entry, f.Bit, f.Cycle) {
		case micro.FateDead:
			return Result{Fault: f, Outcome: Masked}
		case micro.FateMasked:
			return Result{Fault: f, Outcome: Masked, Live: true, EarlyStop: true}
		}
	}
	return cp.classify(cp.coreFor(w, f.Cycle, g), f, w)
}

// classify injects f into w's arena, already advanced to f.Cycle, runs
// it to halt, the watchdog limit or provable golden convergence (the
// fast path only), and classifies the effect.
func (cp *Campaign) classify(core *micro.Core, f Fault, w *worker) Result {
	if core.Bus.Halted() {
		// Injection cycle raced with the halt: nothing to corrupt.
		return Result{Fault: f, Outcome: Masked}
	}
	info := core.Inject(f.Struct, f.Entry, f.Bit)
	res := Result{Fault: f, Live: info.Live}
	if !info.Live {
		res.Outcome = Masked
		return res
	}
	var halted, converged bool
	if cp.Cfg.Reference {
		halted = core.Run(cp.Limit)
	} else {
		halted, converged = w.cu.Run(cp.Limit)
	}
	switch {
	case converged:
		// Bit-equal to golden at the same cycle boundary: the remaining
		// execution is exactly the golden run's (Step is a deterministic
		// function of compared state), so the outcome is golden's —
		// clean exit, golden output: Masked.
		res.Outcome = Masked
		res.EarlyStop = true
	case !halted:
		res.Outcome = Crash // deadlock / livelock
	case core.Bus.Halt == dev.HaltPanic:
		res.Outcome = Crash
	case core.Bus.Halt == dev.HaltDetected:
		res.Outcome = Detected
	default:
		if core.Bus.ExitCode == cp.Golden.ExitCode && bytes.Equal(core.Bus.Out, cp.Golden.Out) {
			res.Outcome = Masked
		} else {
			res.Outcome = SDC
		}
	}
	res.Visible = core.Taint.Contacted()
	res.FPM = core.Taint.Class()
	res.ContactCycle = core.Taint.ContactCycle()
	return res
}

// RunCampaign tallies n sampled injections into structure s, fanned
// across cp.Workers goroutines (<= 0: all CPUs), bit-identical for
// every worker count. progress follows campaign.RecordsAt's contract
// and must not call back into the campaign.
func (cp *Campaign) RunCampaign(s micro.Structure, n int, seed int64, progress func(i int, r Record)) Tally {
	return results.TallyOf(cp.Records(s, n, 0, seed, progress))
}

// Records executes injections [from, n) of the n-fault sequence
// pre-drawn from seed and returns their records, indexed absolutely
// (campaign.Tail: the top-up resume primitive).
func (cp *Campaign) Records(s micro.Structure, n, from int, seed int64, progress func(i int, r Record)) []Record {
	faults, base := campaign.Tail(cp.Pool(s, n, seed), from)
	return cp.RecordsAt(faults, base, progress)
}

// Pool pre-draws the n-fault sequence for structure s from seed —
// exactly the faults Records would inject, exposed so stratified
// campaigns can partition the pool into equivalence classes and inject
// per-stratum subsets of it.
func (cp *Campaign) Pool(s micro.Structure, n int, seed int64) []Fault {
	return campaign.Pool(n, seed, func(r *rand.Rand) Fault { return cp.Sample(r, s) })
}

// RecordsAt injects the given faults (any ordered subset of a pool) and
// returns their records with absolute indices base+i
// (campaign.RecordsAt): the stratified analogue of Records.
func (cp *Campaign) RecordsAt(faults []Fault, base int, progress func(i int, r Record)) []Record {
	return campaign.RecordsAt(faults, base, cp.Workers,
		func(f Fault) int { return cp.CkptFor(f.Cycle) },
		func() *worker { return &worker{budgeted: true} },
		func(w *worker, f Fault, g int) Record { return cp.run(w, f, g).Record() },
		progress)
}

// CkptFor returns the index of the checkpoint governing an injection
// cycle (the restore source a faulty run starts from) — the program
// point stratified sampling keys static features on.
func (cp *Campaign) CkptFor(cycle uint64) int { return cp.chain.Find(cycle) }

// CheckpointPCs returns the fetch PC of every checkpoint's restore
// state, materialized by one incremental delta-walk of the chain. A
// checkpoint whose blob predates the PC field reports 0 (its sites land
// in one harmless stratum).
func (cp *Campaign) CheckpointPCs() []uint64 {
	pcs := make([]uint64, cp.chain.Len())
	var buf []byte
	for i := range pcs {
		buf = cp.chain.StateAt(i, buf, i-1)
		pcs[i], _ = micro.StatePC(buf)
	}
	return pcs
}

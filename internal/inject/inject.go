// Package inject drives microarchitecture-level fault-injection
// campaigns (the GeFIN analogue): statistical single-bit-flip sampling
// per Leveugle et al., checkpoint-accelerated faulty runs, and outcome
// classification into the paper's fault-effect classes (Masked, SDC,
// Crash, Detected) plus the HVF fault-propagation models.
package inject

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

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
	// convergence at a checkpoint boundary instead of running to
	// completion. Provenance only: the outcome is provably identical.
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
// warm load learns the reference run without executing it.
func encodeGolden(g Golden) []byte {
	b := binary.AppendUvarint(nil, uint64(len(g.Out)))
	b = append(b, g.Out...)
	b = binary.AppendUvarint(b, g.ExitCode)
	b = binary.AppendUvarint(b, g.Cycles)
	b = binary.AppendUvarint(b, g.Instret)
	return binary.AppendUvarint(b, g.KInstr)
}

func decodeGolden(b []byte) (Golden, error) {
	var g Golden
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < n {
		return g, fmt.Errorf("inject: truncated golden summary")
	}
	g.Out = append([]byte(nil), b[k:k+int(n)]...)
	b = b[k+int(n):]
	for _, dst := range []*uint64{&g.ExitCode, &g.Cycles, &g.Instret, &g.KInstr} {
		v, k := binary.Uvarint(b)
		if k <= 0 {
			return g, fmt.Errorf("inject: truncated golden summary")
		}
		*dst = v
		b = b[k:]
	}
	return g, nil
}

// Campaign holds everything needed to run injections for one
// (program image, microarchitecture) pair.
type Campaign struct {
	Img    *kernel.Image
	Cfg    micro.Config
	Golden Golden

	// chain is the delta checkpoint chain along the golden run: boot
	// state plus content-changed RAM pages and machine-state chunks at
	// each boundary (internal/ckpt). It replaces the old full-snapshot
	// array, so checkpoint count is no longer bounded by
	// O(snapshots × RAM) memory.
	chain *ckpt.Chain
	// Limit is the faulty-run watchdog in cycles.
	Limit uint64
	// Workers is the campaign fan-out; <= 0 selects runtime.NumCPU().
	// The tally is bit-identical for every worker count.
	Workers int
	// Resumed reports the campaign was prepared from a persisted chain:
	// zero golden-run instructions were executed by Prepare.
	Resumed bool
}

// Chain exposes the campaign's checkpoint chain (for persistence and
// display; read-only).
func (cp *Campaign) Chain() *ckpt.Chain { return cp.chain }

// goldenMaxCycles bounds Prepare's golden run.
const goldenMaxCycles = 1 << 28

// Prepare runs the golden execution (twice: once to learn its length,
// once to capture evenly spaced delta checkpoints) and returns a ready
// campaign. nsnaps <= 1 keeps only the boot checkpoint. cfg.Reference
// selects the reference engine for every run of the campaign: no decode
// memo, and faulty runs execute to halt or Limit without convergence
// early-stop. Outcomes are provably identical either way.
func Prepare(img *kernel.Image, cfg micro.Config, nsnaps int) (*Campaign, error) {
	if cfg.ISA != img.ISA {
		return nil, fmt.Errorf("inject: config %s is %v but image is %v", cfg.Name, cfg.ISA, img.ISA)
	}
	core := micro.New(cfg, img.NewMemory(), img.Entry)
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

	cp.chain = ckpt.New(ckpt.Meta{
		Engine:   Engine,
		Config:   cfg.Name,
		RAMBytes: int(img.RAM.Size()),
		Golden:   encodeGolden(cp.Golden),
	})
	c2 := micro.New(cfg, img.NewMemory(), img.Entry)
	var sbuf []byte
	capture := func() {
		if n := cp.chain.Len(); n > 0 && c2.Cycle <= cp.chain.Coord(n-1) {
			return
		}
		sbuf = c2.EncodeState(sbuf[:0])
		cp.chain.Add(c2.Cycle, c2.StateProbe(), c2.Bus.Mem.Bytes(), sbuf, nil)
	}
	if nsnaps > 1 {
		step := cp.Golden.Cycles / uint64(nsnaps)
		if step == 0 {
			step = 1
		}
		for next := uint64(0); next < cp.Golden.Cycles; next += step {
			for c2.Cycle < next {
				if !c2.Step() {
					break
				}
			}
			capture()
			if c2.Bus.Halted() {
				break
			}
		}
	} else {
		// Even without interior checkpoints, keep the boot state so
		// worker arenas always have a restore source.
		capture()
	}
	cp.chain.Finish()
	return cp, nil
}

// PrepareFromChain builds a campaign from a persisted checkpoint chain
// without executing a single golden-run instruction: the golden
// summary, watchdog limit and every restore point come from the chain.
// The caller is responsible for fingerprint-matching the chain to its
// campaign configuration; this validates engine, image geometry and
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
	g, err := decodeGolden(ch.Meta.Golden)
	if err != nil {
		return nil, err
	}
	// Prove the chain restores on this geometry before committing.
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
	}
	cp.Limit = 3*cp.Golden.Cycles + 50000
	return cp, nil
}

// worker is the reusable per-worker machine arena: one core restored in
// place by delta-walking the chain (dirty RAM pages, touched cache
// lines, and the chunks that changed between the previous and the new
// restore point) instead of deep-copied for every injection.
type worker struct {
	arena *micro.Core
	src   int // checkpoint index the arena was last restored from
	// stateBuf holds the materialized machine-state blob of checkpoint
	// src; chunks is state-chunk list scratch.
	stateBuf []byte
	chunks   []int
}

// coreFor readies the worker's arena at the given cycle, restoring from
// checkpoint g.
func (cp *Campaign) coreFor(w *worker, cycle uint64, g int) *micro.Core {
	if w.arena == nil {
		m := mem.New(cp.Img.RAM.Size())
		m.EnableTracking()
		w.arena = micro.New(cp.Cfg, m, cp.Img.Entry)
		w.src = -1
	}
	w.stateBuf = cp.chain.StateAt(g, w.stateBuf, w.src)
	var err error
	if w.src < 0 {
		err = w.arena.DecodeState(w.stateBuf)
	} else {
		// The arena holds checkpoint src's state except on the cache
		// lines its last run touched.
		w.chunks = cp.chain.StateChunks(w.src, g, w.chunks[:0])
		err = w.arena.DecodeStateDelta(w.stateBuf, w.chunks)
	}
	if err != nil {
		// Unreachable for a chain that passed Prepare/PrepareFromChain
		// validation: every checkpoint was encoded by the same codec on
		// the same geometry.
		panic(fmt.Sprintf("inject: checkpoint %d restore: %v", g, err))
	}
	cp.chain.RestoreRAM(w.arena.Bus.Mem, w.src, g)
	w.src = g
	core := w.arena
	for core.Cycle < cycle {
		if !core.Step() {
			break
		}
	}
	return core
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
// throwaway arena; campaigns use the pooled worker path in RunCampaign.
func (cp *Campaign) Run(f Fault) Result {
	w := &worker{src: -1}
	g := cp.chain.Find(f.Cycle)
	return cp.classify(cp.coreFor(w, f.Cycle, g), f, g, w)
}

// classify injects f into a machine already advanced to f.Cycle
// (restored from checkpoint g), runs it to halt, the watchdog limit or
// provable golden convergence, and classifies the effect.
func (cp *Campaign) classify(core *micro.Core, f Fault, g int, w *worker) Result {
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
	halted, converged := cp.runFaulty(core, g, w)
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

// runFaulty executes the faulty machine, pausing at every golden
// checkpoint boundary past g to test for convergence. It returns halted
// (the machine reached a halt port) and converged (the run was cut
// short because its full state re-equaled golden's at a boundary).
func (cp *Campaign) runFaulty(core *micro.Core, g int, w *worker) (halted, converged bool) {
	if cp.Cfg.Reference || !core.Bus.Mem.Tracking() {
		return core.Run(cp.Limit), false
	}
	for j := g + 1; j < cp.chain.Len(); j++ {
		for core.Cycle < cp.chain.Coord(j) {
			if !core.Step() {
				return true, false
			}
		}
		if cp.converged(core, g, j, w) {
			return false, true
		}
	}
	return core.Run(cp.Limit), false
}

// converged reports whether the faulty core, now at the cycle of
// checkpoint j, is bit-identical to the golden run. The scalar probe
// gates the test. On a match the core's canonical encoding is compared
// against checkpoint j's stored blob (bytes-equality ⟺
// micro.StateEqual) on the cache lines the faulty run touched since its
// restore from checkpoint g plus the lines in the chain's
// content-changed state chunks in (g, j], and RAM on the union of the
// faulty run's dirty pages and the chain's content-changed pages in
// (g, j]. Every other line and page provably equals checkpoint g's copy
// in both runs.
func (cp *Campaign) converged(core *micro.Core, g, j int, w *worker) bool {
	if core.Cycle != cp.chain.Coord(j) || core.StateProbe() != cp.chain.Probe(j) {
		return false
	}
	return cp.stateConverged(core, g, j, w) && cp.chain.RAMEqual(core.Bus.Mem, g, j)
}

// stateConverged is converged's machine-state half, without the probe.
func (cp *Campaign) stateConverged(core *micro.Core, g, j int, w *worker) bool {
	return core.StateMatches(cp.chain.StateLen(j),
		func(off int, b []byte) bool { return cp.chain.StateRangeEqual(j, off, b) },
		func() []int {
			w.chunks = cp.chain.StateChunks(g, j, w.chunks[:0])
			return w.chunks
		})
}

// RunCampaign performs n sampled injections into structure s, fanned
// across cp.Workers goroutines (<= 0: all CPUs). The fault sequence is
// pre-drawn from the seed exactly as the serial loop drew it, so the
// tally is bit-identical for every worker count. progress, when
// non-nil, is called exactly once per injection, serialized and in
// injection-index order (the thread-safe callback contract shared by
// all three layers); it must not call back into the campaign.
func (cp *Campaign) RunCampaign(s micro.Structure, n int, seed int64, progress func(i int, r Record)) Tally {
	return results.TallyOf(cp.Records(s, n, 0, seed, progress))
}

// Records executes injections [from, n) of the n-fault sequence
// pre-drawn from seed and returns their records, indexed absolutely.
// Because the sequence is drawn deterministically from the seed,
// records for [0, from) produced by an earlier (shorter) campaign with
// the same key concatenate with this slice into exactly the record set
// a one-shot n-injection campaign yields — the top-up resume primitive
// the persistent store builds on.
func (cp *Campaign) Records(s micro.Structure, n, from int, seed int64, progress func(i int, r Record)) []Record {
	faults := cp.Pool(s, n, seed)
	if from < 0 {
		from = 0
	}
	if from >= n {
		return nil
	}
	return cp.RecordsAt(faults[from:], from, progress)
}

// Pool pre-draws the n-fault sequence for structure s from seed —
// exactly the faults Records would inject, exposed so stratified
// campaigns can partition the pool into equivalence classes and inject
// per-stratum subsets of it.
func (cp *Campaign) Pool(s micro.Structure, n int, seed int64) []Fault {
	r := rand.New(rand.NewSource(seed))
	faults := make([]Fault, n)
	for i := range faults {
		faults[i] = cp.Sample(r, s)
	}
	return faults
}

// RecordsAt injects the given faults (any ordered subset of a pool) and
// returns their records with absolute indices base+i — the stratified
// analogue of Records, whose record stream is a pure function of the
// fault slice: bit-identical for every worker count.
func (cp *Campaign) RecordsAt(faults []Fault, base int, progress func(i int, r Record)) []Record {
	jobs := make([]campaign.Job, len(faults))
	for i := range jobs {
		jobs[i] = campaign.Job{Index: i, Group: cp.chain.Find(faults[i].Cycle)}
	}
	var emit func(i int, rec Record)
	if progress != nil {
		emit = func(i int, rec Record) { progress(base+i, rec) }
	}
	return campaign.Run(jobs, cp.Workers,
		func() *worker { return &worker{src: -1} },
		func(w *worker, j campaign.Job) Record {
			f := faults[j.Index]
			rec := cp.classify(cp.coreFor(w, f.Cycle, j.Group), f, j.Group, w).Record()
			rec.Index = base + j.Index
			return rec
		},
		emit)
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

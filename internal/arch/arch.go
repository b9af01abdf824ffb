// Package arch implements architecture-level (PVF) fault injection on
// the functional emulator. Faults originate in architecturally visible
// resources of the dynamic program flow — register operands, loaded
// memory words, and instruction words — and, unlike software-level
// (SVF) injection, the flow includes the kernel instructions executed
// on the program's behalf. Following the paper, injections are
// performed per fault-propagation model: WD (operand data), WOI
// (operand/immediate encoding fields) and WI (operation encoding
// fields).
package arch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"

	"vulnstack/internal/campaign"
	"vulnstack/internal/ckpt"
	"vulnstack/internal/dev"
	"vulnstack/internal/emu"
	"vulnstack/internal/inject"
	"vulnstack/internal/isa"
	"vulnstack/internal/kernel"
	"vulnstack/internal/mem"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
	"vulnstack/internal/tb"
)

// Engine is this injector's name in persisted checkpoint chains.
const Engine = "arch"

// Campaign prepares PVF injections for one image.
type Campaign struct {
	Img *kernel.Image

	GoldenOut  []byte
	GoldenExit uint64
	// GoldenInstr is the dynamic instruction count (user + kernel).
	GoldenInstr uint64
	KInstr      uint64

	// chain is the delta checkpoint chain along the golden run
	// (internal/ckpt): architectural state + device state blobs plus
	// content-changed RAM pages at each instruction boundary. It
	// replaces the old full-snapshot arrays (snaps/snapMem/snapBus), so
	// checkpoint count is no longer bounded by O(snapshots × RAM).
	chain *ckpt.Chain
	Limit uint64
	// Workers is the campaign fan-out; <= 0 selects runtime.NumCPU().
	// The tally is bit-identical for every worker count.
	Workers int
	// reference selects the reference engine (see Prepare):
	// step-by-step execution and no convergence early-stop.
	reference bool
	// TBParanoid, when non-nil, runs translation-block workers in
	// paranoid validation mode: every predecoded op's instruction word
	// is refetched and compared before executing (counted here), and a
	// stale op panics. Test instrumentation only.
	TBParanoid *atomic.Uint64
	// Resumed reports the campaign was prepared from a persisted chain:
	// zero golden-run instructions were executed by Prepare.
	Resumed bool
}

// Chain exposes the campaign's checkpoint chain (for persistence and
// display; read-only).
func (cp *Campaign) Chain() *ckpt.Chain { return cp.chain }

// archFixedLen is the fixed prefix of the canonical architectural state
// blob: Regs, PC, CSR, Instret, then one Mode byte. The device-state
// section (dev.AppendDevice) trails it. KInstr is deliberately excluded
// — it is reporting state no instruction ever reads, and the old
// convergence test excluded it — and rides in the checkpoint aux
// sidecar instead so restores still reinstate it.
const archFixedLen = 32*8 + 8 + isa.NumCSRs*8 + 8 + 1

// appendArchState encodes the canonical architectural + device state.
// Bytes-equality of two encodings ⟺ the old field-wise convergence
// comparison (Regs/PC/CSR/Mode/Instret and Bus.StateEqual).
func appendArchState(dst []byte, s emu.Snapshot, bus *dev.Bus) []byte {
	var fixed [archFixedLen]byte
	o := 0
	for _, r := range s.Regs {
		binary.LittleEndian.PutUint64(fixed[o:], r)
		o += 8
	}
	binary.LittleEndian.PutUint64(fixed[o:], s.PC)
	o += 8
	for _, v := range s.CSR {
		binary.LittleEndian.PutUint64(fixed[o:], v)
		o += 8
	}
	binary.LittleEndian.PutUint64(fixed[o:], s.Instret)
	o += 8
	fixed[o] = byte(s.Mode)
	return bus.AppendDevice(append(dst, fixed[:]...))
}

// decodeArchState recovers the architectural fields from a state blob,
// ignoring the trailing device section (faulty runs start from a reset
// bus, not golden's device state). KInstr is left zero for the caller
// to fill from the aux sidecar.
func decodeArchState(b []byte) (emu.Snapshot, error) {
	var s emu.Snapshot
	if len(b) < archFixedLen {
		return s, fmt.Errorf("arch: state blob %d bytes, want >= %d", len(b), archFixedLen)
	}
	o := 0
	for i := range s.Regs {
		s.Regs[i] = binary.LittleEndian.Uint64(b[o:])
		o += 8
	}
	s.PC = binary.LittleEndian.Uint64(b[o:])
	o += 8
	for i := range s.CSR {
		s.CSR[i] = binary.LittleEndian.Uint64(b[o:])
		o += 8
	}
	s.Instret = binary.LittleEndian.Uint64(b[o:])
	o += 8
	s.Mode = isa.Mode(b[o])
	return s, nil
}

// archProbe folds the scalar architectural state into a cheap gate for
// the convergence test; mismatched probes skip the full encode+compare.
func archProbe(s emu.Snapshot) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) { h ^= v; h *= 1099511628211 }
	mix(s.Instret)
	mix(s.PC)
	mix(uint64(s.Mode))
	for _, r := range s.Regs {
		mix(r)
	}
	for _, v := range s.CSR {
		mix(v)
	}
	return h
}

func kinstrAux(k uint64) []byte { return binary.AppendUvarint(nil, k) }

func kinstrFromAux(aux []byte) uint64 {
	v, _ := binary.Uvarint(aux)
	return v
}

// encodeGolden serializes the golden summary into a chain's Meta so a
// warm load learns the reference run without executing it.
func encodeGolden(cp *Campaign) []byte {
	b := binary.AppendUvarint(nil, uint64(len(cp.GoldenOut)))
	b = append(b, cp.GoldenOut...)
	b = binary.AppendUvarint(b, cp.GoldenExit)
	b = binary.AppendUvarint(b, cp.GoldenInstr)
	return binary.AppendUvarint(b, cp.KInstr)
}

func decodeGolden(b []byte, cp *Campaign) error {
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < n {
		return fmt.Errorf("arch: truncated golden summary")
	}
	cp.GoldenOut = append([]byte(nil), b[k:k+int(n)]...)
	b = b[k+int(n):]
	for _, dst := range []*uint64{&cp.GoldenExit, &cp.GoldenInstr, &cp.KInstr} {
		v, k := binary.Uvarint(b)
		if k <= 0 {
			return fmt.Errorf("arch: truncated golden summary")
		}
		*dst = v
		b = b[k:]
	}
	return nil
}

// Prepare runs the golden execution and captures the delta checkpoint
// chain (boot state only when nsnaps <= 1). reference selects the
// reference engine for the golden run and every faulty run:
// instruction-at-a-time stepping instead of the translation-block
// engine (internal/tb), and faulty runs execute to halt or Limit
// without convergence early-stop. Outcomes are provably identical
// either way. The golden run goes through the campaign's own engine, so
// an engine bug could never corrupt both sides of the fast-vs-reference
// equivalence gate.
func Prepare(img *kernel.Image, nsnaps int, reference bool) (*Campaign, error) {
	run := func(c *emu.CPU) func(uint64) bool {
		if reference {
			return c.Run
		}
		return tb.New(c).Run
	}
	bus := dev.NewBus(img.NewMemory())
	c := emu.New(img.ISA, bus, img.Entry)
	if !run(c)(1 << 30) {
		return nil, fmt.Errorf("arch: golden run did not finish")
	}
	if bus.Halt != dev.HaltClean {
		return nil, fmt.Errorf("arch: golden run ended %v", bus.Halt)
	}
	cp := &Campaign{
		Img:         img,
		GoldenOut:   append([]byte(nil), bus.Out...),
		GoldenExit:  bus.ExitCode,
		GoldenInstr: c.Instret,
		KInstr:      c.KernelInstret,
		reference:   reference,
	}
	cp.Limit = 3*cp.GoldenInstr + 100000

	cp.chain = ckpt.New(ckpt.Meta{
		Engine:   Engine,
		RAMBytes: int(img.RAM.Size()),
		Golden:   encodeGolden(cp),
	})
	if nsnaps > 1 {
		step := cp.GoldenInstr / uint64(nsnaps)
		if step == 0 {
			step = 1
		}
		// The capture machine tracks its dirty pages, so each checkpoint
		// compares only the RAM the interval wrote. The state blob is
		// small (one chunk) and re-encoded whole.
		m2 := img.NewMemory()
		m2.EnableTracking()
		bus2 := dev.NewBus(m2)
		c2 := emu.New(img.ISA, bus2, img.Entry)
		run2 := run(c2)
		var sbuf []byte
		var pages, chunks []int
		for next := uint64(0); next < cp.GoldenInstr; next += step {
			run2(next)
			if n := cp.chain.Len(); n > 0 && c2.Instret <= cp.chain.Coord(n-1) {
				continue
			}
			s := c2.Save()
			sbuf = appendArchState(sbuf[:0], s, bus2)
			pages = m2.TakeDirtyPages(pages[:0])
			chunks = ckpt.AppendChunks(chunks[:0], 0, len(sbuf))
			cp.chain.Add(c2.Instret, archProbe(s), m2.Bytes(), pages, sbuf, chunks, kinstrAux(s.KInstr))
		}
	} else {
		// Keep one boot-state checkpoint so worker arenas always have a
		// restore source.
		boot := emu.Snapshot{PC: img.Entry, Mode: isa.Kernel}
		blob := appendArchState(nil, boot, &dev.Bus{})
		cp.chain.Add(0, archProbe(boot), img.RAM.Bytes(), nil, blob, nil, kinstrAux(0))
	}
	return cp, nil
}

// PrepareFromChain builds a campaign from a persisted checkpoint chain
// without executing a single golden-run instruction. The caller is
// responsible for fingerprint-matching the chain to its campaign
// configuration; this validates engine, image geometry, every
// checkpoint's claimed state length and decodability of the boot
// checkpoint, returning an error (for a cold Prepare fallback) on any
// mismatch. The campaign runs the fast path:
// the reference engine never resumes from a persisted chain.
func PrepareFromChain(img *kernel.Image, ch *ckpt.Chain) (*Campaign, error) {
	if ch.Meta.Engine != Engine {
		return nil, fmt.Errorf("arch: chain engine %q, want %q", ch.Meta.Engine, Engine)
	}
	if ch.Meta.RAMBytes != int(img.RAM.Size()) {
		return nil, fmt.Errorf("arch: chain RAM %d bytes, image has %d", ch.Meta.RAMBytes, img.RAM.Size())
	}
	if ch.Len() == 0 {
		return nil, fmt.Errorf("arch: empty chain")
	}
	cp := &Campaign{Img: img, chain: ch, Resumed: true}
	if err := decodeGolden(ch.Meta.Golden, cp); err != nil {
		return nil, err
	}
	// A digest proves only that the bytes are the ones written: refuse a
	// claimed state length outside the codec's layout before any
	// checkpoint is materialized. At a golden checkpoint the output
	// stream is a prefix of the golden output, and the debug console
	// holds at most one byte per executed instruction.
	lo, hi := dev.DeviceLenRange(uint64(len(cp.GoldenOut)) + cp.GoldenInstr)
	for i := range ch.Len() {
		if n := uint64(ch.StateLen(i)); n < archFixedLen+lo || n-archFixedLen > hi {
			return nil, fmt.Errorf("arch: checkpoint %d claims a %d-byte state, whose device section is not %d to %d bytes", i, n, lo, hi)
		}
	}
	if _, err := decodeArchState(ch.StateAt(0, nil, -1)); err != nil {
		return nil, err
	}
	cp.Limit = 3*cp.GoldenInstr + 100000
	return cp, nil
}

// worker is the reusable per-worker arena: an emulator, bus and RAM
// image restored in place for every injection by delta-walking the
// chain between restore points, keeping the hot loop allocation-free.
type worker struct {
	cpu *emu.CPU
	bus *dev.Bus
	m   *mem.Memory
	eng *tb.Engine // nil when the campaign runs step-by-step (reference)
	src int        // checkpoint index the arena was last restored from
	// stateBuf holds the materialized state blob of checkpoint src;
	// cmpBuf is the convergence-test encode scratch.
	stateBuf []byte
	cmpBuf   []byte
}

// cpuFor readies the worker's arena at dynamic instruction k, restoring
// from checkpoint g. The bus is reset (not restored): faulty runs
// accumulate device output from empty, exactly as before the chain
// refactor, and the convergence test accounts for it.
func (cp *Campaign) cpuFor(w *worker, k uint64, g int) (*emu.CPU, *dev.Bus) {
	if w.m == nil {
		w.m = mem.New(cp.Img.RAM.Size())
		w.m.EnableTracking()
		w.bus = dev.NewBus(w.m)
		w.cpu = emu.New(cp.Img.ISA, w.bus, cp.Img.Entry)
		if !cp.reference {
			w.eng = tb.New(w.cpu)
			w.eng.Paranoid = cp.TBParanoid
		}
		w.src = -1
	} else {
		w.bus.Reset()
	}
	w.stateBuf = cp.chain.StateAt(g, w.stateBuf, w.src)
	s, err := decodeArchState(w.stateBuf)
	if err != nil {
		// Unreachable for a chain that passed Prepare/PrepareFromChain
		// validation: every checkpoint was encoded by this codec.
		panic(fmt.Sprintf("arch: checkpoint %d restore: %v", g, err))
	}
	s.KInstr = kinstrFromAux(cp.chain.Aux(g))
	cp.chain.RestoreRAM(w.m, w.src, g)
	w.src = g
	w.cpu.Restore(s)
	// Advance to the fault instant — an exact committed-instruction
	// boundary either way.
	if w.eng != nil {
		w.eng.Run(k)
	} else {
		for w.cpu.Instret < k {
			if !w.cpu.Step() {
				break
			}
		}
	}
	return w.cpu, w.bus
}

// Fault is one architecture-level injection.
type Fault struct {
	FPM micro.FPM // WD, WOI, WI, or FPMNone for register-uniform
	K   uint64    // dynamic instruction index
	Bit int
	// Slot selects among an instruction's operand locations for WD, and
	// is the flipped register for a register-uniform fault.
	Slot int
}

// Sample draws a fault for the given FPM, uniform over the dynamic
// instruction stream. micro.FPMNone draws a register-uniform fault
// (see sampleUniform).
func (cp *Campaign) Sample(r *rand.Rand, fpm micro.FPM) Fault {
	if fpm == micro.FPMNone {
		return cp.sampleUniform(r)
	}
	return Fault{
		FPM:  fpm,
		K:    1 + uint64(r.Int63n(cp.sampleSpan())),
		Bit:  r.Intn(64),
		Slot: r.Intn(4),
	}
}

// sampleSpan is the dynamic-instant sampling span, clamped so a
// degenerate golden run (<= 2 instructions) never passes Int63n an
// n <= 0. The draw still happens, keeping sequences aligned.
func (cp *Campaign) sampleSpan() int64 {
	span := int64(cp.GoldenInstr) - 1
	if span < 1 {
		span = 1
	}
	return span
}

// UniformTarget labels register-uniform injections in the record
// stream and the results store, distinguishing them from the per-FPM
// operand-targeted campaigns.
const UniformTarget = "reg-uniform"

// Target is the record and store-key target of an FPM's campaign: the
// model's name, or UniformTarget for micro.FPMNone, the register-uniform
// campaign.
func Target(fpm micro.FPM) string {
	if fpm == micro.FPMNone {
		return UniformTarget
	}
	return fpm.String()
}

// sampleUniform draws a register-uniform fault: a bit flip in a
// uniformly chosen architectural register (r1..r(N-1); r0 is
// hard-wired) at a uniformly chosen dynamic instant, with no
// conditioning on whether the register is about to be consumed. This is
// the sampling model that ACE analysis upper-bounds: a flip outside a
// def-to-last-use interval is overwritten before any read and cannot
// alter the outcome, so P(visible) <= RegACE <= the static bound. A WD
// fault instead corrupts a *consumed* operand, a liveness-conditioned
// probability that legitimately exceeds ACE.
func (cp *Campaign) sampleUniform(r *rand.Rand) Fault {
	return Fault{
		FPM:  micro.FPMNone,
		K:    1 + uint64(r.Int63n(cp.sampleSpan())),
		Bit:  r.Intn(cp.Img.ISA.XLen()),
		Slot: 1 + r.Intn(cp.Img.ISA.NumRegs()-1),
	}
}

// Run performs one injection and classifies the program-level outcome,
// building a throwaway arena; campaigns use the pooled worker path in
// RunCampaign.
func (cp *Campaign) Run(f Fault) inject.Outcome {
	w := &worker{src: -1}
	g := cp.chain.Find(f.K)
	c, bus := cp.cpuFor(w, f.K, g)
	o, _ := cp.classify(c, bus, g, w, func() { cp.apply(c, f) })
	return o
}

// classify applies an injection to a machine already advanced to the
// fault instant (restored from checkpoint g), runs it to halt, the
// watchdog limit or provable golden convergence, and classifies the
// outcome. earlyStop reports a convergence-classified run.
func (cp *Campaign) classify(c *emu.CPU, bus *dev.Bus, g int, w *worker, apply func()) (o inject.Outcome, earlyStop bool) {
	if bus.Halted() {
		return inject.Masked, false
	}
	apply()
	halted, converged := cp.runFaulty(c, bus, g, w)
	switch {
	case converged:
		// Architectural state, device state and memory all bit-equal to
		// golden at the same instruction boundary: the remaining
		// execution is exactly golden's, so the outcome is golden's —
		// clean exit, golden output: Masked.
		return inject.Masked, true
	case !halted:
		return inject.Crash, false // live/deadlock under the fault
	case bus.Halt == dev.HaltPanic:
		return inject.Crash, false
	case bus.Halt == dev.HaltDetected:
		return inject.Detected, false
	default:
		if bus.ExitCode == cp.GoldenExit && bytes.Equal(bus.Out, cp.GoldenOut) {
			return inject.Masked, false
		}
		return inject.SDC, false
	}
}

// runFaulty executes the faulty machine, pausing at every golden
// checkpoint boundary past g to test for convergence.
func (cp *Campaign) runFaulty(c *emu.CPU, bus *dev.Bus, g int, w *worker) (halted, converged bool) {
	// run executes to the given instruction boundary (or halt) and
	// reports halt — translation-block dispatch when the worker carries
	// an engine, instruction-at-a-time stepping otherwise. Both land on
	// exact committed-instruction boundaries, so convergence tests see
	// identical states.
	run := func(limit uint64) bool {
		if w.eng != nil {
			return w.eng.Run(limit)
		}
		for c.Instret < limit {
			if !c.Step() {
				return true
			}
		}
		return bus.Halted()
	}
	if !cp.reference && bus.Mem.Tracking() {
		for j := g + 1; j < cp.chain.Len(); j++ {
			target := cp.chain.Coord(j)
			// apply may have executed forward past this boundary while
			// searching for a suitable operand; skip it.
			if target < c.Instret {
				continue
			}
			if target > cp.Limit {
				target = cp.Limit
			}
			if run(target) {
				return true, false
			}
			if cp.convergedAt(c, bus, g, j, w) {
				return false, true
			}
		}
	}
	if run(cp.Limit) {
		return true, false
	}
	return bus.Halted(), false
}

// convergedAt reports whether the faulty machine, at the instruction
// boundary of checkpoint j, is bit-identical to the golden run: the
// scalar probe gates the test; on a match the state is encoded
// canonically (architectural fields + device state) and compared
// chunk-wise against the chain, and RAM is compared on the union of the
// faulty run's dirty pages (tracked since its restore from checkpoint
// g) and the chain's content-changed pages in (g, j] — every other
// page provably equals checkpoint g's copy in both runs. KInstr is
// excluded: it is reporting state no instruction ever reads.
func (cp *Campaign) convergedAt(c *emu.CPU, bus *dev.Bus, g, j int, w *worker) bool {
	s := c.Save()
	if s.Instret != cp.chain.Coord(j) || archProbe(s) != cp.chain.Probe(j) {
		return false
	}
	w.cmpBuf = appendArchState(w.cmpBuf[:0], s, bus)
	return cp.chain.StateEqual(j, w.cmpBuf) && cp.chain.RAMEqual(bus.Mem, g, j)
}

// apply injects the fault just before the next instruction executes.
// For WD it corrupts one of the instruction's source operands in
// architectural storage (register or loaded memory word); for WOI/WI it
// flips an operand-field or operation-field bit of the instruction word
// in memory (persistent, like a corrupted architectural code copy). A
// register-uniform fault (micro.FPMNone) flips f.Bit of register f.Slot
// in place, before anything is fetched.
func (cp *Campaign) apply(c *emu.CPU, f Fault) {
	if f.FPM == micro.FPMNone {
		c.SetReg(f.Slot, c.Reg(f.Slot)^(1<<uint(f.Bit)))
		return
	}
	is := c.ISA
	// Find the next instruction with a suitable target, executing
	// forward when the current one has none (keeps sampling total).
	for steps := 0; steps < 4096; steps++ {
		w, ok := c.Bus.Mem.Word32(c.PC)
		if !ok {
			return
		}
		in, ok := isa.Decode(w, is)
		if !ok {
			return
		}
		switch f.FPM {
		case micro.FPMWD:
			// At most three operand locations: rs1, rs2 and a loaded word.
			type loc struct {
				isReg bool
				reg   int
				addr  uint64
				width int
			}
			var locs [3]loc
			n := 0
			if in.Op.ReadsRs1() && in.Rs1 != 0 {
				locs[n] = loc{isReg: true, reg: in.Rs1, width: is.XLen()}
				n++
			}
			if in.Op.ReadsRs2() && in.Rs2 != 0 {
				locs[n] = loc{isReg: true, reg: in.Rs2, width: is.XLen()}
				n++
			}
			if in.Op.IsLoad() {
				addr := (c.Reg(in.Rs1) + uint64(in.Imm)) & is.Mask()
				if c.Bus.Mem.Valid(addr, in.Op.MemBytes()) {
					locs[n] = loc{addr: addr, width: 8 * in.Op.MemBytes()}
					n++
				}
			}
			if n == 0 {
				if !c.Step() {
					return
				}
				continue
			}
			l := locs[f.Slot%n]
			bit := f.Bit % l.width
			if l.isReg {
				c.SetReg(l.reg, c.Reg(l.reg)^(1<<uint(bit)))
			} else {
				c.Bus.Mem.FlipBit(l.addr+uint64(bit/8), uint(bit%8))
			}
			return
		case micro.FPMWI, micro.FPMWOI:
			opMask := isa.OperationMask(w, is)
			want := opMask
			if f.FPM == micro.FPMWOI {
				want = ^opMask
			}
			if want == 0 {
				if !c.Step() {
					return
				}
				continue
			}
			// Pick the f.Bit-th set bit of the field mask (wrapping).
			n := popcount(want)
			idx := f.Bit % n
			bit := nthSetBit(want, idx)
			c.Bus.Mem.FlipBit(c.PC+uint64(bit/8), uint(bit%8))
			return
		default:
			return
		}
	}
}

func popcount(m uint32) int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

func nthSetBit(m uint32, n int) int {
	for i := 0; i < 32; i++ {
		if m&(1<<uint(i)) != 0 {
			if n == 0 {
				return i
			}
			n--
		}
	}
	return 0
}

// Tally aggregates PVF outcomes for one FPM. It is the shared
// record-stream aggregate; PVF() reads it at this layer.
type Tally = results.Tally

// record converts a classified fault into the layer-agnostic form.
func record(f Fault, o inject.Outcome, earlyStop bool) results.Record {
	return results.Record{
		Layer:     results.LayerArch,
		Target:    Target(f.FPM),
		Coord:     f.K,
		Bit:       f.Bit,
		Slot:      f.Slot,
		Outcome:   o,
		EarlyStop: earlyStop,
	}
}

// RunCampaign performs n injections under the given FPM, fanned across
// cp.Workers goroutines (<= 0: all CPUs). The fault sequence is
// pre-drawn from the seed exactly as the serial loop drew it, so the
// tally is bit-identical for every worker count. progress, when
// non-nil, is called exactly once per injection, serialized and in
// injection-index order; it must not call back into the campaign.
func (cp *Campaign) RunCampaign(fpm micro.FPM, n int, seed int64, progress func(i int, r results.Record)) Tally {
	return results.TallyOf(cp.Records(fpm, n, 0, seed, progress))
}

// Records executes injections [from, n) of the n-fault sequence
// pre-drawn from seed and returns their records, indexed absolutely.
// Records for [0, from) from an earlier shorter campaign with the same
// key concatenate into exactly a one-shot n-injection record set (the
// top-up resume primitive).
func (cp *Campaign) Records(fpm micro.FPM, n, from int, seed int64, progress func(i int, r results.Record)) []results.Record {
	faults := cp.Pool(fpm, n, seed)
	if from < 0 {
		from = 0
	}
	if from >= n {
		return nil
	}
	return cp.RecordsAt(faults[from:], from, progress)
}

// Pool pre-draws the n-fault sequence for the given FPM from seed —
// exactly the faults Records would inject, exposed so stratified
// campaigns can partition the pool into equivalence classes and inject
// per-stratum subsets of it.
func (cp *Campaign) Pool(fpm micro.FPM, n int, seed int64) []Fault {
	r := rand.New(rand.NewSource(seed))
	faults := make([]Fault, n)
	for i := range faults {
		faults[i] = cp.Sample(r, fpm)
	}
	return faults
}

// RecordsAt injects the given faults (any ordered subset of a pool) and
// returns their records with absolute indices base+i — the stratified
// analogue of Records, bit-identical for every worker count.
func (cp *Campaign) RecordsAt(faults []Fault, base int, progress func(i int, r results.Record)) []results.Record {
	jobs := make([]campaign.Job, len(faults))
	for i := range jobs {
		jobs[i] = campaign.Job{Index: i, Group: cp.chain.Find(faults[i].K)}
	}
	var emit func(i int, rec results.Record)
	if progress != nil {
		emit = func(i int, rec results.Record) { progress(base+i, rec) }
	}
	return campaign.Run(jobs, cp.Workers,
		func() *worker { return &worker{src: -1} },
		func(w *worker, j campaign.Job) results.Record {
			f := faults[j.Index]
			c, bus := cp.cpuFor(w, f.K, j.Group)
			o, early := cp.classify(c, bus, j.Group, w, func() { cp.apply(c, f) })
			rec := record(f, o, early)
			rec.Index = base + j.Index
			return rec
		},
		emit)
}

// CkptFor returns the index of the checkpoint governing a dynamic
// instruction instant — the program point stratified sampling keys
// static features on.
func (cp *Campaign) CkptFor(k uint64) int { return cp.chain.Find(k) }

// CheckpointPCs returns the architectural PC of every checkpoint's
// restore state, materialized by one incremental delta-walk of the
// chain.
func (cp *Campaign) CheckpointPCs() []uint64 {
	pcs := make([]uint64, cp.chain.Len())
	var buf []byte
	for i := range pcs {
		buf = cp.chain.StateAt(i, buf, i-1)
		s, err := decodeArchState(buf)
		if err != nil {
			continue // undecodable legacy blob: its sites share one stratum
		}
		pcs[i] = s.PC
	}
	return pcs
}

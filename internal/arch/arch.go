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
	// content-changed RAM pages at each instruction boundary.
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

// encodeGolden serializes the golden summary into a chain's Meta so a
// warm load learns the reference run without executing it.
func encodeGolden(cp *Campaign) []byte {
	return ckpt.AppendSummary(nil, cp.GoldenOut, cp.GoldenExit, cp.GoldenInstr, cp.KInstr)
}

// decodeGolden decodes a golden blob into cp. The blob is the summary
// alone: trailing bytes are refused.
func decodeGolden(b []byte, cp *Campaign) error {
	out, rest, err := ckpt.DecodeSummary(b, &cp.GoldenExit, &cp.GoldenInstr, &cp.KInstr)
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("arch: %d bytes after the golden summary", len(rest))
	}
	cp.GoldenOut = out
	return err
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
	cp := &Campaign{Img: img, reference: reference}
	golden := cp.newMachine(img.NewMemory())
	if !golden.RunTo(1 << 30) {
		return nil, fmt.Errorf("arch: golden run did not finish")
	}
	c, bus := golden.cpu, golden.bus
	if bus.Halt != dev.HaltClean {
		return nil, fmt.Errorf("arch: golden run ended %v", bus.Halt)
	}
	cp.GoldenOut = append([]byte(nil), bus.Out...)
	cp.GoldenExit, cp.GoldenInstr, cp.KInstr = bus.ExitCode, c.Instret, c.KernelInstret
	cp.Limit = 3*cp.GoldenInstr + 100000

	cp.chain = ckpt.New(ckpt.Meta{
		Engine:   Engine,
		RAMBytes: int(img.RAM.Size()),
		Golden:   encodeGolden(cp),
	})
	// The capture machine tracks its dirty pages, so each checkpoint
	// compares only the RAM the interval wrote. The state blob is small
	// (one chunk) and re-encoded whole.
	m2 := img.NewMemory()
	m2.EnableTracking()
	ckpt.Capture(cp.chain, cp.newMachine(m2), cp.GoldenInstr, nsnaps)
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

// machine is an emulator, its bus and its RAM as the checkpoint driver
// sees them: the golden run's, the capture's and every worker arena.
type machine struct {
	cpu *emu.CPU
	bus *dev.Bus
	eng *tb.Engine // nil when the campaign runs step-by-step (reference)
	cmp []byte     // the convergence test's encode scratch
}

// newMachine builds a machine over m, at the image's entry point.
func (cp *Campaign) newMachine(m *mem.Memory) *machine {
	bus := dev.NewBus(m)
	mc := &machine{cpu: emu.New(cp.Img.ISA, bus, cp.Img.Entry), bus: bus}
	if !cp.reference {
		mc.eng = tb.New(mc.cpu)
		mc.eng.Paranoid = cp.TBParanoid
	}
	return mc
}

func (m *machine) Coord() uint64       { return m.cpu.Instret }
func (m *machine) Probe() uint64       { return archProbe(m.cpu.Save()) }
func (m *machine) Memory() *mem.Memory { return m.bus.Mem }
func (m *machine) Aux() []byte         { return binary.AppendUvarint(nil, m.cpu.KernelInstret) }

// RunTo executes to an instruction boundary or a halt: translation-block
// dispatch when the machine carries an engine, instruction-at-a-time
// stepping otherwise. Both land on exact committed-instruction
// boundaries, so convergence tests see identical states.
func (m *machine) RunTo(k uint64) bool {
	if m.eng != nil {
		return m.eng.Run(k)
	}
	return m.cpu.Run(k)
}

func (m *machine) Encode(blob []byte, changed []int) ([]byte, []int) {
	blob = appendArchState(blob[:0], m.cpu.Save(), m.bus)
	return blob, ckpt.AppendChunks(changed, 0, len(blob))
}

// Restore reinstates checkpoint g's architectural state and resets the
// bus (not restored): faulty runs accumulate device output from empty,
// and the convergence test accounts for it.
func (m *machine) Restore(cu *ckpt.Cursor, g int) error {
	s, err := decodeArchState(cu.Blob())
	if err != nil {
		return err
	}
	s.KInstr, _ = binary.Uvarint(cu.Chain().Aux(g))
	m.bus.Reset()
	m.cpu.Restore(s)
	return nil
}

// Matches encodes the state canonically (architectural fields + device
// state) and compares it chunk-wise against the chain, then RAM on the
// union of the faulty run's dirty pages (tracked since its restore) and
// the chain's content-changed pages since: every other page provably
// equals the restore checkpoint's copy in both runs. KInstr is
// excluded: it is reporting state no instruction ever reads.
func (m *machine) Matches(cu *ckpt.Cursor, j int) bool {
	m.cmp = appendArchState(m.cmp[:0], m.cpu.Save(), m.bus)
	return cu.Chain().StateEqual(j, m.cmp) && cu.Chain().RAMEqual(m.bus.Mem, cu.At(), j)
}

// worker is the reusable per-worker arena, restored in place for every
// injection by its cursor's delta walk of the chain, keeping the hot
// loop allocation-free.
type worker struct {
	m  *machine
	cu *ckpt.Cursor
}

// newWorker builds an arena over fresh dirty-tracked RAM.
func (cp *Campaign) newWorker() *worker {
	m := mem.New(cp.Img.RAM.Size())
	m.EnableTracking()
	w := &worker{m: cp.newMachine(m)}
	w.cu = ckpt.NewCursor(cp.chain, w.m)
	return w
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
	o, _ := cp.inject(cp.newWorker(), f, cp.chain.Find(f.K))
	return o
}

// inject restores w's arena from checkpoint g, advances it to the fault
// instant, applies f, runs it to halt, the watchdog limit or provable
// golden convergence (the fast path only), and classifies the outcome.
// earlyStop reports a convergence-classified run.
func (cp *Campaign) inject(w *worker, f Fault, g int) (o inject.Outcome, earlyStop bool) {
	m := w.m
	w.cu.Restore(g)
	if m.RunTo(f.K) {
		return inject.Masked, false
	}
	cp.apply(m.cpu, f)
	var halted, converged bool
	if cp.reference {
		halted = m.RunTo(cp.Limit)
	} else {
		halted, converged = w.cu.Run(cp.Limit)
	}
	bus := m.bus
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

// RunCampaign tallies n injections under the given FPM, fanned across
// cp.Workers goroutines (<= 0: all CPUs), bit-identical for every
// worker count. progress follows campaign.RecordsAt's contract and must
// not call back into the campaign.
func (cp *Campaign) RunCampaign(fpm micro.FPM, n int, seed int64, progress func(i int, r results.Record)) Tally {
	return results.TallyOf(cp.Records(fpm, n, 0, seed, progress))
}

// Records executes injections [from, n) of the n-fault sequence
// pre-drawn from seed and returns their records, indexed absolutely
// (campaign.Tail: the top-up resume primitive).
func (cp *Campaign) Records(fpm micro.FPM, n, from int, seed int64, progress func(i int, r results.Record)) []results.Record {
	faults, base := campaign.Tail(cp.Pool(fpm, n, seed), from)
	return cp.RecordsAt(faults, base, progress)
}

// Pool pre-draws the n-fault sequence for the given FPM from seed —
// exactly the faults Records would inject, exposed so stratified
// campaigns can partition the pool into equivalence classes and inject
// per-stratum subsets of it.
func (cp *Campaign) Pool(fpm micro.FPM, n int, seed int64) []Fault {
	return campaign.Pool(n, seed, func(r *rand.Rand) Fault { return cp.Sample(r, fpm) })
}

// RecordsAt injects the given faults (any ordered subset of a pool) and
// returns their records with absolute indices base+i
// (campaign.RecordsAt): the stratified analogue of Records.
func (cp *Campaign) RecordsAt(faults []Fault, base int, progress func(i int, r results.Record)) []results.Record {
	return campaign.RecordsAt(faults, base, cp.Workers,
		func(f Fault) int { return cp.CkptFor(f.K) }, cp.newWorker,
		func(w *worker, f Fault, g int) results.Record {
			o, early := cp.inject(w, f, g)
			return record(f, o, early)
		},
		progress)
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

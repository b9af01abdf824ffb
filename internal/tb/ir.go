package tb

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vulnstack/internal/ir"
)

// The soft-layer analogue of the superblock engine: an ir.Module is
// compiled once per campaign into flat per-function op arrays — branch
// targets resolved to op indices, call targets to function indices,
// global symbols to addresses, binop kinds and destination presence
// folded into opcodes — and a Machine executes the compiled form with
// the single-bit-flip-at-sequence fault inlined as a compare, instead
// of the interpreter's per-definition hook closure. Calls push frames
// on one explicit stack over one shared register file, so a run can
// pause at a definition count, be encoded canonically, and resume from
// a decoded state: the soft layer's checkpoint chain captures and
// restores through it. Golden tracking runs (which need def-use and
// site tracking) stay on the plain interpreter, which never resumes.
//
// The compiled engine is specialized to the 64-bit word width (the only
// width LLFI-style injection supports), where the interpreter's wrap
// step is the identity.

// Compiled opcodes.
const (
	cConst = iota
	cCopy
	cBin
	cGlobal
	cFrame
	cLoad  // sign-extending, size in size
	cLoadU // zero-extending
	cStore
	cCall
	cSyscall
	cRet
	cBr
	cCondBr
)

// cop is one compiled IR instruction. imm carries the constant value
// (cConst), the resolved global address (cGlobal), the frame-slot index
// (cFrame), the callee function index (cCall), or the branch-target op
// index (cBr/cCondBr, with the else index in b).
type cop struct {
	code uint8
	bin  uint8
	size uint8
	dst  int32 // -1: no destination register
	a, b int32
	imm  int64
	args []int32
}

// cfunc is one compiled function.
type cfunc struct {
	numVReg int
	slots   []ir.FrameSlot
	ops     []cop
}

// Prog is a compiled module: immutable after CompileIR, shared
// read-only across worker goroutines.
type Prog struct {
	funcs []cfunc
	entry int
}

// CompileIR compiles m for the 64-bit width. ip supplies the global
// address layout (identical for every interpreter over the same module
// and memory size); it is not otherwise touched. An unresolvable
// symbol or a non-64-bit interpreter returns an error.
func CompileIR(m *ir.Module, ip *ir.Interp) (*Prog, error) {
	if ip.Width != 64 {
		return nil, fmt.Errorf("tb: compiled IR engine supports only width 64, got %d", ip.Width)
	}
	fidx := make(map[string]int, len(m.Funcs))
	for i, f := range m.Funcs {
		fidx[f.Name] = i
	}
	entry, ok := fidx["_start"]
	if !ok {
		return nil, fmt.Errorf("tb: no _start in module")
	}
	p := &Prog{funcs: make([]cfunc, len(m.Funcs)), entry: entry}
	for i, f := range m.Funcs {
		cf, err := compileFunc(f, fidx, ip)
		if err != nil {
			return nil, err
		}
		p.funcs[i] = cf
	}
	return p, nil
}

func compileFunc(f *ir.Func, fidx map[string]int, ip *ir.Interp) (cfunc, error) {
	cf := cfunc{numVReg: f.NumVReg, slots: f.Slots}
	// Block starts in the flattened op array.
	starts := make([]int32, len(f.Blocks))
	n := 0
	for bi, b := range f.Blocks {
		starts[bi] = int32(n)
		n += len(b.Instrs)
	}
	cf.ops = make([]cop, 0, n)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			op := cop{dst: int32(in.Dst), a: int32(in.A), b: int32(in.B)}
			switch in.Op {
			case ir.OpConst:
				op.code, op.imm = cConst, in.Imm
			case ir.OpCopy:
				op.code = cCopy
			case ir.OpBin:
				op.code, op.bin = cBin, uint8(in.Bin)
			case ir.OpGlobal:
				addr, ok := ip.GlobalAddr(in.Sym)
				if !ok {
					return cfunc{}, fmt.Errorf("tb: unknown global %q", in.Sym)
				}
				op.code, op.imm = cGlobal, addr
			case ir.OpFrame:
				op.code, op.imm = cFrame, int64(in.Slot)
			case ir.OpLoad:
				op.code, op.size = cLoad, uint8(in.Size)
				if in.Unsigned {
					op.code = cLoadU
				}
			case ir.OpStore:
				op.code, op.size = cStore, uint8(in.Size)
			case ir.OpCall:
				ci, ok := fidx[in.Sym]
				if !ok {
					return cfunc{}, fmt.Errorf("tb: unknown callee %q", in.Sym)
				}
				op.code, op.imm = cCall, int64(ci)
				op.args = compileArgs(in.Args)
			case ir.OpSyscall:
				op.code = cSyscall
				op.args = compileArgs(in.Args)
			case ir.OpRet:
				op.code = cRet
			case ir.OpBr:
				op.code, op.imm = cBr, int64(starts[in.Target])
			case ir.OpCondBr:
				op.code = cCondBr
				op.imm, op.b = int64(starts[in.Target]), starts[in.Else]
			default:
				return cfunc{}, fmt.Errorf("tb: unhandled IR op %v", in.Op)
			}
			cf.ops = append(cf.ops, op)
		}
	}
	return cf, nil
}

func compileArgs(args []int) []int32 {
	if len(args) == 0 {
		return nil
	}
	out := make([]int32, len(args))
	for i, a := range args {
		out[i] = int32(a)
	}
	return out
}

// NoStop is the Run bound of a run that goes on until it ends.
const NoStop = ^uint64(0)

// noEvent is a definition number no run reaches.
const noEvent = ^uint64(0)

// frame is one live activation of a Machine's explicit call stack. Its
// registers are regs[regs:regs+numVReg] of the machine's shared
// register file and its slot addresses slots[slots:slots+len(slots)];
// both bases follow from the frame order.
type frame struct {
	fn int32 // function index
	// pc is the index of the frame's next op: in a caller, the op after
	// its pending call, whose destination receives the return value.
	pc int32
	// sp is the stack pointer at entry, before the frame's slots were
	// allocated: the value a return restores, and the base its slot
	// addresses are derived from.
	sp    int64
	regs  int32
	slots int32
}

// Machine is one compiled execution over an interpreter's memory,
// output and stack pointer: a reusable arena whose calls push frames on
// one explicit stack instead of recursing, so a run can pause at any
// definition count and resume from a decoded state. The interpreter's
// memory is the caller's to restore; Start and SetState set everything
// else.
type Machine struct {
	p  *Prog
	ip *ir.Interp

	frames []frame
	regs   []int64
	slots  []int64

	steps  uint64
	defSeq uint64
	// MaxSteps is the watchdog: a run that has executed MaxSteps IR
	// instructions in all, counted from the start state, ends with
	// ir.ErrWatchdog.
	MaxSteps uint64

	faultSeq uint64 // armed fault's definition number, or noEvent
	faultBit int64  // its XOR mask
	stop     uint64 // Run's pause bound
	next     uint64 // the next event's definition number (nextEvent)

	done bool
	err  error
}

// NewMachine binds a machine to ip, an interpreter over the module p
// was compiled from (same memory size). Call Start or SetState before
// Run.
func (p *Prog) NewMachine(ip *ir.Interp) *Machine {
	return &Machine{p: p, ip: ip, MaxSteps: 1 << 32, faultSeq: noEvent, done: true, err: errNotStarted}
}

// errNotStarted is a run before Start or SetState.
var errNotStarted = errors.New("tb: IR machine not started")

// Start resets the run to the start state: no output, the stack
// pointer at the top of memory, zero steps and definitions, and the
// entry function's frame pushed. It disarms the fault. The memory is
// not touched.
func (m *Machine) Start() error {
	ip := m.ip
	ip.SetSP(int64(ip.Mem.Size()))
	m.reset(0)
	ip.Out = ip.Out[:0]
	if err := m.push(m.p.entry, 0, 0); err != nil {
		return m.end(err)
	}
	return nil
}

// reset clears the run state ahead of a start or a restore at
// definition count defSeq.
func (m *Machine) reset(defSeq uint64) {
	ip := m.ip
	ip.Exited, ip.ExitCode = false, 0
	ip.Detected, ip.DetectCode = false, 0
	m.frames = m.frames[:0]
	m.steps, m.defSeq = 0, defSeq
	ip.Steps, ip.DefSeq = 0, defSeq
	m.faultSeq = noEvent
	m.done, m.err = false, nil
}

// push enters function fn with its registers at rb and its slot
// addresses at sb, exactly as the interpreter's call does: registers
// zeroed, slots allocated on the descending stack, and a stack pointer
// below the static data area reported as an overflow.
func (m *Machine) push(fn int, rb, sb int32) error {
	f := &m.p.funcs[fn]
	if n := int(rb) + f.numVReg; n > len(m.regs) {
		m.regs = append(m.regs, make([]int64, n-len(m.regs))...)
	}
	clear(m.regs[rb : int(rb)+f.numVReg])
	if n := int(sb) + len(f.slots); n > len(m.slots) {
		m.slots = append(m.slots, make([]int64, n-len(m.slots))...)
	}
	saved := m.ip.SP()
	m.frames = append(m.frames, frame{fn: int32(fn), sp: saved, regs: rb, slots: sb})
	sp := allocSlots(f.slots, saved, m.slots[sb:])
	m.ip.SetSP(sp)
	if sp < m.ip.HeapEnd() {
		return ir.ErrStackOverflow
	}
	return nil
}

// allocSlots lays slots out below sp, interp.call's layout exactly,
// writing each slot's address to addr, and returns the new stack
// pointer.
func allocSlots(slots []ir.FrameSlot, sp int64, addr []int64) int64 {
	for i := range slots {
		s := &slots[i]
		a := int64(8)
		if s.Align > 8 {
			a = int64(s.Align)
		}
		sp = (sp - int64(s.Size)) &^ (a - 1)
		addr[i] = sp
	}
	return sp
}

// SetFault arms a single-bit flip of dynamic definition seq: the
// compiled equivalent of the interpreter's DefHook fault, applied
// before the value is written. A definition the run has already passed
// is never flipped.
func (m *Machine) SetFault(seq uint64, bit uint) {
	m.faultSeq, m.faultBit = seq, int64(uint64(1)<<bit)
}

// Steps returns the IR instructions executed since the start state.
func (m *Machine) Steps() uint64 { return m.steps }

// DefSeq returns the definitions sequenced since the start state.
func (m *Machine) DefSeq() uint64 { return m.defSeq }

// nextEvent is the definition number of the run's next event from d
// on: the armed fault, or the last definition before the pause bound.
// The run loop compares each definition against it alone.
func (m *Machine) nextEvent(d uint64) uint64 {
	e := m.stop - 1
	if m.faultSeq >= d && m.faultSeq < e {
		e = m.faultSeq
	}
	return e
}

// Run executes until stop definitions have been sequenced, and then
// pauses (paused is true) at that instruction boundary, or until the
// run ends: paused is false, err is nil on a clean exit, a detection or
// a return from the entry function, with the interpreter's exit and
// output state set exactly as ir.Interp.Run leaves it, and err is the
// interpreter's error on a crash (bad address, stack overflow,
// watchdog). A run already at stop pauses at once; an ended run
// returns its end again.
func (m *Machine) Run(stop uint64) (paused bool, err error) {
	if m.done {
		return false, m.err
	}
	if m.defSeq >= stop {
		return true, nil
	}
	m.stop = stop
	m.next = m.nextEvent(m.defSeq)
	// The loop keeps only the innermost frame's ops, registers, slot
	// addresses and pc in locals; the counters live in m, as a spilled
	// local would anyway.
	ip := m.ip
	ops, regs, slots, pc := m.top()
	for {
		if m.steps >= m.MaxSteps {
			return false, m.end(ir.ErrWatchdog)
		}
		op := &ops[pc]
		m.steps++
		pc++
		var def int64

		switch op.code {
		case cConst:
			def = op.imm
		case cCopy:
			def = regs[op.a]
		case cBin:
			def = binop64(op.bin, regs[op.a], regs[op.b])
		case cGlobal:
			def = op.imm
		case cFrame:
			def = slots[op.imm]
		case cLoad:
			v, err := ip.MemLoad(regs[op.a], int(op.size), false)
			if err != nil {
				return false, m.end(err)
			}
			def = v
		case cLoadU:
			v, err := ip.MemLoad(regs[op.a], int(op.size), true)
			if err != nil {
				return false, m.end(err)
			}
			def = v
		case cStore:
			if err := ip.MemStore(regs[op.a], int(op.size), regs[op.b]); err != nil {
				return false, m.end(err)
			}
			continue
		case cCall:
			if err := m.call(op, pc, regs); err != nil {
				return false, m.end(err)
			}
			ops, regs, slots, pc = m.top()
			continue
		case cSyscall:
			var a0, a1 int64
			if len(op.args) > 0 {
				a0 = regs[op.args[0]]
			}
			if len(op.args) > 1 {
				a1 = regs[op.args[1]]
			}
			v, err := ip.SyscallV(regs[op.a], a0, a1)
			if err != nil {
				return false, m.end(err)
			}
			// An exiting/detecting syscall ends the run before its
			// definition is sequenced (interp.call order).
			if ip.Exited || ip.Detected {
				return false, m.end(nil)
			}
			def = v
		case cRet:
			var v int64
			if op.a >= 0 {
				v = regs[op.a]
			}
			if !m.ret() {
				// Falling off the entry function is an implicit exit
				// with its return value.
				ip.Exited, ip.ExitCode = true, v
				return false, m.end(nil)
			}
			ops, regs, slots, pc = m.top()
			// The pending call's definition is the return value.
			op = &ops[pc-1]
			if op.dst < 0 {
				continue
			}
			def = v
		case cBr:
			pc = int(op.imm)
			continue
		case cCondBr:
			if regs[op.a] != 0 {
				pc = int(op.imm)
			} else {
				pc = int(op.b)
			}
			continue
		}

		// Definition sequencing. One compare finds both events: the
		// fault, flipped before the write (at width 64 the
		// interpreter's wrap of the hooked value is the identity), and
		// the pause, once stop definitions are sequenced.
		if m.defSeq == m.next {
			var pause bool
			if def, pause = m.event(def); pause {
				m.defSeq++
				if op.dst >= 0 {
					regs[op.dst] = def
				}
				m.frames[len(m.frames)-1].pc = int32(pc)
				ip.Steps, ip.DefSeq = m.steps, m.defSeq
				return true, nil
			}
		}
		m.defSeq++
		if op.dst >= 0 {
			regs[op.dst] = def
		}
	}
}

// top returns the innermost frame's ops, registers, slot addresses and
// pc.
func (m *Machine) top() (ops []cop, regs, slots []int64, pc int) {
	fr := &m.frames[len(m.frames)-1]
	f := &m.p.funcs[fr.fn]
	return f.ops, m.regs[fr.regs : int(fr.regs)+f.numVReg], m.slots[fr.slots : int(fr.slots)+len(f.slots)], int(fr.pc)
}

// call performs op, a call from the innermost frame (whose registers
// are caller, and whose next op is pc): it records pc, pushes the
// callee's frame above the caller's and passes the arguments.
func (m *Machine) call(op *cop, pc int, caller []int64) error {
	fr := &m.frames[len(m.frames)-1]
	fr.pc = int32(pc)
	f := &m.p.funcs[fr.fn]
	rb, sb := fr.regs+int32(f.numVReg), fr.slots+int32(len(f.slots))
	err := m.push(int(op.imm), rb, sb)
	// caller may still alias the register file from before push grew
	// it; its values there are current.
	callee := m.regs[rb : int(rb)+m.p.funcs[op.imm].numVReg]
	for i, a := range op.args[:min(len(op.args), len(callee))] {
		callee[i] = caller[a]
	}
	return err
}

// ret pops the innermost frame, restoring the stack pointer it saved,
// and reports whether a caller's frame is left.
func (m *Machine) ret() bool {
	n := len(m.frames) - 1
	m.ip.SetSP(m.frames[n].sp)
	m.frames = m.frames[:n]
	return n > 0
}

// event handles the next event at definition m.defSeq, whose value is
// def: it flips the armed fault's bit, reports whether the run pauses
// after this definition, and finds the next event.
func (m *Machine) event(def int64) (int64, bool) {
	d := m.defSeq
	if d == m.faultSeq {
		def ^= m.faultBit
		m.faultSeq = noEvent
	}
	if d+1 == m.stop {
		return def, true
	}
	m.next = m.nextEvent(d + 1)
	return def, false
}

// end records the end of a run and returns its error.
func (m *Machine) end(err error) error {
	m.ip.Steps, m.ip.DefSeq = m.steps, m.defSeq
	m.done, m.err = true, err
	return err
}

// The canonical state blob of a paused run, little-endian: a header of
// the step count, the stack pointer, the output length and the frame
// count (8 bytes each), then per frame, outermost first, its function
// index and op index (4 bytes each), its saved SP (8) and its registers
// (8 each). The definition count is the checkpoint's coordinate and the
// output bytes are a prefix of the golden output, so neither is in the
// blob. Every field is stored whole, so two paused runs of one program
// are in the same state, memory aside, exactly when their blobs are
// bytes-equal.
const (
	stateHeaderLen = 4 * 8
	frameHeaderLen = 4 + 4 + 8
)

// AppendState appends the canonical state blob of a paused run to dst.
func (m *Machine) AppendState(dst []byte) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, m.steps)
	dst = le.AppendUint64(dst, uint64(m.ip.SP()))
	dst = le.AppendUint64(dst, uint64(len(m.ip.Out)))
	dst = le.AppendUint64(dst, uint64(len(m.frames)))
	for _, fr := range m.frames {
		dst = le.AppendUint32(dst, uint32(fr.fn))
		dst = le.AppendUint32(dst, uint32(fr.pc))
		dst = le.AppendUint64(dst, uint64(fr.sp))
		for _, r := range m.regs[fr.regs : int(fr.regs)+m.p.funcs[fr.fn].numVReg] {
			dst = le.AppendUint64(dst, uint64(r))
		}
	}
	return dst
}

// Probe folds a paused run's scalar state (steps, stack pointer, output
// length, frame count and the innermost frame's position) into a cheap
// gate for the convergence test: a run whose control flow or output
// differs from golden's fails it without an encode.
func (m *Machine) Probe() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) { h ^= v; h *= 1099511628211 }
	mix(m.steps)
	mix(uint64(m.ip.SP()))
	mix(uint64(len(m.ip.Out)))
	mix(uint64(len(m.frames)))
	if n := len(m.frames); n > 0 {
		top := m.frames[n-1]
		mix(uint64(top.fn)<<32 | uint64(uint32(top.pc)))
	}
	return h
}

// errState reports a state blob this program's runs cannot produce.
var errState = errors.New("tb: bad IR state blob")

// SetState restores a paused run from a canonical state blob: defSeq
// definitions sequenced (the blob's checkpoint coordinate), the output
// the blob's length of out (the golden output), and the frames,
// registers, steps and stack pointer from the blob. It disarms the
// fault. The memory is the caller's to restore. A blob no paused run
// of this program encodes is refused with an error: frames outside the
// program, a caller not paused after a call to the next frame's
// function, stack pointers that do not chain from the top of memory,
// an overflowed stack, an output longer than out, or a length that does
// not match the frames.
func (m *Machine) SetState(b []byte, defSeq uint64, out []byte) error {
	le := binary.LittleEndian
	m.reset(defSeq)
	m.done, m.err = true, errState // until the blob is accepted
	if len(b) < stateHeaderLen {
		return fmt.Errorf("%w: %d-byte header", errState, len(b))
	}
	steps, sp, outLen, n := le.Uint64(b), int64(le.Uint64(b[8:])), le.Uint64(b[16:]), le.Uint64(b[24:])
	if outLen > uint64(len(out)) {
		return fmt.Errorf("%w: output length %d past the golden output's %d", errState, outLen, len(out))
	}
	b = b[stateHeaderLen:]
	if n == 0 || n > uint64(len(b)/frameHeaderLen) {
		return fmt.Errorf("%w: %d frames in %d bytes", errState, n, len(b))
	}
	ip := m.ip
	top := int64(ip.Mem.Size())
	var rb, sb int32
	for k := uint64(0); k < n; k++ {
		if len(b) < frameHeaderLen {
			return fmt.Errorf("%w: frame %d truncated", errState, k)
		}
		fn, pc, fsp := le.Uint32(b), le.Uint32(b[4:]), int64(le.Uint64(b[8:]))
		b = b[frameHeaderLen:]
		switch {
		case fn >= uint32(len(m.p.funcs)):
			return fmt.Errorf("%w: frame %d in function %d of %d", errState, k, fn, len(m.p.funcs))
		case k == 0 && int(fn) != m.p.entry:
			return fmt.Errorf("%w: outermost frame not the entry function", errState)
		case k > 0 && int64(m.p.funcs[m.frames[k-1].fn].ops[m.frames[k-1].pc-1].imm) != int64(fn):
			return fmt.Errorf("%w: frame %d is not its caller's callee", errState, k)
		case fsp != top:
			return fmt.Errorf("%w: frame %d saved SP %#x, want %#x", errState, k, fsp, top)
		}
		f := &m.p.funcs[fn]
		if uint64(pc) >= uint64(len(f.ops)) || k+1 < n && (pc == 0 || f.ops[pc-1].code != cCall) {
			return fmt.Errorf("%w: frame %d paused at op %d", errState, k, pc)
		}
		if len(b) < 8*f.numVReg {
			return fmt.Errorf("%w: frame %d registers truncated", errState, k)
		}
		if need := int(rb) + f.numVReg; need > len(m.regs) {
			m.regs = append(m.regs, make([]int64, need-len(m.regs))...)
		}
		for i := range f.numVReg {
			m.regs[int(rb)+i] = int64(le.Uint64(b[8*i:]))
		}
		b = b[8*f.numVReg:]
		if need := int(sb) + len(f.slots); need > len(m.slots) {
			m.slots = append(m.slots, make([]int64, need-len(m.slots))...)
		}
		top = allocSlots(f.slots, fsp, m.slots[sb:])
		if top < ip.HeapEnd() {
			return fmt.Errorf("%w: frame %d overflows the stack", errState, k)
		}
		m.frames = append(m.frames, frame{fn: int32(fn), pc: int32(pc), sp: fsp, regs: rb, slots: sb})
		rb += int32(f.numVReg)
		sb += int32(len(f.slots))
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errState, len(b))
	}
	if sp != top {
		return fmt.Errorf("%w: SP %#x, want %#x", errState, sp, top)
	}
	ip.SetSP(sp)
	ip.Out = append(ip.Out[:0], out[:outLen]...)
	m.steps, ip.Steps = steps, steps
	m.done, m.err = false, nil
	return nil
}

// binop64 is ir.Interp.binop specialized to Width 64 (wrap is the
// identity, the shift mask is 63, the unsigned-compare mask all-ones);
// kept bit-exact with the interpreter, which the equivalence gate
// asserts across every benchmark.
func binop64(k uint8, a, b int64) int64 {
	sh := uint64(b) & 63
	switch ir.BinKind(k) {
	case ir.Add:
		return a + b
	case ir.Sub:
		return a - b
	case ir.Mul:
		return a * b
	case ir.Div:
		switch {
		case b == 0:
			return -1
		case a == -1<<63 && b == -1:
			return a
		default:
			return a / b
		}
	case ir.Rem:
		switch {
		case b == 0:
			return a
		case a == -1<<63 && b == -1:
			return 0
		default:
			return a % b
		}
	case ir.And:
		return a & b
	case ir.Or:
		return a | b
	case ir.Xor:
		return a ^ b
	case ir.Shl:
		return int64(uint64(a) << sh)
	case ir.LShr:
		return int64(uint64(a) >> sh)
	case ir.AShr:
		return a >> sh
	case ir.Eq:
		return b2i(a == b)
	case ir.Ne:
		return b2i(a != b)
	case ir.Lt:
		return b2i(a < b)
	case ir.Le:
		return b2i(a <= b)
	case ir.Gt:
		return b2i(a > b)
	case ir.Ge:
		return b2i(a >= b)
	case ir.LtU:
		return b2i(uint64(a) < uint64(b))
	case ir.GeU:
		return b2i(uint64(a) >= uint64(b))
	}
	return 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

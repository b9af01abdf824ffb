package ir

import (
	"errors"
	"fmt"

	"vulnstack/internal/mem"
)

// Interpreter errors classified as abnormal termination (the software-
// level equivalent of a Crash outcome).
var (
	ErrBadAddress    = errors.New("ir: memory access out of range")
	ErrMisaligned    = errors.New("ir: misaligned access")
	ErrStackOverflow = errors.New("ir: stack overflow")
	ErrWatchdog      = errors.New("ir: watchdog expired")
	ErrNoEntry       = errors.New("ir: entry function not found")
)

// guardTop mirrors the platform null guard: addresses below it fault.
const guardTop = 0x1000

// DefHook observes (and may modify) every defined value. seq counts
// value-defining dynamic instructions from 0; the returned value replaces
// v. This is the LLFI-style software fault injection point.
type DefHook func(seq uint64, in *Instr, v int64) int64

// Interp executes an IR module with a flat byte-addressable memory.
type Interp struct {
	M     *Module
	Width int // 32 or 64: the target word width

	// Mem is the interpreter's RAM: globals from the bottom, the stack
	// growing down from the top. Enabling its dirty tracking makes the
	// interpreter a reusable arena (Reset, or a checkpoint chain's
	// RestoreRAM).
	Mem        *mem.Memory
	data       []byte // Mem's bytes
	globalAddr map[string]int64
	heapEnd    int64
	sp         int64

	Out []byte

	Exited     bool
	ExitCode   int64
	Detected   bool
	DetectCode int64

	// Steps counts every executed IR instruction; DefSeq counts only
	// value-defining ones (the SVF injection space).
	Steps    uint64
	DefSeq   uint64
	MaxSteps uint64

	Hook DefHook

	// TrackUse enables golden-run def-use tracking: every dynamic
	// definition whose value is subsequently read has its bit set in
	// used. A definition whose bit stays clear is provably dead — its
	// value is never consumed before the holding virtual register is
	// overwritten or its frame returns — so a fault in it cannot alter
	// execution (the llfi early-stop filter). Set before Run.
	TrackUse bool
	used     []uint64

	// TrackSites records, for every dynamic definition, the global
	// static id of its defining instruction (functions, blocks,
	// instructions in module order — the enumeration the static
	// demanded-bits analysis indexes by). Golden runs enable it so
	// per-sequence faults map back to static sites. Set before Run.
	TrackSites bool
	sites      []int32
	siteBase   map[*Func][]int32

	mask uint64
}

// NewInterp prepares an interpreter with the given memory size (0
// selects 1 MiB). Globals are laid out from the bottom; the stack grows
// down from the top.
func NewInterp(m *Module, width int, memSize int) *Interp {
	if memSize == 0 {
		memSize = 1 << 20
	}
	ip := &Interp{
		M:        m,
		Width:    width,
		Mem:      mem.New(uint64(memSize)),
		MaxSteps: 1 << 32,
	}
	ip.data = ip.Mem.Bytes()
	if width == 32 {
		ip.mask = 0xFFFFFFFF
	} else {
		ip.mask = ^uint64(0)
	}
	ip.globalAddr = make(map[string]int64, len(m.Globals))
	addr := int64(guardTop)
	for _, g := range m.Globals {
		addr = (addr + 7) &^ 7
		ip.globalAddr[g.Name] = addr
		copy(ip.data[addr:], g.Init)
		addr += int64(g.Size)
	}
	ip.heapEnd = (addr + 7) &^ 7
	ip.sp = int64(memSize)
	return ip
}

// Reset restores the interpreter to its just-constructed state: memory
// back to img, a pristine copy of a just-constructed interpreter's
// memory, by restoring only the pages written since the last Reset
// (Mem must track its dirty pages, and equal img outside them), then
// counters and output cleared and Hook removed.
func (ip *Interp) Reset(img *mem.Memory) {
	ip.Mem.RestoreDirty(img)
	ip.sp = int64(len(ip.data))
	ip.Out = ip.Out[:0]
	ip.Exited, ip.ExitCode = false, 0
	ip.Detected, ip.DetectCode = false, 0
	ip.Steps, ip.DefSeq = 0, 0
	ip.sites = ip.sites[:0]
	ip.Hook = nil
}

// DefUsed reports whether the value defined by dynamic definition seq
// was read at least once during the last TrackUse run. Out-of-range
// sequences report false (never defined, hence never read).
func (ip *Interp) DefUsed(seq uint64) bool {
	w := int(seq >> 6)
	return w < len(ip.used) && ip.used[w]&(1<<(seq&63)) != 0
}

// UsedDefs returns the def-use bitset of the last TrackUse run, indexed
// by dynamic definition sequence number. The slice aliases interpreter
// state; callers that outlive the interpreter should copy it.
func (ip *Interp) UsedDefs() []uint64 { return ip.used }

// DefSites returns the static-site tags of the last TrackSites run,
// indexed by dynamic definition sequence number. The slice aliases
// interpreter state; callers that outlive the interpreter should copy
// it.
func (ip *Interp) DefSites() []int32 { return ip.sites }

// bases returns the per-block global static-instruction id table of f,
// building the module-wide enumeration on first use.
func (ip *Interp) bases(f *Func) []int32 {
	if ip.siteBase == nil {
		ip.siteBase = make(map[*Func][]int32, len(ip.M.Funcs))
		id := int32(0)
		for _, mf := range ip.M.Funcs {
			bb := make([]int32, len(mf.Blocks))
			for bi, b := range mf.Blocks {
				bb[bi] = id
				id += int32(len(b.Instrs))
			}
			ip.siteBase[mf] = bb
		}
	}
	return ip.siteBase[f]
}

// markUse records that the definition currently held by virtual
// register r (tagged in tags) has been read. tags is nil when def-use
// tracking is off.
func (ip *Interp) markUse(tags []uint64, r int) {
	if tags == nil {
		return
	}
	if t := tags[r]; t != 0 {
		ip.used[(t-1)>>6] |= 1 << ((t - 1) & 63)
	}
}

// GlobalAddr returns the interpreter-assigned address of a global.
func (ip *Interp) GlobalAddr(name string) (int64, bool) {
	a, ok := ip.globalAddr[name]
	return a, ok
}

// wrap reduces a value to the target word width, sign-extended.
func (ip *Interp) wrap(v int64) int64 {
	if ip.Width == 32 {
		return int64(int32(uint32(uint64(v))))
	}
	return v
}

// Run executes the entry function (no arguments) to completion.
func (ip *Interp) Run(entry string) error {
	f, ok := ip.M.Lookup(entry)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoEntry, entry)
	}
	ret, err := ip.call(f, nil)
	if err != nil {
		return err
	}
	if !ip.Exited && !ip.Detected {
		// Falling off main is an implicit exit with main's return code.
		ip.Exited = true
		ip.ExitCode = ret
	}
	return nil
}

func (ip *Interp) call(f *Func, args []int64) (int64, error) {
	regs := make([]int64, f.NumVReg)
	copy(regs, args)

	// tags[r] is 1 + the dynamic definition sequence number of the value
	// currently in virtual register r, 0 when the value came from outside
	// this frame (arguments were already marked used at the call site).
	var tags []uint64
	if ip.TrackUse {
		tags = make([]uint64, f.NumVReg)
	}

	// Allocate frame slots on the descending stack.
	savedSP := ip.sp
	defer func() { ip.sp = savedSP }()
	slotAddr := make([]int64, len(f.Slots))
	for i := range f.Slots {
		s := &f.Slots[i]
		a := int64(8)
		if s.Align > 8 {
			a = int64(s.Align)
		}
		ip.sp = (ip.sp - int64(s.Size)) &^ (a - 1)
		slotAddr[i] = ip.sp
	}
	if ip.sp < ip.heapEnd {
		return 0, ErrStackOverflow
	}

	bi := 0
	ii := 0
	for {
		if ip.Steps >= ip.MaxSteps {
			return 0, ErrWatchdog
		}
		in := &f.Blocks[bi].Instrs[ii]
		ip.Steps++
		ii++
		var def int64
		hasDef := false

		switch in.Op {
		case OpConst:
			def, hasDef = ip.wrap(in.Imm), true
		case OpCopy:
			ip.markUse(tags, in.A)
			def, hasDef = regs[in.A], true
		case OpBin:
			ip.markUse(tags, in.A)
			ip.markUse(tags, in.B)
			def, hasDef = ip.binop(in.Bin, regs[in.A], regs[in.B]), true
		case OpGlobal:
			def, hasDef = ip.globalAddr[in.Sym], true
		case OpFrame:
			def, hasDef = slotAddr[in.Slot], true
		case OpLoad:
			ip.markUse(tags, in.A)
			v, err := ip.load(regs[in.A], in.Size, in.Unsigned)
			if err != nil {
				return 0, err
			}
			def, hasDef = v, true
		case OpStore:
			ip.markUse(tags, in.A)
			ip.markUse(tags, in.B)
			if err := ip.store(regs[in.A], in.Size, regs[in.B]); err != nil {
				return 0, err
			}
		case OpCall:
			callee, _ := ip.M.Lookup(in.Sym)
			cargs := make([]int64, len(in.Args))
			for i, a := range in.Args {
				ip.markUse(tags, a)
				cargs[i] = regs[a]
			}
			v, err := ip.call(callee, cargs)
			if err != nil {
				return 0, err
			}
			if ip.Exited || ip.Detected {
				return 0, nil
			}
			if in.HasDst() {
				def, hasDef = v, true
			}
		case OpSyscall:
			// Conservative: the kernel model may read any argument
			// register, so all of them count as used.
			ip.markUse(tags, in.A)
			for _, a := range in.Args {
				ip.markUse(tags, a)
			}
			v, err := ip.syscall(regs[in.A], in.Args, regs)
			if err != nil {
				return 0, err
			}
			if ip.Exited || ip.Detected {
				return 0, nil
			}
			def, hasDef = v, true
		case OpRet:
			if in.A >= 0 {
				ip.markUse(tags, in.A)
				return regs[in.A], nil
			}
			return 0, nil
		case OpBr:
			bi, ii = in.Target, 0
			continue
		case OpCondBr:
			ip.markUse(tags, in.A)
			if regs[in.A] != 0 {
				bi, ii = in.Target, 0
			} else {
				bi, ii = in.Else, 0
			}
			continue
		}

		if hasDef {
			if ip.Hook != nil {
				def = ip.wrap(ip.Hook(ip.DefSeq, in, def))
			}
			if ip.TrackSites {
				// ii was already advanced past this instruction.
				ip.sites = append(ip.sites, ip.bases(f)[bi]+int32(ii-1))
			}
			if tags != nil && in.HasDst() {
				// Definitions without a destination register need no tag:
				// their value is discarded, so they are dead by
				// construction (their used bit can never be set).
				tags[in.Dst] = ip.DefSeq + 1
				if w := int(ip.DefSeq >> 6); w >= len(ip.used) {
					ip.used = append(ip.used, make([]uint64, w+1-len(ip.used))...)
				}
			}
			ip.DefSeq++
			if in.HasDst() {
				regs[in.Dst] = def
			}
		}
	}
}

func (ip *Interp) binop(k BinKind, a, b int64) int64 {
	sh := uint64(b) & uint64(ip.Width-1)
	var v int64
	switch k {
	case Add:
		v = a + b
	case Sub:
		v = a - b
	case Mul:
		v = a * b
	case Div:
		switch {
		case b == 0:
			v = -1
		case a == -1<<63 && b == -1:
			v = a
		default:
			v = a / b
		}
	case Rem:
		switch {
		case b == 0:
			v = a
		case a == -1<<63 && b == -1:
			v = 0
		default:
			v = a % b
		}
	case And:
		v = a & b
	case Or:
		v = a | b
	case Xor:
		v = a ^ b
	case Shl:
		v = int64(uint64(a) << sh)
	case LShr:
		v = int64((uint64(a) & ip.mask) >> sh)
	case AShr:
		v = a >> sh
	case Eq:
		v = b2i(a == b)
	case Ne:
		v = b2i(a != b)
	case Lt:
		v = b2i(a < b)
	case Le:
		v = b2i(a <= b)
	case Gt:
		v = b2i(a > b)
	case Ge:
		v = b2i(a >= b)
	case LtU:
		v = b2i(uint64(a)&ip.mask < uint64(b)&ip.mask)
	case GeU:
		v = b2i(uint64(a)&ip.mask >= uint64(b)&ip.mask)
	}
	return ip.wrap(v)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// checkAddr validates an n-byte access at addr (n in {1,2,4,8}) and
// returns its width-masked address: in bounds, then n-aligned.
func (ip *Interp) checkAddr(addr int64, n int) (uint64, error) {
	a := uint64(addr) & ip.mask
	end := a + uint64(n)
	if a < guardTop || end > uint64(len(ip.data)) || end < a {
		return 0, fmt.Errorf("%w: %#x", ErrBadAddress, uint64(addr))
	}
	if a&uint64(n-1) != 0 {
		return 0, fmt.Errorf("%w: %#x size %d", ErrMisaligned, uint64(addr), n)
	}
	return a, nil
}

func (ip *Interp) load(addr int64, n int, unsigned bool) (int64, error) {
	a, err := ip.checkAddr(addr, n)
	if err != nil {
		return 0, err
	}
	v := mem.LoadLE(ip.data[a:], n)
	if !unsigned {
		shift := uint(64 - 8*n)
		return ip.wrap(int64(v<<shift) >> shift), nil
	}
	return ip.wrap(int64(v)), nil
}

func (ip *Interp) store(addr int64, n int, val int64) error {
	a, err := ip.checkAddr(addr, n)
	if err != nil {
		return err
	}
	ip.Mem.Write(a, n, uint64(val))
	return nil
}

// syscall mirrors the platform kernel ABI at the IR level. Note what is
// intentionally absent: no kernel instructions execute, and output bytes
// are copied out instantly — the software-level view has no ESC window
// and no kernel residency, exactly the blindness the paper ascribes to
// SVF tooling.
func (ip *Interp) syscall(num int64, argRegs []int, regs []int64) (int64, error) {
	arg := func(i int) int64 {
		if i < len(argRegs) {
			return regs[argRegs[i]]
		}
		return 0
	}
	return ip.syscallV(num, arg(0), arg(1))
}

// syscallV is the value-based core of syscall: no defined syscall reads
// more than two arguments (Verify enforces the arity), and missing
// argument registers read as 0.
func (ip *Interp) syscallV(num, a0, a1 int64) (int64, error) {
	switch num {
	case 1: // exit
		ip.Exited = true
		ip.ExitCode = a0
		return 0, nil
	case 2: // write(buf, len)
		buf := uint64(a0) & ip.mask
		n := a1
		if n < 0 || n > 1<<20 {
			return -1, nil
		}
		if int64(buf) < guardTop || int64(buf)+n > int64(len(ip.data)) {
			return 0, fmt.Errorf("%w: write(%#x, %d)", ErrBadAddress, buf, n)
		}
		ip.Out = append(ip.Out, ip.data[buf:int64(buf)+n]...)
		return n, nil
	case 3: // read
		return 0, nil
	case 4: // detect
		ip.Detected = true
		ip.DetectCode = a0
		return 0, nil
	case 5: // brk
		return ip.heapEnd, nil
	default:
		return -1, nil
	}
}

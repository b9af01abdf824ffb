package micro

import (
	"fmt"

	"vulnstack/internal/dev"
	"vulnstack/internal/isa"
	"vulnstack/internal/mem"
)

// FPM is the paper's fault propagation model taxonomy (Table I).
type FPM int

const (
	FPMNone FPM = iota
	FPMWD       // Wrong Data
	FPMWI       // Wrong Instruction
	FPMWOI      // Wrong Operand or Immediate
	FPMESC      // Escaped: corrupted output bypassing the program flow
	NumFPM
)

var fpmNames = [...]string{"none", "WD", "WI", "WOI", "ESC"}

func (f FPM) String() string { return fpmNames[f] }

// taintState tracks the single injected fault's propagation until its
// first architecturally visible contact, which fixes the HVF outcome
// and FPM class. Execution continues afterwards for the AVF outcome.
type taintState struct {
	active  bool
	contact bool
	fpm     FPM
	// ContactCycle is the cycle of first architectural visibility.
	contactCycle uint64
}

// Contacted reports whether the injected fault became architecturally
// visible (the HVF event).
func (t *taintState) Contacted() bool { return t.contact }

// Class returns the fault propagation model of the first contact
// (FPMNone when the fault never became visible).
func (t *taintState) Class() FPM { return t.fpm }

// ContactCycle returns the cycle of first visibility.
func (t *taintState) ContactCycle() uint64 { return t.contactCycle }

func (t *taintState) record(c uint64, f FPM) {
	if !t.active || t.contact {
		return
	}
	t.contact = true
	t.fpm = f
	t.contactCycle = c
}

// lsqEntry is one load- or store-queue slot. Its address and data
// fields are injectable storage.
type lsqEntry struct {
	valid   bool
	seq     uint64
	rob     int
	isStore bool
	addr    uint64
	addrOK  bool
	data    uint64
	dataOK  bool
	size    int
	// Field-level fault flags (set by injection into this entry).
	addrTaint bool
	dataTaint bool
	// dataSrcTaint marks store data read from a tainted register or a
	// forwarded tainted value.
	dataSrcTaint bool
}

// robe is a reorder-buffer entry.
type robe struct {
	valid bool
	seq   uint64
	in    isa.Instr
	pc    uint64
	npc   uint64 // predicted next PC (fetch direction)
	mode  isa.Mode

	hasExc   bool
	excCause uint64
	excVal   uint64

	archRd   int // -1 when no register result
	newPhys  int
	oldPhys  int
	src1     int // phys regs, -1 when unused
	src2     int
	issued   bool
	executed bool
	result   uint64

	isLoad    bool
	isStore   bool
	lsq       int // index into lq/sq, -1
	serialize bool

	actualNext uint64
	isCtl      bool

	// Taint bookkeeping.
	tainted    bool // consumed corrupted data
	fetchTaint bool // instruction encoding corrupted
	fetchWI    bool // corruption includes operation-field bits
	lsqAddrT   bool
	lsqDataT   bool
	storeDataT bool
	doneCycle  uint64
	inFlight   bool
}

// fetchEntry is a pre-decoded instruction waiting for dispatch.
type fetchEntry struct {
	pc, npc    uint64
	word       uint32
	in         isa.Instr
	ok         bool // decodable
	fetchExc   bool // fetch fault (bad PC)
	excCause   uint64
	ready      uint64 // cycle at which it may dispatch
	fetchTaint bool
	fetchWI    bool
}

// Core is the out-of-order machine.
type Core struct {
	Cfg Config
	IS  isa.ISA
	Bus *dev.Bus

	ram *ramLevel
	l1i *cache
	l1d *cache
	l2  *cache
	bp  *branchPred

	// Architectural (retirement) state.
	csr    [isa.NumCSRs]uint64
	mode   isa.Mode
	retRAT [32]int

	// Speculative rename state.
	frontRAT [32]int
	prf      []uint64
	prfReady []bool
	prfTaint []bool
	freeList []int

	rob      []robe
	robHead  int
	robTail  int
	robCount int
	seq      uint64

	iq []int // rob indices waiting to issue (program order)

	lq, sq   []lsqEntry
	lqH, lqT int
	sqH, sqT int
	lqN, sqN int

	// fq is the fetch queue: a ring of fqCap slots holding fqN entries
	// from fqHead on, oldest first. fetchStage stops filling at
	// 4×FetchWidth entries and adds at most FetchWidth a cycle, so the
	// ring never fills.
	fq      []fetchEntry
	fqHead  int
	fqN     int
	fetchPC uint64
	// fetchStall pauses fetch until a redirect (after a fetch fault).
	fetchStall bool

	Cycle   uint64
	Instret uint64
	KInstr  uint64

	Taint taintState

	// OnCommit, when set, observes every retired instruction (used by
	// the lockstep checker against the functional emulator).
	OnCommit func(pc uint64, in isa.Instr, mode isa.Mode)

	// completion ring: entries finishing at cycle c are in
	// ring[c % len(ring)]. A drained bucket keeps its capacity.
	ring [][]ringEnt

	// decodeMemo is the predecoded fetch cache (see decode.go). It is
	// derived state — a pure function of fetched words — so it is
	// excluded from the state codec, StateEqual and injection targets.
	decodeMemo []decodeEnt

	// prefixLen and tailOff bound the fixed-size sections of the state
	// encoding (see state.go); enc is StateMatches' encode scratch.
	prefixLen, tailOff int
	enc                []byte

	// rec records the lifetime table (see lifetime.go); nil except
	// during a campaign's golden run.
	rec *recorder
}

// ringEnt identifies a scheduled completion; seq guards against a
// squashed entry's ROB slot being reused before its completion cycle.
type ringEnt struct {
	idx int
	seq uint64
}

const ringSize = 1024

// fqCap is the fetch queue ring's capacity on cfg: one more than the
// 5×FetchWidth−1 entries fetchStage can leave queued.
func fqCap(cfg *Config) int { return 5 * cfg.FetchWidth }

// New builds a core over a loaded memory image, booting at entry in
// kernel mode.
func New(cfg Config, m *mem.Memory, entry uint64) *Core {
	c := newFixed(cfg)
	c.mode, c.fetchPC = isa.Kernel, entry
	c.Bus = dev.NewBus(m)
	c.ram = newRAMLevel(m, cfg.MemLat)
	c.l2 = newCache(cfg.L2, c.ram)
	c.l1i = newCache(cfg.L1I, c.l2)
	c.l1d = newCache(cfg.L1D, c.l2)
	c.Bus.Reader = (*dmaSnooper)(c)

	n := c.IS.NumRegs()
	for i := 0; i < n; i++ {
		c.retRAT[i] = i
		c.frontRAT[i] = i
		c.prfReady[i] = true
	}
	for p := n; p < cfg.PhysRegs; p++ {
		c.freeList = append(c.freeList, p)
	}
	// One slab backs every ring bucket at 2×IssueWidth entries, more
	// than any golden run of the ten benchmarks queues for one cycle; a
	// bucket that outgrows its share reallocates alone.
	k := 2 * cfg.IssueWidth
	slab := make([]ringEnt, ringSize*k)
	c.ring = make([][]ringEnt, ringSize)
	for i := range c.ring {
		c.ring[i] = slab[i*k : i*k : (i+1)*k]
	}
	c.setLayout()
	return c
}

// newFixed allocates the config-sized arrays of the state encoding's
// prefix (register file, ROB, load/store queues, branch predictor):
// everything the prefix's length depends on, and none of the caches.
func newFixed(cfg Config) *Core {
	return &Core{
		Cfg:      cfg,
		IS:       cfg.ISA,
		bp:       newBranchPred(&cfg),
		prf:      make([]uint64, cfg.PhysRegs),
		prfReady: make([]bool, cfg.PhysRegs),
		prfTaint: make([]bool, cfg.PhysRegs),
		rob:      make([]robe, cfg.ROBSize),
		lq:       make([]lsqEntry, cfg.LQSize),
		sq:       make([]lsqEntry, cfg.SQSize),
		fq:       make([]fetchEntry, fqCap(&cfg)),
		iq:       make([]int, 0, cfg.IQSize),
	}
}

// dmaSnooper implements dev.DMAReader over the cache hierarchy so the
// device observes cached (possibly fault-corrupted) data: the ESC path.
type dmaSnooper Core

func (d *dmaSnooper) DMARead(addr uint64) (byte, bool) {
	c := (*Core)(d)
	if b, t, hit := c.l1d.snoop(addr); hit {
		c.dmaTaint(t)
		return b, true
	}
	if b, t, hit := c.l2.snoop(addr); hit {
		c.dmaTaint(t)
		return b, true
	}
	b, ok := c.Bus.Mem.Byte(addr)
	if ok {
		c.dmaTaint(c.ram.taints[addr])
	}
	return b, ok
}

func (d *dmaSnooper) DMAReadNotify(uint64) {}

func (c *Core) dmaTaint(t taintMask) {
	if t != 0 {
		c.Taint.record(c.Cycle, FPMESC)
	}
}

// --- helpers ---

func (c *Core) freePhys(p int) {
	c.regEvent(p, evFree)
	c.freeList = append(c.freeList, p)
}

func (c *Core) allocPhys() (int, bool) {
	if len(c.freeList) == 0 {
		return -1, false
	}
	p := c.freeList[len(c.freeList)-1]
	c.freeList = c.freeList[:len(c.freeList)-1]
	c.regEvent(p, evAlloc)
	return p, true
}

func (c *Core) writePhys(p int, v uint64, tainted bool) {
	c.regEvent(p, evWrite)
	c.prf[p] = v & c.IS.Mask()
	c.prfReady[p] = true
	c.prfTaint[p] = tainted
}

// Step advances the machine one cycle. It returns false once halted.
func (c *Core) Step() bool {
	if c.Bus.Halted() {
		return false
	}
	c.commitStage()
	if c.Bus.Halted() {
		return false
	}
	c.completeStage()
	c.issueStage()
	c.dispatchStage()
	c.fetchStage()
	c.Cycle++
	return true
}

// Run executes until halt or the cycle bound, returning true on halt.
func (c *Core) Run(maxCycles uint64) bool {
	for c.Cycle < maxCycles {
		if !c.Step() {
			return true
		}
	}
	return c.Bus.Halted()
}

// --- fetch ---

func (c *Core) fetchStage() {
	if c.fetchStall || c.fqN >= 4*c.Cfg.FetchWidth {
		return
	}
	for i := 0; i < c.Cfg.FetchWidth; i++ {
		pc := c.fetchPC
		fe := c.fqAt(c.fqN)
		*fe = fetchEntry{}
		fe.pc, fe.ready = pc, c.Cycle+uint64(c.Cfg.FrontLatency)
		if pc%4 != 0 || !c.Bus.Mem.Valid(pc, 4) || mem.IsMMIO(pc) {
			fe.fetchExc = true
			if pc%4 != 0 {
				fe.excCause = isa.CauseMisalignFetch
			} else {
				fe.excCause = isa.CauseFetchFault
			}
			c.fqN++
			c.fetchStall = true
			return
		}
		val, taint, lat := c.l1i.read(pc, 4)
		fe.word = uint32(val)
		if lat > c.Cfg.L1I.HitLat {
			fe.ready += uint64(lat - c.Cfg.L1I.HitLat)
		}
		if taint != 0 {
			fe.fetchTaint = true
			tb := c.l1i.readTaintWord(pc &^ 3)
			wordMask := uint32(tb[0]) | uint32(tb[1])<<8 | uint32(tb[2])<<16 | uint32(tb[3])<<24
			opMask := isa.OperationMask(fe.word, c.IS)
			fe.fetchWI = wordMask&opMask != 0 || wordMask == 0xFFFFFFFF
		}
		fe.in, fe.ok = c.decode(pc, fe.word)
		fe.npc = pc + 4
		if in := &fe.in; fe.ok {
			switch {
			case in.Op == isa.JAL:
				fe.npc = (pc + uint64(in.Imm)) & c.IS.Mask()
				if in.Rd == isa.RegRA {
					c.bp.rasPush(pc + 4)
				}
			case in.Op == isa.JALR:
				if in.Rd == isa.RegZero && in.Rs1 == isa.RegRA {
					fe.npc = c.bp.rasPop()
				} else if t, hit := c.bp.btbLookup(pc); hit {
					fe.npc = t
				}
			case in.Op.IsBranch():
				if c.bp.predictTaken(pc) {
					fe.npc = (pc + uint64(in.Imm)) & c.IS.Mask()
				}
			}
		}
		c.fqN++
		c.fetchPC = fe.npc
		if fe.npc != pc+4 {
			break // redirected: next packet starts at the target
		}
		if lat > c.Cfg.L1I.HitLat {
			break // i-miss ends the fetch packet
		}
	}
}

// fqAt returns the fetch queue's i-th oldest entry (i == fqN is the
// slot the next fetched instruction goes to).
func (c *Core) fqAt(i int) *fetchEntry { return &c.fq[(c.fqHead+i)%len(c.fq)] }

// --- dispatch (rename + allocate) ---

func (c *Core) dispatchStage() {
	width := c.Cfg.IssueWidth
	for n := 0; n < width && c.fqN > 0; n++ {
		fe := &c.fq[c.fqHead]
		if fe.ready > c.Cycle || c.robCount == c.Cfg.ROBSize {
			return
		}
		idx := c.robTail
		e := &c.rob[idx]
		*e = robe{}
		e.valid, e.seq, e.pc, e.npc, e.mode = true, c.seq, fe.pc, fe.npc, c.mode
		e.archRd, e.newPhys, e.oldPhys, e.src1, e.src2, e.lsq = -1, -1, -1, -1, -1, -1
		e.fetchTaint = fe.fetchTaint
		e.fetchWI = fe.fetchWI

		switch {
		case fe.fetchExc:
			e.hasExc, e.excCause, e.excVal = true, fe.excCause, fe.pc
		case !fe.ok:
			e.hasExc, e.excCause, e.excVal = true, isa.CauseIllegal, uint64(fe.word)
		default:
			e.in = fe.in
			in := &e.in
			e.isLoad = in.Op.IsLoad()
			e.isStore = in.Op.IsStore()
			e.isCtl = in.Op.IsBranch() || in.Op.IsJump()
			e.serialize = in.Op == isa.ECALL || in.Op == isa.ERET ||
				in.Op == isa.CSRW || in.Op == isa.CSRR
			if in.Op.ReadsRs1() {
				e.src1 = c.frontRAT[in.Rs1]
			}
			if in.Op.ReadsRs2() {
				e.src2 = c.frontRAT[in.Rs2]
			}
			if in.Op.WritesRd() && in.Rd != isa.RegZero {
				p, ok := c.allocPhys()
				if !ok {
					e.valid = false
					return // no physical register: retry next cycle
				}
				e.archRd = in.Rd
				e.newPhys = p
				e.oldPhys = c.frontRAT[in.Rd]
				c.prfReady[p] = false
				c.frontRAT[in.Rd] = p
			}
			if e.isLoad {
				if c.lqN == c.Cfg.LQSize {
					c.undoRename(e)
					return
				}
				e.lsq = c.lqT
				le := &c.lq[c.lqT]
				*le = lsqEntry{valid: true, seq: e.seq, rob: idx, size: in.Op.MemBytes()}
				c.lqT = (c.lqT + 1) % c.Cfg.LQSize
				c.lqN++
			}
			if e.isStore {
				if c.sqN == c.Cfg.SQSize {
					c.undoRename(e)
					return
				}
				e.lsq = c.sqT
				se := &c.sq[c.sqT]
				*se = lsqEntry{valid: true, seq: e.seq, rob: idx, isStore: true, size: in.Op.MemBytes()}
				c.sqT = (c.sqT + 1) % c.Cfg.SQSize
				c.sqN++
			}
			if len(c.iq) < c.Cfg.IQSize {
				c.iq = append(c.iq, idx)
			} else {
				c.undoLSQ(e)
				c.undoRename(e)
				return
			}
		}

		c.seq++
		c.robTail = (c.robTail + 1) % c.Cfg.ROBSize
		c.robCount++
		c.fqHead = (c.fqHead + 1) % len(c.fq)
		c.fqN--
	}
}

func (c *Core) undoRename(e *robe) {
	if e.newPhys >= 0 {
		c.frontRAT[e.archRd] = e.oldPhys
		c.freePhys(e.newPhys)
		e.newPhys = -1
	}
	e.valid = false
}

func (c *Core) undoLSQ(e *robe) {
	if e.isLoad && e.lsq >= 0 {
		c.lqT = (c.lqT - 1 + c.Cfg.LQSize) % c.Cfg.LQSize
		c.lq[c.lqT].valid = false
		c.lqN--
	}
	if e.isStore && e.lsq >= 0 {
		c.sqT = (c.sqT - 1 + c.Cfg.SQSize) % c.Cfg.SQSize
		c.sq[c.sqT].valid = false
		c.sqN--
	}
	e.lsq = -1
}

// --- issue & execute ---

func opLatency(cfg *Config, op isa.Op) int {
	switch op {
	case isa.MUL:
		return cfg.MulLat
	case isa.DIV, isa.DIVU, isa.REM, isa.REMU:
		return cfg.DivLat
	default:
		return 1
	}
}

func (c *Core) srcVal(p int) (uint64, bool) {
	if p < 0 {
		return 0, false
	}
	c.regEvent(p, evRead)
	return c.prf[p], c.prfTaint[p]
}

func (c *Core) issueStage() {
	issued := 0
	memIssued := 0
	// One compaction pass: c.iq[:kept] holds the entries that stay, in
	// program order; issued and stale entries are dropped.
	kept, qi := 0, 0
	for ; qi < len(c.iq) && issued < c.Cfg.IssueWidth; qi++ {
		idx := c.iq[qi]
		e := &c.rob[idx]
		if !e.valid || e.issued {
			continue
		}
		switch {
		case e.src1 >= 0 && !c.prfReady[e.src1],
			e.src2 >= 0 && !c.prfReady[e.src2],
			e.serialize && idx != c.robHead,
			(e.isLoad || e.isStore) && memIssued >= c.Cfg.MemPorts:
			c.iq[kept] = idx
			kept++
			continue
		}
		if e.serialize {
			c.executeSerialize(idx, e)
			issued++
			continue
		}
		if e.isLoad || e.isStore {
			if !c.executeMem(idx, e) {
				// Blocked on older stores or MMIO ordering.
				c.iq[kept] = idx
				kept++
				continue
			}
			memIssued++
			issued++
			continue
		}
		c.executeALU(idx, e)
		issued++
		if e.isCtl && e.actualNext != e.npc {
			// Mispredicted: squash with the queue compacted.
			c.iq = append(c.iq[:kept], c.iq[qi+1:]...)
			c.squashAfter(idx, e.actualNext)
			return
		}
	}
	c.iq = append(c.iq[:kept], c.iq[qi:]...)
}

func (c *Core) schedule(idx int, lat int) {
	e := &c.rob[idx]
	e.issued = true
	e.inFlight = true
	e.doneCycle = c.Cycle + uint64(lat)
	slot := &c.ring[e.doneCycle%ringSize]
	*slot = append(*slot, ringEnt{idx, e.seq})
}

// executeALU computes non-memory operations.
func (c *Core) executeALU(idx int, e *robe) {
	in := e.in
	a, t1 := c.srcVal(e.src1)
	b, t2 := c.srcVal(e.src2)
	e.tainted = e.tainted || t1 || t2
	sx := c.IS.SignExtend
	mask := c.IS.Mask()
	var r uint64
	switch in.Op {
	case isa.ADD:
		r = a + b
	case isa.SUB:
		r = a - b
	case isa.SLL:
		r = a << (b & uint64(c.IS.XLen()-1))
	case isa.SLT:
		r = bo(int64(sx(a)) < int64(sx(b)))
	case isa.SLTU:
		r = bo(a < b)
	case isa.XOR:
		r = a ^ b
	case isa.SRL:
		r = a >> (b & uint64(c.IS.XLen()-1))
	case isa.SRA:
		r = uint64(int64(sx(a)) >> (b & uint64(c.IS.XLen()-1)))
	case isa.OR:
		r = a | b
	case isa.AND:
		r = a & b
	case isa.MUL:
		r = a * b
	case isa.DIV:
		r = divS64(sx(a), sx(b))
	case isa.DIVU:
		r = divU64(a, b, mask)
	case isa.REM:
		r = remS64(sx(a), sx(b))
	case isa.REMU:
		r = remU64(a, b)
	case isa.ADDI:
		r = a + uint64(in.Imm)
	case isa.SLLI:
		r = a << uint64(in.Imm)
	case isa.SLTI:
		r = bo(int64(sx(a)) < in.Imm)
	case isa.SLTIU:
		r = bo(a < uint64(in.Imm)&mask)
	case isa.XORI:
		r = a ^ uint64(in.Imm)
	case isa.SRLI:
		r = a >> uint64(in.Imm)
	case isa.SRAI:
		r = uint64(int64(sx(a)) >> uint64(in.Imm))
	case isa.ORI:
		r = a | uint64(in.Imm)
	case isa.ANDI:
		r = a & uint64(in.Imm)
	case isa.LUI:
		r = uint64(in.Imm)
	case isa.JAL, isa.JALR:
		r = e.pc + 4
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		r = 0
	default:
		r = 0
	}
	e.result = r & mask

	// Control flow: compute the actual next PC.
	switch {
	case in.Op.IsBranch():
		if emuBranch(in.Op, sx(a), sx(b)) {
			e.actualNext = (e.pc + uint64(in.Imm)) & mask
		} else {
			e.actualNext = e.pc + 4
		}
		c.bp.updateTaken(e.pc, e.actualNext != e.pc+4)
	case in.Op == isa.JAL:
		e.actualNext = (e.pc + uint64(in.Imm)) & mask
	case in.Op == isa.JALR:
		e.actualNext = (a + uint64(in.Imm)) & mask
		c.bp.btbInsert(e.pc, e.actualNext)
	}

	c.schedule(idx, opLatency(&c.Cfg, in.Op))
}

// executeMem handles load/store issue; returns false when blocked.
func (c *Core) executeMem(idx int, e *robe) bool {
	in := e.in
	a, t1 := c.srcVal(e.src1)
	addr := (a + uint64(in.Imm)) & c.IS.Mask()
	size := in.Op.MemBytes()

	if e.isStore {
		se := &c.sq[e.lsq]
		d, t2 := c.srcVal(e.src2)
		se.addr, se.addrOK = addr, true
		se.data, se.dataOK = d, true
		se.dataSrcTaint = t2
		e.tainted = e.tainted || t1 || t2
		e.storeDataT = t2
		// Validity checks: raise at commit.
		if mem.IsMMIO(addr) {
			if e.mode != isa.Kernel {
				e.hasExc, e.excCause, e.excVal = true, isa.CausePrivilege, addr
			}
		} else if addr&uint64(size-1) != 0 {
			e.hasExc, e.excCause, e.excVal = true, isa.CauseMisalignStore, addr
		} else if !c.Bus.Mem.Valid(addr, size) {
			e.hasExc, e.excCause, e.excVal = true, isa.CauseStoreFault, addr
		}
		c.schedule(idx, 1)
		return true
	}

	// Load: record the address in the LQ (injectable state).
	le := &c.lq[e.lsq]
	if !le.addrOK {
		le.addr, le.addrOK = addr, true
	}
	eff := le.addr // possibly corrupted by an injected LQ address flip
	e.tainted = e.tainted || t1
	if le.addrTaint {
		e.lsqAddrT = true
	}

	if mem.IsMMIO(eff) {
		if e.mode != isa.Kernel {
			e.hasExc, e.excCause, e.excVal = true, isa.CausePrivilege, eff
			c.schedule(idx, 1)
			return true
		}
		// Device loads are performed non-speculatively at the head.
		if idx != c.robHead {
			return false
		}
		v, ok := c.Bus.Load(eff, size)
		if !ok {
			e.hasExc, e.excCause, e.excVal = true, isa.CauseLoadFault, eff
		}
		e.result = v
		c.schedule(idx, 2)
		return true
	}
	if eff&uint64(size-1) != 0 {
		e.hasExc, e.excCause, e.excVal = true, isa.CauseMisalignLoad, eff
		c.schedule(idx, 1)
		return true
	}
	if !c.Bus.Mem.Valid(eff, size) {
		e.hasExc, e.excCause, e.excVal = true, isa.CauseLoadFault, eff
		c.schedule(idx, 1)
		return true
	}

	// Memory ordering: all older stores must have known addresses; an
	// overlapping older store either forwards (exact match) or blocks.
	var fwd *lsqEntry
	for i, n := c.sqH, c.sqN; n > 0; i, n = (i+1)%c.Cfg.SQSize, n-1 {
		se := &c.sq[i]
		if !se.valid || se.seq >= e.seq {
			continue
		}
		if !se.addrOK {
			return false
		}
		if rangesOverlap(se.addr, se.size, eff, size) {
			if se.addr == eff && se.size >= size && se.dataOK {
				fwd = se
			} else {
				return false // partial overlap: wait for the store
			}
		}
	}

	var val uint64
	var lat int
	var tainted bool
	if fwd != nil {
		val = fwd.data
		lat = 1
		tainted = fwd.dataSrcTaint || fwd.dataTaint
	} else {
		v, tm, l := c.l1d.read(eff, size)
		val, lat = v, l
		tainted = tm != 0
	}
	if !in.Op.MemUnsigned() {
		shift := uint(64 - 8*size)
		val = uint64(int64(val<<shift)>>shift) & c.IS.Mask()
	}
	e.result = val
	e.tainted = e.tainted || tainted
	c.schedule(idx, lat)
	return true
}

func rangesOverlap(a uint64, an int, b uint64, bn int) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}

// executeSerialize runs head-only instructions (CSR, ECALL, ERET).
func (c *Core) executeSerialize(idx int, e *robe) {
	switch e.in.Op {
	case isa.CSRR:
		if e.mode != isa.Kernel {
			e.hasExc, e.excCause = true, isa.CausePrivilege
		} else {
			e.result = c.csr[e.in.Imm] & c.IS.Mask()
		}
	case isa.CSRW:
		if e.mode != isa.Kernel {
			e.hasExc, e.excCause = true, isa.CausePrivilege
		}
		a, t := c.srcVal(e.src1)
		e.result = a
		e.tainted = e.tainted || t
	case isa.ERET:
		if e.mode != isa.Kernel {
			e.hasExc, e.excCause = true, isa.CausePrivilege
		}
	}
	c.schedule(idx, 1)
}

// --- completion / writeback ---

func (c *Core) completeStage() {
	bucket := c.ring[c.Cycle%ringSize]
	if len(bucket) == 0 {
		return
	}
	c.ring[c.Cycle%ringSize] = bucket[:0]
	for _, re := range bucket {
		e := &c.rob[re.idx]
		if !e.valid || e.seq != re.seq || !e.inFlight || e.doneCycle != c.Cycle {
			continue // stale (squashed, possibly with the slot reused)
		}
		e.inFlight = false
		e.executed = true
		if e.newPhys >= 0 {
			c.writePhys(e.newPhys, e.result, e.tainted)
		}
	}
}

// --- commit ---

func (c *Core) commitStage() {
	for n := 0; n < c.Cfg.CommitWidth && c.robCount > 0; n++ {
		idx := c.robHead
		e := &c.rob[idx]
		if !e.valid {
			return
		}
		if e.hasExc {
			c.recordContactFor(e)
			c.raiseTrap(e)
			return
		}
		if !e.executed {
			return
		}

		// Architectural effects.
		switch {
		case e.isStore:
			se := &c.sq[e.lsq]
			addr, data := se.addr, se.data
			if se.addrTaint {
				e.lsqAddrT = true
			}
			if se.dataTaint {
				e.lsqDataT = true
			}
			tainted := se.dataSrcTaint || se.dataTaint
			if mem.IsMMIO(addr) {
				if e.mode != isa.Kernel {
					e.hasExc, e.excCause, e.excVal = true, isa.CausePrivilege, addr
					c.recordContactFor(e)
					c.raiseTrap(e)
					return
				}
				c.Bus.Store(addr, se.size, data)
				if c.Bus.Halted() {
					// The halting store still retires (the reference
					// model counts it).
					c.recordContactFor(e)
					c.Instret++
					if e.mode == isa.Kernel {
						c.KInstr++
					}
					if c.OnCommit != nil {
						c.OnCommit(e.pc, e.in, e.mode)
					}
					return
				}
			} else if addr%uint64(se.size) != 0 || !c.Bus.Mem.Valid(addr, se.size) {
				// The injected address corruption surfaced at commit.
				e.hasExc = true
				if addr%uint64(se.size) != 0 {
					e.excCause = isa.CauseMisalignStore
				} else {
					e.excCause = isa.CauseStoreFault
				}
				e.excVal = addr
				c.recordContactFor(e)
				c.raiseTrap(e)
				return
			} else {
				c.l1d.write(addr, se.size, data, tainted)
			}
			c.sqH = (c.sqH + 1) % c.Cfg.SQSize
			se.valid = false
			c.sqN--
			e.lsq = -1
		case e.isLoad:
			le := &c.lq[e.lsq]
			c.lqH = (c.lqH + 1) % c.Cfg.LQSize
			le.valid = false
			c.lqN--
			e.lsq = -1
		case e.in.Op == isa.CSRW:
			c.csr[e.in.Imm] = e.result
		}

		if e.archRd >= 0 {
			old := c.retRAT[e.archRd]
			c.retRAT[e.archRd] = e.newPhys
			if old != e.newPhys {
				c.freePhys(old)
			}
		}

		c.recordContactFor(e)
		c.Instret++
		if e.mode == isa.Kernel {
			c.KInstr++
		}
		if c.OnCommit != nil {
			c.OnCommit(e.pc, e.in, e.mode)
		}

		// Post-commit redirects for traps and ERET.
		switch e.in.Op {
		case isa.ECALL:
			e.hasExc, e.excCause, e.excVal = true, isa.CauseSyscall, 0
			c.raiseTrap(e)
			return
		case isa.ERET:
			c.mode = isa.User
			c.flushPipeline(c.csr[isa.CsrSEPC])
			return
		}

		c.robHead = (c.robHead + 1) % c.Cfg.ROBSize
		e.valid = false
		c.robCount--
	}
}

// recordContactFor translates an entry's taint flags into the first
// architectural contact, in paper FPM terms.
func (c *Core) recordContactFor(e *robe) {
	if !c.Taint.active || c.Taint.contact {
		return
	}
	switch {
	case e.fetchTaint && e.fetchWI:
		c.Taint.record(c.Cycle, FPMWI)
	case e.fetchTaint:
		c.Taint.record(c.Cycle, FPMWOI)
	case e.lsqAddrT:
		c.Taint.record(c.Cycle, FPMWOI)
	case e.lsqDataT:
		c.Taint.record(c.Cycle, FPMWD)
	case e.tainted:
		c.Taint.record(c.Cycle, FPMWD)
	}
}

// raiseTrap redirects to the kernel trap vector. A trap taken from
// kernel mode (including ECALL) is a double fault: the machine halts
// with a panic, matching the reference emulator.
func (c *Core) raiseTrap(e *robe) {
	if e.mode == isa.Kernel {
		c.Bus.Halt = dev.HaltPanic
		c.Bus.PanicCode = e.excCause
		return
	}
	c.csr[isa.CsrSEPC] = e.pc
	c.csr[isa.CsrSCAUSE] = e.excCause
	c.csr[isa.CsrSTVAL] = e.excVal
	c.mode = isa.Kernel
	c.flushPipeline(c.csr[isa.CsrTVEC])
}

// flushPipeline squashes everything and restarts fetch at pc.
func (c *Core) flushPipeline(pc uint64) {
	for c.robCount > 0 {
		t := (c.robTail - 1 + c.Cfg.ROBSize) % c.Cfg.ROBSize
		c.rollbackEntry(&c.rob[t])
		c.rob[t].valid = false
		c.robTail = t
		c.robCount--
	}
	c.iq = c.iq[:0]
	c.fqN = 0
	c.fetchPC = pc
	c.fetchStall = false
	// ERET/trap entry consumed the head entry as well.
}

// squashAfter removes every entry younger than idx and redirects fetch.
func (c *Core) squashAfter(idx int, target uint64) {
	seq := c.rob[idx].seq
	for c.robCount > 0 {
		t := (c.robTail - 1 + c.Cfg.ROBSize) % c.Cfg.ROBSize
		if c.rob[t].seq <= seq && c.rob[t].valid {
			break
		}
		c.rollbackEntry(&c.rob[t])
		c.rob[t].valid = false
		c.robTail = t
		c.robCount--
	}
	// Drop squashed entries from the issue queue.
	kept := c.iq[:0]
	for _, qi := range c.iq {
		if c.rob[qi].valid && c.rob[qi].seq <= seq {
			kept = append(kept, qi)
		}
	}
	c.iq = kept
	c.fqN = 0
	c.fetchPC = target
	c.fetchStall = false
}

// rollbackEntry undoes rename and queue allocation of a squashed entry.
func (c *Core) rollbackEntry(e *robe) {
	if !e.valid {
		return
	}
	if e.newPhys >= 0 {
		c.frontRAT[e.archRd] = e.oldPhys
		c.freePhys(e.newPhys)
	}
	if e.isLoad && e.lsq >= 0 {
		c.lqT = (c.lqT - 1 + c.Cfg.LQSize) % c.Cfg.LQSize
		c.lq[c.lqT].valid = false
		c.lqN--
	}
	if e.isStore && e.lsq >= 0 {
		c.sqT = (c.sqT - 1 + c.Cfg.SQSize) % c.Cfg.SQSize
		c.sq[c.sqT].valid = false
		c.sqN--
	}
	e.inFlight = false
}

// --- architectural inspection (for lockstep checking) ---

// ArchReg returns the committed architectural value of register r.
func (c *Core) ArchReg(r int) uint64 {
	if r == 0 {
		return 0
	}
	return c.prf[c.retRAT[r]]
}

// Mode returns the current privilege mode at retirement.
func (c *Core) Mode() isa.Mode { return c.mode }

// CSR returns a control register value.
func (c *Core) CSR(i int) uint64 { return c.csr[i] }

// FlushCaches writes all dirty lines back to RAM (test helper for
// comparing final memory images against the reference emulator).
func (c *Core) FlushCaches() {
	c.l1d.flushAll()
	c.l1i.flushAll()
	c.l2.flushAll()
}

// --- small helpers (duplicated from emu to keep packages decoupled) ---

func bo(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func emuBranch(op isa.Op, a, b uint64) bool {
	switch op {
	case isa.BEQ:
		return a == b
	case isa.BNE:
		return a != b
	case isa.BLT:
		return int64(a) < int64(b)
	case isa.BGE:
		return int64(a) >= int64(b)
	case isa.BLTU:
		return a < b
	case isa.BGEU:
		return a >= b
	}
	return false
}

func divS64(a, b uint64) uint64 {
	ia, ib := int64(a), int64(b)
	switch {
	case ib == 0:
		return ^uint64(0)
	case ia == -1<<63 && ib == -1:
		return a
	default:
		return uint64(ia / ib)
	}
}

func divU64(a, b, mask uint64) uint64 {
	if b == 0 {
		return mask
	}
	return a / b
}

func remS64(a, b uint64) uint64 {
	ia, ib := int64(a), int64(b)
	switch {
	case ib == 0:
		return a
	case ia == -1<<63 && ib == -1:
		return 0
	default:
		return uint64(ia % ib)
	}
}

func remU64(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}

// String summarizes machine state (debug aid).
func (c *Core) String() string {
	return fmt.Sprintf("cycle=%d instret=%d pc=%#x rob=%d iq=%d lq=%d sq=%d mode=%v",
		c.Cycle, c.Instret, c.fetchPC, c.robCount, len(c.iq), c.lqN, c.sqN, c.mode)
}

// Package tb is the translation-block execution plane: straight-line
// superblocks of guest code are discovered once, predecoded into flat
// buffers of resolved micro-ops, and executed block-at-a-time through a
// direct-threaded dispatch loop — removing the per-instruction fetch,
// decode, and operand-extraction cost that dominates per-injection time
// at the arch and soft layers.
//
// Soundness under fault injection is the design constraint:
//
//   - Code corruption. Blocks are keyed by (entry PC, content version
//     of every covered 256-byte granule) and keep the instruction words
//     they were decoded from. Building a block flags its granules as
//     code in mem.Memory before capturing their versions, and every
//     content mutation of a flagged granule — data stores, injected bit
//     flips, checkpoint restores — bumps its version. A block whose
//     versions moved is checked word by word at the next lookup: equal
//     words re-stamp its versions (a data store that shares a granule
//     with code), a changed word (a WI/WOI flip into text or a
//     self-modifying store) forces a re-decode. A store issued from
//     *inside* a block that hits a flagged granule runs the same check
//     on the block before the next op. A stale predecoded op is
//     therefore never executed. Flags come from block builds, not from
//     the image's text range: a corrupted jump can decode a block from
//     data, and that granule must be versioned from then on.
//   - Fault landing. The engine stops at exact committed-instruction
//     boundaries (Run's limit clips the in-block op budget), so
//     register/state faults land mid-block exactly where the
//     step-by-step engine would have landed them.
//   - Precise traps. A potentially-trapping op materializes its own
//     architectural PC before faulting, so SEPC/STVAL are bit-exact;
//     a trapping op does not commit, matching emu.Exec.
package tb

import (
	"sync/atomic"

	"vulnstack/internal/emu"
	"vulnstack/internal/isa"
	"vulnstack/internal/mem"
)

// Micro-op handler indices. ALU ops whose destination is r0 are folded
// to uNOP at predecode (they have no architectural effect), so ALU
// handlers write their destination register unconditionally.
const (
	uNOP = iota
	uADD
	uSUB
	uSLL
	uSLT
	uSLTU
	uXOR
	uSRL
	uSRA
	uOR
	uAND
	uMUL
	uDIV
	uDIVU
	uREM
	uREMU
	uADDI
	uSLLI
	uSLTI
	uSLTIU
	uXORI
	uSRLI
	uSRAI
	uORI
	uANDI
	uLUI
	uLOAD  // sign-extending load, size in n
	uLOADU // zero-extending load, size in n
	uLD    // 8-byte load
	uSTORE // size in n
	uSD    // 8-byte store
	uBEQ
	uBNE
	uBLT
	uBGE
	uBLTU
	uBGEU
	uJAL
	uJALR
	uECALL
	uERET
	uCSRW
	uCSRR
)

// uop is one predecoded micro-op: operands pre-extracted, handler
// pre-selected. imm carries the sign-extended immediate (or the CSR
// index for uCSRW/uCSRR).
type uop struct {
	code uint8
	rd   uint8
	rs1  uint8
	rs2  uint8
	n    uint8 // memory access size in bytes
	imm  int64
}

// block is one cached superblock: the predecoded straight-line run
// from entry up to and including the first control-flow instruction
// (or a size/span/decode boundary). chunks/vers record the content
// version of every 256-byte granule the block was decoded from; a
// mismatch at lookup (or after an in-block store to a code granule)
// sends the block to a compare of its words against memory.
type block struct {
	entry   uint64
	ops     []uop
	words   []uint32 // the instruction word of each op
	nchunks int
	chunks  [5]uint32
	vers    [5]uint32
	// kept is the block this one displaced from its slot, decoded at
	// the same entry from other words. A WI/WOI flip replaces a block,
	// and the restore that flips the word back brings the kept block's
	// words back: lookup re-stamps it instead of decoding it again.
	kept *block
}

const (
	// cacheBits sizes the direct-mapped block cache: 1<<cacheBits slots
	// index 4*2^cacheBits bytes of text without aliasing. 16 covers
	// 256 KiB — larger than any study image's text — so two hot blocks
	// never thrash one slot; the pointer array costs 512 KiB per worker.
	cacheBits = 16
	maxOps    = 256 // ops per block; with 4-byte ops a block spans at most 5 version granules
)

// Engine drives one emu.CPU block-at-a-time. It is single-goroutine,
// like the CPU itself; campaigns hold one engine per worker arena.
type Engine struct {
	cpu *emu.CPU
	m   *mem.Memory

	blocks []*block

	// build decodes into these before copying a block out at its size.
	opBuf   [maxOps]uop
	wordBuf [maxOps]uint32

	mask uint64 // ISA value mask
	xsh  uint64 // 64 - XLen: shift pair for sign extension
	shm  uint64 // XLen - 1: shift-amount mask for register shifts

	// Paranoid, when non-nil, makes the dispatch loop refetch every
	// op's instruction word from memory and compare it against the
	// predecoded copy, counting each check; executing a stale op panics.
	// A pure validation mode for the SMC-invalidation tests.
	Paranoid *atomic.Uint64
}

// New builds an engine over c, enabling per-granule content versioning
// on its memory. The CPU remains fully usable step-by-step; the engine
// only batches execution between architectural boundaries.
func New(c *emu.CPU) *Engine {
	m := c.Bus.Mem
	m.EnableCodeVersions()
	xlen := uint64(c.ISA.XLen())
	return &Engine{
		cpu:    c,
		m:      m,
		blocks: make([]*block, 1<<cacheBits),
		mask:   c.ISA.Mask(),
		xsh:    64 - xlen,
		shm:    xlen - 1,
	}
}

// CPU returns the engine's CPU.
func (e *Engine) CPU() *emu.CPU { return e.cpu }

// Run executes until halt or until the committed-instruction count
// reaches limit — an exact architectural boundary, so callers can land
// faults or compare convergence probes mid-block. Like emu.CPU.Run it
// returns true when the machine halted and false on limit expiry.
// A CPU with an OnCommit observer falls back to step-by-step execution
// (the observer contract is per-instruction).
func (e *Engine) Run(limit uint64) bool {
	c := e.cpu
	if c.OnCommit != nil {
		return c.Run(limit)
	}
	for c.Instret < limit {
		if c.Bus.Halted() {
			return true
		}
		b := e.lookup(c.PC)
		if b == nil {
			// Misaligned/unmapped/illegal entry: one step traps it.
			if !c.Step() {
				return true
			}
			continue
		}
		e.exec(b, limit)
	}
	return c.Bus.Halted()
}

// lookup returns a fresh block starting at pc, building and caching one
// on miss. nil means no block can start here (misaligned PC, fetch
// fault, or undecodable first word) and the caller must fall back to
// Step, which takes the architectural trap.
func (e *Engine) lookup(pc uint64) *block {
	if pc%4 != 0 {
		return nil
	}
	slot := (pc >> 2) & (1<<cacheBits - 1)
	old := e.blocks[slot]
	if old != nil && old.entry == pc {
		if e.fresh(old) {
			return old
		}
		// The words under old changed. If they are back to the ones the
		// block it displaced was decoded from, that block is current.
		if k := old.kept; k != nil && e.fresh(k) {
			old.kept, k.kept = nil, old
			e.blocks[slot] = k
			return k
		}
	} else {
		old = nil
	}
	b := e.build(pc)
	if b == nil {
		return nil
	}
	if old != nil {
		old.kept, b.kept = nil, old
	}
	e.blocks[slot] = b
	return b
}

// fresh reports whether the block's ops still match memory. While every
// granule it was decoded from keeps the version captured at build time
// they do; when one moved, its words are compared with memory, and
// unchanged words re-stamp the versions instead of a re-decode.
func (e *Engine) fresh(b *block) bool {
	for i := 0; i < b.nchunks; i++ {
		if e.m.ChunkVersion(b.chunks[i]) != b.vers[i] {
			return e.revalidate(b)
		}
	}
	return true
}

// revalidate compares the block's instruction words with memory and, if
// none changed, captures its granules' current versions.
func (e *Engine) revalidate(b *block) bool {
	for i, w := range b.words {
		if got, ok := e.m.Word32(b.entry + 4*uint64(i)); !ok || got != w {
			return false
		}
	}
	for i := 0; i < b.nchunks; i++ {
		b.vers[i] = e.m.ChunkVersion(b.chunks[i])
	}
	return true
}

// addChunk registers the version granule covering pc, flagging it as
// code and then capturing its current content version. It reports false
// when the block already spans the maximum number of granules and pc
// starts another (the block ends before pc). Decode walks pc
// sequentially, so comparing against the last registered granule
// suffices.
func (b *block) addChunk(m *mem.Memory, pc uint64) bool {
	c := uint32(pc >> mem.VerShift)
	if b.nchunks > 0 && b.chunks[b.nchunks-1] == c {
		return true
	}
	if b.nchunks == len(b.chunks) {
		return false
	}
	m.FlagCode(c)
	b.chunks[b.nchunks] = c
	b.vers[b.nchunks] = m.ChunkVersion(c)
	b.nchunks++
	return true
}

// build predecodes the superblock starting at pc: sequential decode up
// to and including the first control-flow instruction, stopping early
// at a fetch fault, an undecodable word, the op cap, or the granule
// cap. It decodes into the engine's buffers and allocates the block's
// op and word slices once, at their final length.
func (e *Engine) build(pc uint64) *block {
	b := &block{entry: pc}
	is := e.cpu.ISA
	n := 0
	for n < maxOps {
		if !b.addChunk(e.m, pc) {
			break
		}
		w, ok := e.m.Word32(pc)
		if !ok {
			break
		}
		in, ok := isa.Decode(w, is)
		if !ok {
			break
		}
		u, term := encode(in)
		e.opBuf[n], e.wordBuf[n] = u, w
		n++
		if term {
			break
		}
		pc += 4
	}
	if n == 0 {
		return nil
	}
	b.ops = append([]uop(nil), e.opBuf[:n]...)
	b.words = append([]uint32(nil), e.wordBuf[:n]...)
	return b
}

// encode maps a decoded instruction to its micro-op, reporting whether
// it terminates the block (control flow or privilege transfer).
func encode(in isa.Instr) (uop, bool) {
	u := uop{rd: uint8(in.Rd), rs1: uint8(in.Rs1), rs2: uint8(in.Rs2), imm: in.Imm}
	switch in.Op {
	case isa.ADD, isa.SUB, isa.SLL, isa.SLT, isa.SLTU, isa.XOR, isa.SRL,
		isa.SRA, isa.OR, isa.AND, isa.MUL, isa.DIV, isa.DIVU, isa.REM, isa.REMU:
		if in.Rd == 0 {
			return uop{code: uNOP}, false
		}
		u.code = uADD + uint8(in.Op-isa.ADD)
	case isa.ADDI, isa.SLLI, isa.SLTI, isa.SLTIU, isa.XORI, isa.SRLI,
		isa.SRAI, isa.ORI, isa.ANDI:
		if in.Rd == 0 {
			return uop{code: uNOP}, false
		}
		u.code = uADDI + uint8(in.Op-isa.ADDI)
	case isa.LUI:
		if in.Rd == 0 {
			return uop{code: uNOP}, false
		}
		u.code = uLUI
	case isa.LD:
		u.code, u.n = uLD, 8
	case isa.LB, isa.LH, isa.LW, isa.LBU, isa.LHU, isa.LWU:
		u.code = uLOAD
		if in.Op.MemUnsigned() {
			u.code = uLOADU
		}
		u.n = uint8(in.Op.MemBytes())
	case isa.SD:
		u.code, u.n = uSD, 8
	case isa.SB, isa.SH, isa.SW:
		u.code, u.n = uSTORE, uint8(in.Op.MemBytes())
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		u.code = uBEQ + uint8(in.Op-isa.BEQ)
		return u, true
	case isa.JAL:
		u.code = uJAL
		return u, true
	case isa.JALR:
		u.code = uJALR
		return u, true
	case isa.ECALL:
		u.code = uECALL
		return u, true
	case isa.ERET:
		u.code = uERET
		return u, true
	case isa.CSRW:
		u.code = uCSRW
	case isa.CSRR:
		u.code = uCSRR
	}
	return u, false
}

// flush commits n ops' worth of instruction counters in one batch. The
// privilege mode is constant within a block (any mode change terminates
// it), so the kernel-committed count batches too.
func (e *Engine) flush(kern bool, n int) {
	c := e.cpu
	c.Instret += uint64(n)
	if kern {
		c.KernelInstret += uint64(n)
	}
}

// exec runs b's ops from the top, committing at most limit-Instret of
// them. On return the CPU is at an exact architectural boundary:
// counters flushed, PC pointing at the next instruction (or the trap
// vector).
func (e *Engine) exec(b *block, limit uint64) {
	c := e.cpu
	n := len(b.ops)
	if budget := limit - c.Instret; uint64(n) > budget {
		n = int(budget)
	}
	ops := b.ops
	regs := &c.Regs
	m := e.m
	mask, xsh, shm := e.mask, e.xsh, e.shm
	entry := b.entry
	kern := c.Mode == isa.Kernel

	for i := 0; i < n; i++ {
		u := &ops[i]
		if e.Paranoid != nil {
			e.check(b, i)
		}
		switch u.code {
		case uNOP:
		case uADD:
			regs[u.rd] = (regs[u.rs1] + regs[u.rs2]) & mask
		case uSUB:
			regs[u.rd] = (regs[u.rs1] - regs[u.rs2]) & mask
		case uSLL:
			regs[u.rd] = (regs[u.rs1] << (regs[u.rs2] & shm)) & mask
		case uSLT:
			regs[u.rd] = boolTo(int64(regs[u.rs1]<<xsh)>>xsh < int64(regs[u.rs2]<<xsh)>>xsh)
		case uSLTU:
			regs[u.rd] = boolTo(regs[u.rs1] < regs[u.rs2])
		case uXOR:
			regs[u.rd] = (regs[u.rs1] ^ regs[u.rs2]) & mask
		case uSRL:
			regs[u.rd] = (regs[u.rs1] >> (regs[u.rs2] & shm)) & mask
		case uSRA:
			regs[u.rd] = uint64(int64(regs[u.rs1]<<xsh)>>xsh>>(regs[u.rs2]&shm)) & mask
		case uOR:
			regs[u.rd] = (regs[u.rs1] | regs[u.rs2]) & mask
		case uAND:
			regs[u.rd] = (regs[u.rs1] & regs[u.rs2]) & mask
		case uMUL:
			regs[u.rd] = (regs[u.rs1] * regs[u.rs2]) & mask
		case uDIV:
			regs[u.rd] = emu.DivS(sx(regs[u.rs1], xsh), sx(regs[u.rs2], xsh)) & mask
		case uDIVU:
			regs[u.rd] = emu.DivU(regs[u.rs1], regs[u.rs2], mask) & mask
		case uREM:
			regs[u.rd] = emu.RemS(sx(regs[u.rs1], xsh), sx(regs[u.rs2], xsh)) & mask
		case uREMU:
			regs[u.rd] = emu.RemU(regs[u.rs1], regs[u.rs2]) & mask
		case uADDI:
			regs[u.rd] = (regs[u.rs1] + uint64(u.imm)) & mask
		case uSLLI:
			regs[u.rd] = (regs[u.rs1] << uint64(u.imm)) & mask
		case uSLTI:
			regs[u.rd] = boolTo(int64(regs[u.rs1]<<xsh)>>xsh < u.imm)
		case uSLTIU:
			regs[u.rd] = boolTo(regs[u.rs1] < uint64(u.imm)&mask)
		case uXORI:
			regs[u.rd] = (regs[u.rs1] ^ uint64(u.imm)) & mask
		case uSRLI:
			regs[u.rd] = (regs[u.rs1] >> uint64(u.imm)) & mask
		case uSRAI:
			regs[u.rd] = uint64(int64(regs[u.rs1]<<xsh)>>xsh>>uint64(u.imm)) & mask
		case uORI:
			regs[u.rd] = (regs[u.rs1] | uint64(u.imm)) & mask
		case uANDI:
			regs[u.rd] = (regs[u.rs1] & uint64(u.imm)) & mask
		case uLUI:
			regs[u.rd] = uint64(u.imm) & mask

		// Loads and stores take an inline path when the access is
		// aligned, outside the MMIO window and inside RAM — where
		// emu.load/store cannot trap or touch a device. Every other
		// access runs with full Step semantics, trap included.
		case uLD:
			addr := (regs[u.rs1] + uint64(u.imm)) & mask
			v, ok := uint64(0), false
			if addr&7 == 0 {
				v, ok = m.Read(addr, 8) // RAM lies below the MMIO window
			}
			if !ok {
				c.PC = entry + 4*uint64(i)
				if v, ok = c.LoadMem(addr, 8, false); !ok {
					e.flush(kern, i)
					return
				}
			}
			if u.rd != 0 {
				regs[u.rd] = v & mask
			}

		case uLOAD, uLOADU:
			addr := (regs[u.rs1] + uint64(u.imm)) & mask
			sz := int(u.n)
			v, ok := uint64(0), false
			if addr&uint64(sz-1) == 0 && !mem.IsMMIO(addr) {
				v, ok = m.Read(addr, sz)
			}
			if ok {
				if u.code == uLOAD {
					sh := 64 - 8*uint(sz)
					v = uint64(int64(v<<sh) >> sh)
				}
			} else {
				c.PC = entry + 4*uint64(i)
				if v, ok = c.LoadMem(addr, sz, u.code == uLOADU); !ok {
					e.flush(kern, i)
					return
				}
			}
			if u.rd != 0 {
				regs[u.rd] = v & mask
			}

		// An 8-byte store into a plain page (dirty already, no code
		// granule: mem.Memory.Store64) is only the word write.
		case uSD:
			addr := (regs[u.rs1] + uint64(u.imm)) & mask
			if !m.Store64(addr, regs[u.rs2]) && e.store(b, i, kern, addr, 8, regs[u.rs2]) {
				return
			}

		case uSTORE:
			if e.store(b, i, kern, (regs[u.rs1]+uint64(u.imm))&mask, int(u.n), regs[u.rs2]) {
				return
			}

		case uBEQ, uBNE, uBLT, uBGE, uBLTU, uBGEU:
			pc := entry + 4*uint64(i)
			a := sx(regs[u.rs1], xsh)
			bv := sx(regs[u.rs2], xsh)
			var taken bool
			switch u.code {
			case uBEQ:
				taken = a == bv
			case uBNE:
				taken = a != bv
			case uBLT:
				taken = int64(a) < int64(bv)
			case uBGE:
				taken = int64(a) >= int64(bv)
			case uBLTU:
				taken = a < bv
			case uBGEU:
				taken = a >= bv
			}
			if taken {
				c.PC = (pc + uint64(u.imm)) & mask
			} else {
				c.PC = pc + 4
			}
			e.flush(kern, i+1)
			return

		case uJAL:
			pc := entry + 4*uint64(i)
			if u.rd != 0 {
				regs[u.rd] = (pc + 4) & mask
			}
			c.PC = (pc + uint64(u.imm)) & mask
			e.flush(kern, i+1)
			return

		case uJALR:
			pc := entry + 4*uint64(i)
			t := (regs[u.rs1] + uint64(u.imm)) & mask
			if u.rd != 0 {
				regs[u.rd] = (pc + 4) & mask
			}
			c.PC = t
			e.flush(kern, i+1)
			return

		case uECALL:
			// ECALL commits, then traps (emu.Exec order).
			c.PC = entry + 4*uint64(i)
			e.flush(kern, i+1)
			c.Trap(isa.CauseSyscall, 0)
			return

		case uERET:
			c.PC = entry + 4*uint64(i)
			if !kern {
				e.flush(kern, i)
				c.Trap(isa.CausePrivilege, 0)
				return
			}
			e.flush(kern, i+1)
			c.Mode = isa.User
			c.PC = c.CSR[isa.CsrSEPC]
			return

		case uCSRW:
			if !kern {
				c.PC = entry + 4*uint64(i)
				e.flush(kern, i)
				c.Trap(isa.CausePrivilege, 0)
				return
			}
			c.CSR[u.imm] = regs[u.rs1]

		case uCSRR:
			if !kern {
				c.PC = entry + 4*uint64(i)
				e.flush(kern, i)
				c.Trap(isa.CausePrivilege, 0)
				return
			}
			if u.rd != 0 {
				regs[u.rd] = c.CSR[u.imm] & mask
			}
		}
	}

	// Ran off the executed window (block end or op budget): the next
	// instruction is the straight-line successor.
	e.flush(kern, n)
	c.PC = entry + 4*uint64(n)
}

// store runs op i of b, a store of the low sz bytes of v to addr, and
// reports whether the block must stop after it (counters flushed and PC
// set). An aligned store inside RAM goes through mem.Memory.Write; any
// other store runs with full Step semantics, trap included.
func (e *Engine) store(b *block, i int, kern bool, addr uint64, sz int, v uint64) (stop bool) {
	c := e.cpu
	if addr&uint64(sz-1) == 0 && !mem.IsMMIO(addr) {
		if ok, code := e.m.Write(addr, sz, v); ok {
			// Only a store into a flagged granule can have overwritten
			// this block's code (a self-modifying store); then the
			// remaining predecoded ops must not run unless the block is
			// still fresh.
			if code && !e.fresh(b) {
				e.flush(kern, i+1)
				c.PC = b.entry + 4*uint64(i+1)
				return true
			}
			return false
		}
	}
	c.PC = b.entry + 4*uint64(i)
	if !c.StoreMem(addr, sz, v) {
		e.flush(kern, i)
		return true
	}
	// An MMIO store committed (devices never write RAM). It may have
	// halted the machine through a halt port; then the remaining
	// predecoded ops must not run.
	if c.Bus.Halted() {
		e.flush(kern, i+1)
		c.PC = b.entry + 4*uint64(i+1)
		return true
	}
	return false
}

// check refetches op i's instruction word and panics if it no longer
// matches the predecoded copy — a stale block executing would be a
// soundness violation of the code-version invalidation contract.
func (e *Engine) check(b *block, i int) {
	e.Paranoid.Add(1)
	w, ok := e.m.Word32(b.entry + 4*uint64(i))
	if !ok || w != b.words[i] {
		panic("tb: stale predecoded op executed (code-version invalidation failed)")
	}
}

// sx sign-extends a masked value to 64 bits (xsh = 64 - XLen).
func sx(v, xsh uint64) uint64 { return uint64(int64(v<<xsh) >> xsh) }

func boolTo(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

package static

import (
	"vulnstack/internal/isa"
	"vulnstack/internal/kernel"
)

// Seg is one text segment to analyze: a base address and its raw bytes
// (little-endian 32-bit instruction words).
type Seg struct {
	Base uint64
	Text []byte
}

// node is one instruction word in the recovered CFG.
type node struct {
	addr    uint64
	word    uint32
	in      isa.Instr
	ok      bool  // word decodes
	succ    []int // statically known successor nodes
	preds   []int
	unknown bool // has successors not resolvable from the encoding
	// Register dataflow facts, as bitmasks over register indices
	// (bit r set = register r; r0 is never tracked, matching the
	// dynamic ACE analysis which skips the hardwired zero).
	use, def        uint32
	liveIn, liveOut uint32
}

// CFG is an instruction-level control-flow graph recovered from raw
// text segments by disassembly alone: no execution, no symbols needed.
type CFG struct {
	IS     isa.ISA
	Nodes  []node
	byAddr map[uint64]int
	// ReadRef is the union of every register read by any decodable
	// instruction in the image — a sound upper bound on any live set,
	// used as the live-out of nodes with unresolvable successors.
	ReadRef uint32
}

// ImageSegs extracts the kernel and user text segments of a bootable
// image: together they cover every instruction the emulator can
// legally fetch, so a CFG over them covers the whole execution.
func ImageSegs(img *kernel.Image) []Seg {
	return []Seg{
		{Base: img.Kernel.TextAddr, Text: img.Kernel.Text},
		{Base: img.User.TextAddr, Text: img.User.Text},
	}
}

// regBit returns the bitmask for register r, excluding r0.
func regBit(r int) uint32 {
	if r == 0 {
		return 0
	}
	return 1 << uint(r)
}

// BuildCFG disassembles the segments and recovers the instruction-level
// CFG. Successor rules mirror the hardware's next-PC logic:
//
//   - conditional branch: fall-through and target
//   - jal: target only (the link register is a def, not a successor)
//   - jalr, ecall, eret: statically unresolvable (register target or
//     trap vector) — marked unknown and treated conservatively
//   - undecodable word: traps — unknown
//   - any edge leaving the analyzed text: unknown
func BuildCFG(is isa.ISA, segs []Seg) *CFG {
	g := &CFG{IS: is, byAddr: make(map[uint64]int)}
	for _, s := range segs {
		for off := 0; off+4 <= len(s.Text); off += 4 {
			addr := s.Base + uint64(off)
			w := uint32(s.Text[off]) | uint32(s.Text[off+1])<<8 |
				uint32(s.Text[off+2])<<16 | uint32(s.Text[off+3])<<24
			n := node{addr: addr, word: w}
			n.in, n.ok = isa.Decode(w, is)
			g.byAddr[addr] = len(g.Nodes)
			g.Nodes = append(g.Nodes, n)
		}
	}

	link := func(i int, target uint64) {
		j, ok := g.byAddr[target]
		if !ok {
			g.Nodes[i].unknown = true
			return
		}
		g.Nodes[i].succ = append(g.Nodes[i].succ, j)
	}

	for i := range g.Nodes {
		n := &g.Nodes[i]
		if !n.ok {
			n.unknown = true
			continue
		}
		in := n.in
		// Use/def sets exactly as the dynamic ACE tracker accounts
		// them, so static liveness provably over-approximates it.
		if in.Op.ReadsRs1() {
			n.use |= regBit(in.Rs1)
		}
		if in.Op.ReadsRs2() {
			n.use |= regBit(in.Rs2)
		}
		if in.Op.WritesRd() {
			n.def |= regBit(in.Rd)
		}
		g.ReadRef |= n.use

		switch {
		case in.Op.IsBranch():
			link(i, n.addr+4)
			link(i, n.addr+uint64(in.Imm))
		case in.Op == isa.JAL:
			link(i, n.addr+uint64(in.Imm))
		case in.Op == isa.JALR, in.Op == isa.ECALL, in.Op == isa.ERET:
			n.unknown = true
		default:
			link(i, n.addr+4)
		}
	}

	for i := range g.Nodes {
		for _, s := range g.Nodes[i].succ {
			g.Nodes[s].preds = append(g.Nodes[s].preds, i)
		}
	}
	return g
}

// NodeAt returns the node index for an address, or -1.
func (g *CFG) NodeAt(addr uint64) int {
	if i, ok := g.byAddr[addr]; ok {
		return i
	}
	return -1
}

// LiveOutAt returns the live-out register mask at an instruction
// address, valid after Liveness(); ok=false when the address is outside
// the analyzed text. Consumers that only need a coarse feature (e.g.
// stratified-sampling liveness buckets) count the set bits.
func (g *CFG) LiveOutAt(addr uint64) (uint32, bool) {
	i := g.NodeAt(addr)
	if i < 0 {
		return 0, false
	}
	return g.Nodes[i].liveOut, true
}

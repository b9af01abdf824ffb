package isa

import "fmt"

// Op enumerates every VSA operation. The numeric values are internal; the
// binary encoding is defined by Encode/Decode below.
type Op int

const (
	// R-type register-register ALU operations.
	ADD Op = iota
	SUB
	SLL
	SLT
	SLTU
	XOR
	SRL
	SRA
	OR
	AND
	MUL
	DIV
	DIVU
	REM
	REMU
	// I-type register-immediate ALU operations.
	ADDI
	SLLI
	SLTI
	SLTIU
	XORI
	SRLI
	SRAI
	ORI
	ANDI
	// Loads.
	LB
	LH
	LW
	LD // VSA64 only
	LBU
	LHU
	LWU // VSA64 only
	// Stores.
	SB
	SH
	SW
	SD // VSA64 only
	// Control flow.
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU
	JAL
	JALR
	// Upper immediate.
	LUI
	// System.
	ECALL
	ERET
	CSRW // csr[imm] := rs1
	CSRR // rd := csr[imm]

	NumOps
)

var opNames = [...]string{
	ADD: "add", SUB: "sub", SLL: "sll", SLT: "slt", SLTU: "sltu",
	XOR: "xor", SRL: "srl", SRA: "sra", OR: "or", AND: "and",
	MUL: "mul", DIV: "div", DIVU: "divu", REM: "rem", REMU: "remu",
	ADDI: "addi", SLLI: "slli", SLTI: "slti", SLTIU: "sltiu",
	XORI: "xori", SRLI: "srli", SRAI: "srai", ORI: "ori", ANDI: "andi",
	LB: "lb", LH: "lh", LW: "lw", LD: "ld", LBU: "lbu", LHU: "lhu", LWU: "lwu",
	SB: "sb", SH: "sh", SW: "sw", SD: "sd",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BLTU: "bltu", BGEU: "bgeu",
	JAL: "jal", JALR: "jalr", LUI: "lui",
	ECALL: "ecall", ERET: "eret", CSRW: "csrw", CSRR: "csrr",
}

func (o Op) String() string {
	if o >= 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Format describes the encoding format of an operation.
type Format int

const (
	FmtR   Format = iota // funct7 rs2 rs1 funct3 rd opcode
	FmtI                 // imm12 rs1 funct3 rd opcode
	FmtS                 // imm[11:5] rs2 rs1 funct3 imm[4:0] opcode (stores)
	FmtB                 // same layout as S; imm is a branch offset in words
	FmtU                 // imm20 rd opcode
	FmtJ                 // imm20 rd opcode; imm is a jump offset in words
	FmtSys               // system instructions
)

// Opcode field values (bits [6:0]).
const (
	opcALU    = 0x33
	opcALUI   = 0x13
	opcLoad   = 0x03
	opcStore  = 0x23
	opcBranch = 0x63
	opcJAL    = 0x6F
	opcJALR   = 0x67
	opcLUI    = 0x37
	opcSYS    = 0x73
)

// Instr is a decoded instruction.
type Instr struct {
	Op  Op
	Rd  int
	Rs1 int
	Rs2 int
	Imm int64 // sign-extended immediate; branch/jump offsets in bytes
	Raw uint32
}

// Fmt returns the encoding format of op.
func (o Op) Fmt() Format {
	switch {
	case o <= REMU:
		return FmtR
	case o <= ANDI:
		return FmtI
	case o <= LWU:
		return FmtI
	case o <= SD:
		return FmtS
	case o <= BGEU:
		return FmtB
	case o == JAL:
		return FmtJ
	case o == JALR:
		return FmtI
	case o == LUI:
		return FmtU
	default:
		return FmtSys
	}
}

// IsBranch reports whether o is a conditional branch.
func (o Op) IsBranch() bool { return o >= BEQ && o <= BGEU }

// IsLoad reports whether o reads data memory.
func (o Op) IsLoad() bool { return o >= LB && o <= LWU }

// IsStore reports whether o writes data memory.
func (o Op) IsStore() bool { return o >= SB && o <= SD }

// IsJump reports whether o is an unconditional control transfer.
func (o Op) IsJump() bool { return o == JAL || o == JALR }

// WritesRd reports whether o produces a register result in Rd.
func (o Op) WritesRd() bool {
	switch {
	case o.IsStore(), o.IsBranch(), o == ECALL, o == ERET, o == CSRW:
		return false
	}
	return true
}

// ReadsRs1 reports whether o consumes Rs1.
func (o Op) ReadsRs1() bool {
	switch o {
	case JAL, LUI, ECALL, ERET, CSRR:
		return false
	}
	return true
}

// ReadsRs2 reports whether o consumes Rs2.
func (o Op) ReadsRs2() bool {
	return o.Fmt() == FmtR || o.IsStore() || o.IsBranch()
}

// MemBytes returns the access width in bytes for loads and stores, and 0
// for every other operation.
func (o Op) MemBytes() int {
	switch o {
	case LB, LBU, SB:
		return 1
	case LH, LHU, SH:
		return 2
	case LW, LWU, SW:
		return 4
	case LD, SD:
		return 8
	}
	return 0
}

// MemUnsigned reports whether a load zero-extends.
func (o Op) MemUnsigned() bool { return o == LBU || o == LHU || o == LWU }

// Field extraction helpers.
func bitsOf(w uint32, lo, n uint) uint32 { return (w >> lo) & (1<<n - 1) }

func signExt(v uint32, bits uint) int64 {
	shift := 64 - bits
	return int64(uint64(v)<<shift) >> shift
}

// Decode decodes a raw 32-bit instruction word under ISA variant is.
// ok is false when the word does not encode a valid instruction — which
// the hardware raises as an illegal-instruction trap. Register specifier
// fields are 5 bits wide in both variants; VSA32 treats indices >= 16 as
// illegal, so bit flips in specifier fields can make an instruction
// undecodable, exactly like real dense ISA encodings.
func Decode(w uint32, is ISA) (Instr, bool) {
	in := Instr{Raw: w, Rd: int(bitsOf(w, 7, 5)), Rs1: int(bitsOf(w, 15, 5)), Rs2: int(bitsOf(w, 20, 5))}
	f3 := bitsOf(w, 12, 3)
	f7 := bitsOf(w, 25, 7)
	immI := signExt(bitsOf(w, 20, 12), 12)
	immS := signExt(bitsOf(w, 25, 7)<<5|bitsOf(w, 7, 5), 12)

	regOK := func(r int, used bool) bool { return !used || r < is.NumRegs() }

	switch bitsOf(w, 0, 7) {
	case opcALU:
		switch f7 {
		case 0x00:
			switch f3 {
			case 0:
				in.Op = ADD
			case 1:
				in.Op = SLL
			case 2:
				in.Op = SLT
			case 3:
				in.Op = SLTU
			case 4:
				in.Op = XOR
			case 5:
				in.Op = SRL
			case 6:
				in.Op = OR
			case 7:
				in.Op = AND
			}
		case 0x20:
			switch f3 {
			case 0:
				in.Op = SUB
			case 5:
				in.Op = SRA
			default:
				return in, false
			}
		case 0x01:
			switch f3 {
			case 0:
				in.Op = MUL
			case 4:
				in.Op = DIV
			case 5:
				in.Op = DIVU
			case 6:
				in.Op = REM
			case 7:
				in.Op = REMU
			default:
				return in, false
			}
		default:
			return in, false
		}
	case opcALUI:
		in.Imm = immI
		switch f3 {
		case 0:
			in.Op = ADDI
		case 1:
			if f7&^1 != 0 { // funct7 bit 0 doubles as shamt bit 5 (VSA64)
				return in, false
			}
			in.Op = SLLI
			in.Imm = int64(bitsOf(w, 20, 6))
		case 2:
			in.Op = SLTI
		case 3:
			in.Op = SLTIU
		case 4:
			in.Op = XORI
		case 5:
			switch f7 &^ 1 { // allow shamt bit 5 (VSA64 shifts)
			case 0x00:
				in.Op = SRLI
			case 0x20:
				in.Op = SRAI
			default:
				return in, false
			}
			in.Imm = int64(bitsOf(w, 20, 6))
		case 6:
			in.Op = ORI
		case 7:
			in.Op = ANDI
		}
		if (in.Op == SLLI || in.Op == SRLI || in.Op == SRAI) && in.Imm >= int64(is.XLen()) {
			return in, false
		}
	case opcLoad:
		in.Imm = immI
		switch f3 {
		case 0:
			in.Op = LB
		case 1:
			in.Op = LH
		case 2:
			in.Op = LW
		case 3:
			in.Op = LD
		case 4:
			in.Op = LBU
		case 5:
			in.Op = LHU
		case 6:
			in.Op = LWU
		default:
			return in, false
		}
		if is == VSA32 && (in.Op == LD || in.Op == LWU) {
			return in, false
		}
	case opcStore:
		in.Imm = immS
		switch f3 {
		case 0:
			in.Op = SB
		case 1:
			in.Op = SH
		case 2:
			in.Op = SW
		case 3:
			in.Op = SD
		default:
			return in, false
		}
		if is == VSA32 && in.Op == SD {
			return in, false
		}
		in.Rd = 0
	case opcBranch:
		in.Imm = immS << 2 // word-scaled branch offsets: range ±8KB
		switch f3 {
		case 0:
			in.Op = BEQ
		case 1:
			in.Op = BNE
		case 4:
			in.Op = BLT
		case 5:
			in.Op = BGE
		case 6:
			in.Op = BLTU
		case 7:
			in.Op = BGEU
		default:
			return in, false
		}
		in.Rd = 0
	case opcJAL:
		in.Op = JAL
		in.Imm = signExt(bitsOf(w, 12, 20), 20) << 2
	case opcJALR:
		if f3 != 0 {
			return in, false
		}
		in.Op = JALR
		in.Imm = immI
	case opcLUI:
		in.Op = LUI
		in.Imm = signExt(bitsOf(w, 12, 20), 20) << 12
	case opcSYS:
		switch f3 {
		case 0:
			switch bitsOf(w, 20, 12) {
			case 0:
				in.Op = ECALL
			case 1:
				in.Op = ERET
			default:
				return in, false
			}
			in.Rd, in.Rs1, in.Rs2 = 0, 0, 0
		case 1:
			in.Op = CSRW
			in.Imm = int64(bitsOf(w, 20, 12))
			in.Rd = 0
		case 2:
			in.Op = CSRR
			in.Imm = int64(bitsOf(w, 20, 12))
			in.Rs1, in.Rs2 = 0, 0
		default:
			return in, false
		}
		if in.Op == CSRW || in.Op == CSRR {
			if in.Imm >= NumCSRs {
				return in, false
			}
		}
	default:
		return in, false
	}

	if !in.Op.ReadsRs1() {
		in.Rs1 = 0
	}
	if !in.Op.ReadsRs2() {
		in.Rs2 = 0
	}
	if !regOK(in.Rd, in.Op.WritesRd()) ||
		!regOK(in.Rs1, in.Op.ReadsRs1()) ||
		!regOK(in.Rs2, in.Op.ReadsRs2()) {
		return in, false
	}
	return in, true
}

// Encode produces the binary word for in. It panics on malformed
// instructions (out-of-range immediates or registers): Encode is used by
// the assembler and code generator, where such a condition is a bug, not
// an input error.
func Encode(in Instr) uint32 {
	ck := func(cond bool, what string) {
		if !cond {
			panic(fmt.Sprintf("isa.Encode: bad %s in %v", what, in))
		}
	}
	reg := func(r int) uint32 {
		ck(r >= 0 && r < 32, "register")
		return uint32(r)
	}
	var w uint32
	switch in.Op.Fmt() {
	case FmtR:
		var f3, f7 uint32
		switch in.Op {
		case ADD:
			f3 = 0
		case SUB:
			f3, f7 = 0, 0x20
		case SLL:
			f3 = 1
		case SLT:
			f3 = 2
		case SLTU:
			f3 = 3
		case XOR:
			f3 = 4
		case SRL:
			f3 = 5
		case SRA:
			f3, f7 = 5, 0x20
		case OR:
			f3 = 6
		case AND:
			f3 = 7
		case MUL:
			f3, f7 = 0, 1
		case DIV:
			f3, f7 = 4, 1
		case DIVU:
			f3, f7 = 5, 1
		case REM:
			f3, f7 = 6, 1
		case REMU:
			f3, f7 = 7, 1
		}
		w = f7<<25 | reg(in.Rs2)<<20 | reg(in.Rs1)<<15 | f3<<12 | reg(in.Rd)<<7 | opcALU
	case FmtI:
		var opc, f3 uint32
		imm := in.Imm
		switch in.Op {
		case ADDI:
			opc, f3 = opcALUI, 0
		case SLLI:
			opc, f3 = opcALUI, 1
		case SLTI:
			opc, f3 = opcALUI, 2
		case SLTIU:
			opc, f3 = opcALUI, 3
		case XORI:
			opc, f3 = opcALUI, 4
		case SRLI:
			opc, f3 = opcALUI, 5
		case SRAI:
			opc, f3 = opcALUI, 5
			ck(imm >= 0 && imm < 64, "shift amount")
			imm |= 0x20 << 5 // funct7=0x20 marker in imm[11:5]
		case ORI:
			opc, f3 = opcALUI, 6
		case ANDI:
			opc, f3 = opcALUI, 7
		case LB:
			opc, f3 = opcLoad, 0
		case LH:
			opc, f3 = opcLoad, 1
		case LW:
			opc, f3 = opcLoad, 2
		case LD:
			opc, f3 = opcLoad, 3
		case LBU:
			opc, f3 = opcLoad, 4
		case LHU:
			opc, f3 = opcLoad, 5
		case LWU:
			opc, f3 = opcLoad, 6
		case JALR:
			opc, f3 = opcJALR, 0
		}
		if in.Op == SLLI || in.Op == SRLI {
			ck(imm >= 0 && imm < 64, "shift amount")
		} else if in.Op != SRAI {
			ck(imm >= -2048 && imm < 2048, "immediate")
		}
		w = uint32(imm&0xFFF)<<20 | reg(in.Rs1)<<15 | f3<<12 | reg(in.Rd)<<7 | opc
	case FmtS, FmtB:
		var opc, f3 uint32
		imm := in.Imm
		switch in.Op {
		case SB:
			opc, f3 = opcStore, 0
		case SH:
			opc, f3 = opcStore, 1
		case SW:
			opc, f3 = opcStore, 2
		case SD:
			opc, f3 = opcStore, 3
		case BEQ:
			opc, f3 = opcBranch, 0
		case BNE:
			opc, f3 = opcBranch, 1
		case BLT:
			opc, f3 = opcBranch, 4
		case BGE:
			opc, f3 = opcBranch, 5
		case BLTU:
			opc, f3 = opcBranch, 6
		case BGEU:
			opc, f3 = opcBranch, 7
		}
		if in.Op.IsBranch() {
			ck(imm&3 == 0, "branch alignment")
			imm >>= 2
		}
		ck(imm >= -2048 && imm < 2048, "offset")
		u := uint32(imm & 0xFFF)
		w = (u>>5)<<25 | reg(in.Rs2)<<20 | reg(in.Rs1)<<15 | f3<<12 | (u&0x1F)<<7 | opc
	case FmtU:
		ck(in.Imm&0xFFF == 0, "LUI immediate alignment")
		imm := in.Imm >> 12
		ck(imm >= -(1<<19) && imm < 1<<19, "LUI immediate")
		w = uint32(imm&0xFFFFF)<<12 | reg(in.Rd)<<7 | opcLUI
	case FmtJ:
		ck(in.Imm&3 == 0, "jump alignment")
		imm := in.Imm >> 2
		ck(imm >= -(1<<19) && imm < 1<<19, "jump offset")
		w = uint32(imm&0xFFFFF)<<12 | reg(in.Rd)<<7 | opcJAL
	case FmtSys:
		switch in.Op {
		case ECALL:
			w = opcSYS
		case ERET:
			w = 1<<20 | opcSYS
		case CSRW:
			ck(in.Imm >= 0 && in.Imm < NumCSRs, "csr index")
			w = uint32(in.Imm)<<20 | reg(in.Rs1)<<15 | 1<<12 | opcSYS
		case CSRR:
			ck(in.Imm >= 0 && in.Imm < NumCSRs, "csr index")
			w = uint32(in.Imm)<<20 | 2<<12 | reg(in.Rd)<<7 | opcSYS
		}
	}
	return w
}

// FieldKind classifies instruction word bits for FPM purposes.
type FieldKind int

const (
	// FieldOperation bits select what the instruction does (opcode,
	// funct3, funct7). A flip here manifests as the Wrong Instruction
	// (WI) fault propagation model.
	FieldOperation FieldKind = iota
	// FieldOperand bits select which resources the instruction uses
	// (register specifiers, immediates). A flip here is Wrong
	// Operand/Immediate (WOI).
	FieldOperand
)

// BitClass is the encoding-determined effect of flipping one bit of an
// instruction word: the static analogue of the fault propagation model
// a corrupted instruction fetch manifests as. Unlike OperationMask's
// two-way field split, BitClass is computed by actually decoding the
// flipped word, so it also captures flips that leave illegal encodings
// (trapped by the hardware) or dead encoding space (masked).
type BitClass int

const (
	// BitMasked flips decode to the identical instruction (dead
	// encoding space, e.g. the ignored rd field of CSRW).
	BitMasked BitClass = iota
	// BitWD flips change only a pure data immediate (ALU immediates,
	// shift amounts, LUI): the executed operation and the resources it
	// touches are unchanged, but the value computed is wrong.
	BitWD
	// BitWI flips change which operation executes.
	BitWI
	// BitWOI flips change which resource is touched: a register
	// specifier, a memory or branch offset, or a CSR index.
	BitWOI
	// BitTrap flips leave a word that no longer decodes; the hardware
	// raises an illegal-instruction trap.
	BitTrap
	NumBitClasses
)

var bitClassNames = [...]string{"masked", "WD", "WI", "WOI", "trap"}

func (c BitClass) String() string { return bitClassNames[c] }

// immSelectsData reports whether op's immediate is a pure data value
// (rather than an address offset, branch target or CSR index).
func immSelectsData(o Op) bool {
	switch o {
	case ADDI, SLLI, SLTI, SLTIU, XORI, SRLI, SRAI, ORI, ANDI, LUI:
		return true
	}
	return false
}

// FlipClass classifies the effect of flipping bit (0..31) of the valid
// instruction word w under ISA variant is, from the encoding alone. If
// w itself does not decode, every flip is reported as BitTrap (the
// word traps whether or not the flipped bit repairs it — conservative,
// but undecodable words do not appear in generated code).
func FlipClass(w uint32, bit int, is ISA) BitClass {
	orig, ok := Decode(w, is)
	if !ok {
		return BitTrap
	}
	flipped, ok := Decode(w^(1<<uint(bit)), is)
	if !ok {
		return BitTrap
	}
	switch {
	case flipped.Op != orig.Op:
		return BitWI
	case flipped.Rd != orig.Rd, flipped.Rs1 != orig.Rs1, flipped.Rs2 != orig.Rs2:
		return BitWOI
	case flipped.Imm != orig.Imm:
		if immSelectsData(orig.Op) {
			return BitWD
		}
		return BitWOI
	default:
		return BitMasked
	}
}

// OperationMask returns the mask of operation-field bits for a valid
// instruction word w: flipping a bit under the mask executes a different
// operation (WI), flipping any other bit changes an operand (WOI).
func OperationMask(w uint32, is ISA) uint32 {
	const (
		opcF3   = 0x0000707F
		opcF3F7 = 0xFE00707F
		opcOnly = 0x0000007F
	)
	in, ok := Decode(w, is)
	if !ok {
		return opcOnly
	}
	switch in.Op.Fmt() {
	case FmtR:
		return opcF3F7
	case FmtI, FmtS, FmtB:
		return opcF3
	case FmtU, FmtJ:
		return opcOnly
	default: // system: the immediate selects the operation/CSR
		return 0xFFF0707F
	}
}

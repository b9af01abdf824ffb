// Package emu implements the functional (architecture-level) VSA
// emulator. It is the precise reference model for the out-of-order
// microarchitectural model (lockstep-checked in tests), the substrate for
// architecture-level (PVF) fault injection, and the fast engine for
// golden-run profiling.
package emu

import (
	"fmt"

	"vulnstack/internal/dev"
	"vulnstack/internal/isa"
	"vulnstack/internal/mem"
)

// CPU is one functional VSA hardware thread.
type CPU struct {
	ISA  isa.ISA
	Regs [32]uint64 // architectural registers, values masked to XLen
	PC   uint64
	CSR  [isa.NumCSRs]uint64
	Mode isa.Mode
	Bus  *dev.Bus

	// Instret counts committed instructions; KernelInstret the subset
	// committed in kernel mode.
	Instret       uint64
	KernelInstret uint64

	// DoubleFault is set when a trap occurs while already in kernel
	// mode: the machine halts with a panic (matching the paper's
	// "system crash / kernel panic" outcome).
	DoubleFault bool

	// OnCommit, when non-nil, observes every committed instruction.
	OnCommit func(pc uint64, in isa.Instr, mode isa.Mode)
}

// New creates a CPU over bus, in kernel mode at entry (the reset vector
// semantics: the kernel boots first and ERETs into user code).
func New(is isa.ISA, bus *dev.Bus, entry uint64) *CPU {
	return &CPU{ISA: is, PC: entry, Mode: isa.Kernel, Bus: bus}
}

// Reg reads an architectural register (r0 reads as zero).
func (c *CPU) Reg(r int) uint64 {
	if r == 0 {
		return 0
	}
	return c.Regs[r]
}

// SetReg writes an architectural register, masking to the ISA width
// (writes to r0 are discarded).
func (c *CPU) SetReg(r int, v uint64) {
	if r != 0 {
		c.Regs[r] = v & c.ISA.Mask()
	}
}

// trap transfers control to the kernel trap vector. A fault taken while
// already in kernel mode is a double fault: the machine halts as a
// kernel panic (Crash outcome).
func (c *CPU) trap(cause, tval uint64) {
	if c.Mode == isa.Kernel && cause != isa.CauseSyscall {
		c.DoubleFault = true
		c.Bus.Halt = dev.HaltPanic
		c.Bus.PanicCode = cause
		return
	}
	if c.Mode == isa.Kernel && cause == isa.CauseSyscall {
		// ECALL from kernel mode has no defined semantics: panic.
		c.DoubleFault = true
		c.Bus.Halt = dev.HaltPanic
		c.Bus.PanicCode = cause
		return
	}
	c.CSR[isa.CsrSEPC] = c.PC
	c.CSR[isa.CsrSCAUSE] = cause
	c.CSR[isa.CsrSTVAL] = tval
	c.Mode = isa.Kernel
	c.PC = c.CSR[isa.CsrTVEC]
}

// load performs a data load, routing MMIO in kernel mode. Sizes are
// powers of two, so alignment is a mask test.
func (c *CPU) load(addr uint64, n int, unsigned bool) (uint64, bool) {
	if mem.IsMMIO(addr) {
		if c.Mode != isa.Kernel {
			c.trap(isa.CausePrivilege, addr)
			return 0, false
		}
		v, ok := c.Bus.Load(addr, n)
		if !ok {
			c.trap(isa.CauseLoadFault, addr)
			return 0, false
		}
		return v, true
	}
	if addr&uint64(n-1) != 0 {
		c.trap(isa.CauseMisalignLoad, addr)
		return 0, false
	}
	v, ok := c.Bus.Mem.Read(addr, n)
	if !ok {
		c.trap(isa.CauseLoadFault, addr)
		return 0, false
	}
	if !unsigned {
		shift := uint(64 - 8*n)
		v = uint64(int64(v<<shift) >> shift)
	}
	return v, true
}

// store performs a data store, routing MMIO in kernel mode.
func (c *CPU) store(addr uint64, n int, val uint64) bool {
	if mem.IsMMIO(addr) {
		if c.Mode != isa.Kernel {
			c.trap(isa.CausePrivilege, addr)
			return false
		}
		if !c.Bus.Store(addr, n, val) {
			c.trap(isa.CauseStoreFault, addr)
			return false
		}
		return true
	}
	if addr&uint64(n-1) != 0 {
		c.trap(isa.CauseMisalignStore, addr)
		return false
	}
	if ok, _ := c.Bus.Mem.Write(addr, n, val); !ok {
		c.trap(isa.CauseStoreFault, addr)
		return false
	}
	return true
}

// Step executes one instruction. It returns false when the machine has
// halted (any halt port or a double fault).
func (c *CPU) Step() bool {
	if c.Bus.Halted() {
		return false
	}
	if c.PC%4 != 0 {
		c.trap(isa.CauseMisalignFetch, c.PC)
		return !c.Bus.Halted()
	}
	w, ok := c.Bus.Mem.Word32(c.PC)
	if !ok {
		c.trap(isa.CauseFetchFault, c.PC)
		return !c.Bus.Halted()
	}
	in, ok := isa.Decode(w, c.ISA)
	if !ok {
		c.trap(isa.CauseIllegal, uint64(w))
		return !c.Bus.Halted()
	}
	c.Exec(in)
	return !c.Bus.Halted()
}

// Exec executes a decoded instruction at the current PC, updating all
// architectural state. Used by Step and (with pre-decoded instructions)
// by the microarchitectural model's commit-time checker.
func (c *CPU) Exec(in isa.Instr) {
	mask := c.ISA.Mask()
	sx := c.ISA.SignExtend
	nextPC := c.PC + 4
	rs1 := c.Reg(in.Rs1)
	rs2 := c.Reg(in.Rs2)

	switch in.Op {
	case isa.ADD:
		c.SetReg(in.Rd, rs1+rs2)
	case isa.SUB:
		c.SetReg(in.Rd, rs1-rs2)
	case isa.SLL:
		c.SetReg(in.Rd, rs1<<(rs2&uint64(c.ISA.XLen()-1)))
	case isa.SLT:
		c.SetReg(in.Rd, boolTo(int64(sx(rs1)) < int64(sx(rs2))))
	case isa.SLTU:
		c.SetReg(in.Rd, boolTo(rs1 < rs2))
	case isa.XOR:
		c.SetReg(in.Rd, rs1^rs2)
	case isa.SRL:
		c.SetReg(in.Rd, rs1>>(rs2&uint64(c.ISA.XLen()-1)))
	case isa.SRA:
		c.SetReg(in.Rd, uint64(int64(sx(rs1))>>(rs2&uint64(c.ISA.XLen()-1))))
	case isa.OR:
		c.SetReg(in.Rd, rs1|rs2)
	case isa.AND:
		c.SetReg(in.Rd, rs1&rs2)
	case isa.MUL:
		c.SetReg(in.Rd, rs1*rs2)
	case isa.DIV:
		c.SetReg(in.Rd, divS(sx(rs1), sx(rs2)))
	case isa.DIVU:
		c.SetReg(in.Rd, divU(rs1, rs2, mask))
	case isa.REM:
		c.SetReg(in.Rd, remS(sx(rs1), sx(rs2)))
	case isa.REMU:
		c.SetReg(in.Rd, remU(rs1, rs2))

	case isa.ADDI:
		c.SetReg(in.Rd, rs1+uint64(in.Imm))
	case isa.SLLI:
		c.SetReg(in.Rd, rs1<<uint64(in.Imm))
	case isa.SLTI:
		c.SetReg(in.Rd, boolTo(int64(sx(rs1)) < in.Imm))
	case isa.SLTIU:
		c.SetReg(in.Rd, boolTo(rs1 < uint64(in.Imm)&mask))
	case isa.XORI:
		c.SetReg(in.Rd, rs1^uint64(in.Imm))
	case isa.SRLI:
		c.SetReg(in.Rd, rs1>>uint64(in.Imm))
	case isa.SRAI:
		c.SetReg(in.Rd, uint64(int64(sx(rs1))>>uint64(in.Imm)))
	case isa.ORI:
		c.SetReg(in.Rd, rs1|uint64(in.Imm))
	case isa.ANDI:
		c.SetReg(in.Rd, rs1&uint64(in.Imm))

	case isa.LB, isa.LH, isa.LW, isa.LD, isa.LBU, isa.LHU, isa.LWU:
		addr := (rs1 + uint64(in.Imm)) & mask
		v, ok := c.load(addr, in.Op.MemBytes(), in.Op.MemUnsigned())
		if !ok {
			return // trapped
		}
		c.SetReg(in.Rd, v)

	case isa.SB, isa.SH, isa.SW, isa.SD:
		addr := (rs1 + uint64(in.Imm)) & mask
		if !c.store(addr, in.Op.MemBytes(), rs2) {
			return // trapped
		}

	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		if BranchTaken(in.Op, sx(rs1), sx(rs2)) {
			nextPC = (c.PC + uint64(in.Imm)) & mask
		}

	case isa.JAL:
		c.SetReg(in.Rd, nextPC)
		nextPC = (c.PC + uint64(in.Imm)) & mask
	case isa.JALR:
		t := (rs1 + uint64(in.Imm)) & mask
		c.SetReg(in.Rd, nextPC)
		nextPC = t
	case isa.LUI:
		c.SetReg(in.Rd, uint64(in.Imm))

	case isa.ECALL:
		c.commit(in)
		c.trap(isa.CauseSyscall, 0)
		return
	case isa.ERET:
		if c.Mode != isa.Kernel {
			c.trap(isa.CausePrivilege, 0)
			return
		}
		c.commit(in)
		c.Mode = isa.User
		c.PC = c.CSR[isa.CsrSEPC]
		return
	case isa.CSRW:
		if c.Mode != isa.Kernel {
			c.trap(isa.CausePrivilege, 0)
			return
		}
		c.CSR[in.Imm] = rs1
	case isa.CSRR:
		if c.Mode != isa.Kernel {
			c.trap(isa.CausePrivilege, 0)
			return
		}
		c.SetReg(in.Rd, c.CSR[in.Imm]&mask)

	default:
		panic(fmt.Sprintf("emu: unhandled op %v", in.Op))
	}

	c.commit(in)
	c.PC = nextPC
}

func (c *CPU) commit(in isa.Instr) {
	c.Instret++
	if c.Mode == isa.Kernel {
		c.KernelInstret++
	}
	if c.OnCommit != nil {
		c.OnCommit(c.PC, in, c.Mode)
	}
}

// Run executes until halt or until maxInstr instructions have committed.
// It returns true when the machine halted (cleanly or not) and false on
// watchdog expiry — the campaign classifies expiry as a Crash
// (deadlock/livelock).
func (c *CPU) Run(maxInstr uint64) bool {
	for c.Instret < maxInstr {
		if !c.Step() {
			return true
		}
	}
	return c.Bus.Halted()
}

// BranchTaken evaluates a conditional branch on sign-extended operands.
func BranchTaken(op isa.Op, a, b uint64) bool {
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

func boolTo(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// divS implements signed division with RISC-style edge semantics:
// x/0 = -1, MinInt/-1 = MinInt.
func divS(a, b uint64) uint64 {
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

func divU(a, b, mask uint64) uint64 {
	if b == 0 {
		return mask
	}
	return a / b
}

func remS(a, b uint64) uint64 {
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

func remU(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}

// Snapshot captures the full architectural state for later restore.
type Snapshot struct {
	Regs    [32]uint64
	PC      uint64
	CSR     [isa.NumCSRs]uint64
	Mode    isa.Mode
	Instret uint64
	KInstr  uint64
}

// Save captures the CPU's architectural state (not memory).
func (c *CPU) Save() Snapshot {
	return Snapshot{Regs: c.Regs, PC: c.PC, CSR: c.CSR, Mode: c.Mode, Instret: c.Instret, KInstr: c.KernelInstret}
}

// Restore reinstates a previously saved state.
func (c *CPU) Restore(s Snapshot) {
	c.Regs, c.PC, c.CSR, c.Mode = s.Regs, s.PC, s.CSR, s.Mode
	c.Instret, c.KernelInstret = s.Instret, s.KInstr
	c.DoubleFault = false
}

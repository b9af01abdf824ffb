// Package kernel builds the miniature in-simulation operating system.
// The kernel is real VSA code executed by the simulated processor — its
// instructions run inside the measured program flow, which is exactly the
// distinction the paper draws between PVF (kernel-inclusive) and SVF
// (user-only) measurements.
//
// The kernel provides: the boot path, the trap vector, syscall dispatch
// (exit, write, read, detect, brk), a zero-copy/staged write path that
// programs the output DMA engine (the Escaped-fault path), and panic
// handling for every exception class.
package kernel

import (
	"fmt"

	"vulnstack/internal/asm"
	"vulnstack/internal/dev"
	"vulnstack/internal/isa"
	"vulnstack/internal/mem"
)

// ZeroCopyThreshold is the write() length at or above which the kernel
// skips the staging memcpy and DMAs straight from the user buffer. Large
// flushed output buffers therefore sit in the cache hierarchy until DMA
// time — the long-exposure window that produces Escaped faults.
const ZeroCopyThreshold = 128

// StagingSize is the kernel I/O staging buffer size; writes below the
// zero-copy threshold are memcpy'd here by kernel code.
const StagingSize = 256

// Params configures a kernel build.
type Params struct {
	UserEntry uint64 // PC of the user program's _start
	UserSP    uint64 // initial user stack pointer
	HeapStart uint64 // initial program break for sys_brk
}

// Build assembles the kernel image for the given ISA variant.
func Build(is isa.ISA, p Params) (*asm.Program, error) {
	b := asm.NewBuilder(is, mem.KernBase)
	wb := int64(is.WordBytes())
	nregs := is.NumRegs()
	frame := int64(nregs-1) * wb // save slots for r1..r(n-1)
	// Round the frame to 16 bytes to keep the kernel stack aligned.
	frame = (frame + 15) &^ 15
	slot := func(r int) int64 { return int64(r-1) * wb }

	const (
		tp = isa.RegTMP // scratch
		a0 = isa.RegA0  // syscall number / return value
		a1 = isa.RegA1
		a2 = isa.RegA2
		t1 = 8 // additional kernel scratch registers (saved/restored)
		t2 = 9
		t3 = 10
	)

	// --- boot ---
	b.Label("_start")
	b.Li(isa.RegSP, int64(mem.KernStackTop))
	b.Csrw(isa.CsrKSP, isa.RegSP)
	b.La(tp, "trap_entry")
	b.Csrw(isa.CsrTVEC, tp)
	// Initialize the program break variable.
	b.Li(tp, int64(p.HeapStart))
	b.La(t1, "kbrk")
	b.Sword(tp, 0, t1)
	// Enter the user program.
	b.Li(tp, int64(p.UserEntry))
	b.Csrw(isa.CsrSEPC, tp)
	b.Li(isa.RegSP, int64(p.UserSP))
	b.Eret()

	// --- trap entry ---
	b.Label("trap_entry")
	b.Csrw(isa.CsrUSP, isa.RegSP)
	b.Csrr(isa.RegSP, isa.CsrKSP)
	b.Addi(isa.RegSP, isa.RegSP, -frame)
	for r := 1; r < nregs; r++ {
		if r == isa.RegSP {
			continue
		}
		b.Sword(r, slot(r), isa.RegSP)
	}
	b.Csrr(tp, isa.CsrSCAUSE)
	b.Addi(t1, isa.RegZero, isa.CauseSyscall)
	b.Bne(tp, t1, "panic")

	// --- syscall dispatch (number in a0) ---
	b.Addi(t1, isa.RegZero, isa.SysExit)
	b.Beq(a0, t1, "sys_exit")
	b.Addi(t1, isa.RegZero, isa.SysWrite)
	b.Beq(a0, t1, "sys_write")
	b.Addi(t1, isa.RegZero, isa.SysRead)
	b.Beq(a0, t1, "sys_read")
	b.Addi(t1, isa.RegZero, isa.SysDetect)
	b.Beq(a0, t1, "sys_detect")
	b.Addi(t1, isa.RegZero, isa.SysBrk)
	b.Beq(a0, t1, "sys_brk")
	// Unknown syscall: return -1.
	b.Addi(t1, isa.RegZero, -1)
	b.Sword(t1, slot(a0), isa.RegSP)
	b.Jmp("trap_ret")

	// --- exit(code): halt port ---
	b.Label("sys_exit")
	b.Li(tp, int64(mem.MMIOBase))
	b.Sword(a1, dev.RegHalt, tp)
	// Unreachable: the halt port stops the machine. A fault that skips
	// the halt lands in the panic path below via the jump.
	b.Jmp("panic")

	// --- write(buf, len): staged memcpy or zero-copy DMA ---
	b.Label("sys_write")
	// Reject absurd lengths (defends the kernel against corrupted
	// syscall arguments): len > 1 MiB returns -1.
	b.Li(t1, 1<<20)
	b.Bltu(t1, a2, "write_bad")
	// Zero-length writes return 0 immediately.
	b.Beq(a2, isa.RegZero, "write_done")
	b.Li(t1, ZeroCopyThreshold)
	b.Bgeu(a2, t1, "write_dma") // len >= threshold: zero-copy
	// Staged path: byte-copy the user buffer into the kernel staging
	// buffer (kernel-mode loads and stores inside the program flow).
	b.La(t1, "staging")
	b.Mv(t2, a1)      // src cursor
	b.Add(t3, a1, a2) // src end
	b.Mv(a1, t1)      // DMA source becomes the staging buffer
	b.Label("copy_loop")
	b.Lbu(tp, 0, t2)
	b.Sb(tp, 0, t1)
	b.Addi(t2, t2, 1)
	b.Addi(t1, t1, 1)
	b.Bltu(t2, t3, "copy_loop")
	// --- program the DMA engine: src in a1, len in a2 ---
	b.Label("write_dma")
	b.Li(tp, int64(mem.MMIOBase))
	b.Sword(a1, dev.RegDMASrc, tp)
	b.Sword(a2, dev.RegDMALen, tp)
	b.Addi(t1, isa.RegZero, 1)
	b.Sword(t1, dev.RegDMACtrl, tp)
	b.Label("write_done")
	b.Sword(a2, slot(a0), isa.RegSP) // return len
	b.Jmp("trap_ret")
	b.Label("write_bad")
	b.Addi(t1, isa.RegZero, -1)
	b.Sword(t1, slot(a0), isa.RegSP)
	b.Jmp("trap_ret")

	// --- read(buf, len): no input device; returns 0 ---
	b.Label("sys_read")
	b.Sword(isa.RegZero, slot(a0), isa.RegSP)
	b.Jmp("trap_ret")

	// --- detect(code): software fault-detection port ---
	b.Label("sys_detect")
	b.Li(tp, int64(mem.MMIOBase))
	b.Sword(a1, dev.RegDetect, tp)
	b.Jmp("panic") // unreachable

	// --- brk(addr): set/query the program break ---
	b.Label("sys_brk")
	b.La(t1, "kbrk")
	b.Beq(a1, isa.RegZero, "brk_query")
	b.Sword(a1, 0, t1)
	b.Label("brk_query")
	b.Lword(t2, 0, t1)
	b.Sword(t2, slot(a0), isa.RegSP)
	b.Jmp("trap_ret")

	// --- return to user ---
	b.Label("trap_ret")
	b.Csrr(tp, isa.CsrSEPC)
	b.Addi(tp, tp, 4) // resume after the ECALL
	b.Csrw(isa.CsrSEPC, tp)
	for r := 1; r < nregs; r++ {
		if r == isa.RegSP {
			continue
		}
		b.Lword(r, slot(r), isa.RegSP)
	}
	b.Addi(isa.RegSP, isa.RegSP, frame)
	b.Csrw(isa.CsrKSP, isa.RegSP)
	b.Csrr(isa.RegSP, isa.CsrUSP)
	b.Eret()

	// --- exceptions: kernel panic ---
	b.Label("panic")
	b.Li(t1, int64(mem.MMIOBase))
	b.Sword(tp, dev.RegPanic, t1) // tp still holds SCAUSE on the trap path
	// The panic port halts; nothing executes past here.
	b.Label("spin")
	b.Jmp("spin")

	// --- kernel data ---
	b.Align(16)
	b.DataLabel("staging")
	b.Zero(StagingSize)
	b.Align(int(wb))
	b.DataLabel("kbrk")
	b.Zero(int(wb))

	prog, err := b.Finish()
	if err != nil {
		return nil, fmt.Errorf("kernel build (%v): %w", is, err)
	}
	if prog.End() > mem.KernDataBase {
		// The kernel image must stay below its data/stack region.
		if prog.End() > mem.KernStackTop-1024 {
			return nil, fmt.Errorf("kernel image too large: ends at %#x", prog.End())
		}
	}
	return prog, nil
}

// Image is a bootable system: kernel + user program loaded in RAM.
type Image struct {
	ISA    isa.ISA
	Kernel *asm.Program
	User   *asm.Program
	// RAM is the pristine loaded memory; clone it per run.
	RAM     *mem.Memory
	Entry   uint64 // kernel boot entry
	RAMSize uint64
}

// BuildImage assembles a kernel matched to the user program and loads
// both into a pristine RAM image.
func BuildImage(user *asm.Program, ramSize uint64) (*Image, error) {
	if ramSize == 0 {
		ramSize = mem.DefaultSize
	}
	heap := (user.End() + 63) &^ 63
	k, err := Build(user.ISA, Params{
		UserEntry: user.Entry,
		UserSP:    mem.UserStackTop(ramSize),
		HeapStart: heap,
	})
	if err != nil {
		return nil, err
	}
	ram := mem.New(ramSize)
	if err := k.Load(ram); err != nil {
		return nil, fmt.Errorf("loading kernel: %w", err)
	}
	if user.TextAddr < mem.UserBase {
		return nil, fmt.Errorf("user text at %#x overlaps kernel space", user.TextAddr)
	}
	if err := user.Load(ram); err != nil {
		return nil, fmt.Errorf("loading user program: %w", err)
	}
	return &Image{
		ISA:     user.ISA,
		Kernel:  k,
		User:    user,
		RAM:     ram,
		Entry:   k.Entry,
		RAMSize: ramSize,
	}, nil
}

// NewMemory returns a fresh RAM copy for one simulation run.
func (im *Image) NewMemory() *mem.Memory { return im.RAM.Clone() }

// Package dev implements the platform devices: the memory-mapped output
// DMA engine, the halt/panic/detect ports and a debug console. The DMA
// engine is the load-bearing device for the paper's Escaped (ESC) fault
// propagation model: it drains output buffers straight out of the memory
// system without the bytes ever re-entering the pipeline, so a fault
// sitting in a cached output byte corrupts the program output while
// remaining invisible to every software-level measurement.
package dev

import "vulnstack/internal/mem"

// Device register offsets from mem.MMIOBase. All registers are 64-bit
// and accessible only in kernel mode (the CPU models enforce the mode).
const (
	RegHalt    = 0x00 // write exit code: clean termination
	RegDMASrc  = 0x08 // DMA source physical address
	RegDMALen  = 0x10 // DMA length in bytes
	RegDMACtrl = 0x18 // write 1: transfer source range to the output sink
	RegDetect  = 0x20 // write: software fault-detection signal, halts run
	RegPanic   = 0x28 // write code: kernel panic, halts run
	RegPutc    = 0x30 // write byte: debug console
)

// HaltKind describes how a run terminated.
type HaltKind int

const (
	HaltNone     HaltKind = iota
	HaltClean             // exit() reached the halt port
	HaltPanic             // kernel panic port
	HaltDetected          // software fault-tolerance detection port
)

func (h HaltKind) String() string {
	switch h {
	case HaltClean:
		return "clean"
	case HaltPanic:
		return "panic"
	case HaltDetected:
		return "detected"
	default:
		return "running"
	}
}

// DMAReader supplies device-side memory reads. The functional emulator
// reads RAM directly; the microarchitectural model snoops its cache
// hierarchy so that dirty (possibly fault-corrupted) cached copies are
// what the device observes — the ESC propagation path.
type DMAReader interface {
	DMARead(addr uint64) (byte, bool)
	// DMAReadNotify is called once per transferred byte so fault
	// bookkeeping can classify escaped corruption. May be a no-op.
	DMAReadNotify(addr uint64)
}

// ramReader reads straight from RAM.
type ramReader struct{ m *mem.Memory }

func (r ramReader) DMARead(addr uint64) (byte, bool) { return r.m.Byte(addr) }
func (r ramReader) DMAReadNotify(uint64)             {}

// Bus couples RAM and devices for one simulated machine instance.
type Bus struct {
	Mem *mem.Memory
	// Reader performs device-side (DMA) memory reads. Defaults to a
	// direct RAM reader.
	Reader DMAReader

	// Out is the byte stream delivered by the DMA engine: the program's
	// observable output, compared against the golden run.
	Out []byte
	// Dbg collects debug console bytes (not part of program output).
	Dbg []byte

	Halt       HaltKind
	ExitCode   uint64
	DetectCode uint64
	PanicCode  uint64
	// DMAErr records a DMA transfer that touched unmapped memory (a
	// symptom of fault-corrupted pointers in the kernel I/O path).
	DMAErr bool

	dmaSrc uint64
	dmaLen uint64
}

// NewBus creates a bus over m with direct-RAM DMA reads.
func NewBus(m *mem.Memory) *Bus {
	b := &Bus{Mem: m}
	b.Reader = ramReader{m}
	return b
}

// Halted reports whether any halt port fired.
func (b *Bus) Halted() bool { return b.Halt != HaltNone }

// Load handles a kernel-mode MMIO load. All device registers read back
// as zero (status "ready"); out-of-window offsets fail.
func (b *Bus) Load(addr uint64, n int) (uint64, bool) {
	if !mem.IsMMIO(addr) || n <= 0 || addr+uint64(n) > mem.MMIOBase+mem.MMIOSize {
		return 0, false
	}
	return 0, true
}

// Store handles a kernel-mode MMIO store.
func (b *Bus) Store(addr uint64, n int, val uint64) bool {
	if !mem.IsMMIO(addr) || n <= 0 || addr+uint64(n) > mem.MMIOBase+mem.MMIOSize {
		return false
	}
	switch addr - mem.MMIOBase {
	case RegHalt:
		b.Halt, b.ExitCode = HaltClean, val
	case RegDMASrc:
		b.dmaSrc = val
	case RegDMALen:
		b.dmaLen = val
	case RegDMACtrl:
		if val&1 != 0 {
			b.runDMA()
		}
	case RegDetect:
		b.Halt, b.DetectCode = HaltDetected, val
	case RegPanic:
		b.Halt, b.PanicCode = HaltPanic, val
	case RegPutc:
		b.Dbg = append(b.Dbg, byte(val))
	default:
		// Writes to undefined registers are ignored (fault tolerance of
		// the device against corrupted kernel stores).
	}
	return true
}

// runDMA transfers the programmed range to the output sink, reading
// through the model-supplied Reader so cached corruption escapes.
func (b *Bus) runDMA() {
	const maxDMA = 1 << 20 // device-enforced cap against corrupted lengths
	n := b.dmaLen
	if n > maxDMA {
		n = maxDMA
		b.DMAErr = true
	}
	for i := uint64(0); i < n; i++ {
		c, ok := b.Reader.DMARead(b.dmaSrc + i)
		if !ok {
			b.DMAErr = true
			return
		}
		b.Reader.DMAReadNotify(b.dmaSrc + i)
		b.Out = append(b.Out, c)
	}
}

// StateEqual reports whether the device-side state of two buses is
// identical: halt ports, DMA registers and error flag, and the full
// output and debug streams. RAM (Mem) and the Reader hook are excluded
// — memory equality is the caller's job (the early-stop engines compare
// it dirty-page-wise) and the Reader is an observer, not state.
func (b *Bus) StateEqual(o *Bus) bool {
	return b.Halt == o.Halt && b.ExitCode == o.ExitCode &&
		b.DetectCode == o.DetectCode && b.PanicCode == o.PanicCode &&
		b.DMAErr == o.DMAErr && b.dmaSrc == o.dmaSrc && b.dmaLen == o.dmaLen &&
		string(b.Out) == string(o.Out) && string(b.Dbg) == string(o.Dbg)
}

// Reset clears device state for a fresh run over the same RAM object.
func (b *Bus) Reset() {
	b.Out = b.Out[:0]
	b.Dbg = b.Dbg[:0]
	b.Halt, b.ExitCode, b.DetectCode, b.PanicCode = HaltNone, 0, 0, 0
	b.DMAErr = false
	b.dmaSrc, b.dmaLen = 0, 0
}

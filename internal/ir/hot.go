package ir

// This file exports the interpreter's frame, memory, and kernel-ABI
// primitives for the compiled direct-threaded engine (internal/tb),
// which replays call()'s per-op semantics over flattened op arrays and
// must match them bit-exactly — including dirty-page tracking (restore
// correctness), address-check errors, and syscall edge cases.

// SP returns the current stack pointer.
func (ip *Interp) SP() int64 { return ip.sp }

// SetSP sets the stack pointer (frame allocation/restoration).
func (ip *Interp) SetSP(v int64) { ip.sp = v }

// HeapEnd returns the top of the static data area; the stack
// overflows when it descends below it.
func (ip *Interp) HeapEnd() int64 { return ip.heapEnd }

// MemLoad performs a load with full interpreter semantics (address
// check, width wrap, sign extension).
func (ip *Interp) MemLoad(addr int64, n int, unsigned bool) (int64, error) {
	return ip.load(addr, n, unsigned)
}

// MemStore performs a store with full interpreter semantics (address
// check, Mem's dirty-page tracking).
func (ip *Interp) MemStore(addr int64, n int, val int64) error {
	return ip.store(addr, n, val)
}

// SyscallV is the value-based kernel ABI: arguments past the ones a
// syscall reads are ignored, and absent arguments must be passed as 0
// (matching the register-indirect form, which reads missing argument
// registers as 0). The interpreter's own syscall dispatch delegates
// here.
func (ip *Interp) SyscallV(num, a0, a1 int64) (int64, error) {
	return ip.syscallV(num, a0, a1)
}

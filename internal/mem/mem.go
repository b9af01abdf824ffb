// Package mem provides the simulated physical memory and the system
// memory map shared by the functional emulator and the microarchitectural
// model. Addressing is physical: the platform has no MMU, a substitution
// documented in DESIGN.md (the paper itself observes that architectural
// vulnerability is ill-defined under virtual memory).
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// System memory map. The first page is an unmapped null guard so that
// fault-induced null dereferences raise access faults (and classify as
// Crash) instead of silently reading zeroes.
const (
	GuardTop     = 0x0000_1000 // [0, GuardTop) is unmapped
	KernBase     = 0x0000_1000 // kernel text
	KernDataBase = 0x0000_8000 // kernel data, staging buffers
	KernStackTop = 0x0000_FFF0 // kernel stack grows down from here
	UserBase     = 0x0001_0000 // user text, then data/bss/heap
	DefaultSize  = 4 << 20     // 4 MiB of RAM
	MMIOBase     = 0xFFFF_0000 // device registers (kernel-mode only)
	MMIOSize     = 0x100
)

// UserStackTop returns the initial user stack pointer for a RAM of the
// given size.
func UserStackTop(size uint64) uint64 { return size - 16 }

// Page granularity of dirty tracking (see EnableTracking): restoring a
// run's golden state copies only the pages the faulty run touched,
// instead of the whole multi-MiB image.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
)

// Granularity of content versioning (see EnableCodeVersions): one
// counter per 256 bytes, finer than a page, so data stores into a page
// that also holds code bump no version unless they hit its code
// granules.
const (
	VerShift   = 8
	VerGranule = 1 << VerShift

	// pageGranules is the number of version granules per page: a page's
	// code flags are one pageGranules-bit field of codeBit.
	pageGranules = PageSize / VerGranule
)

// Memory is a flat byte-addressable RAM image, little-endian.
type Memory struct {
	data []byte

	// Dirty-page tracking, enabled only on reusable campaign arenas:
	// dirtyBit is a page bitmap, dirtyPages the list of pages written
	// since the last RestoreDirty/CopyFrom.
	track      bool
	dirtyBit   []uint64
	dirtyPages []uint32

	// plain holds one flag per whole page of RAM under tracking. A page
	// is plain when it is marked dirty already and holds no FlagCode
	// granule, so a store inside it needs neither a dirty mark nor a
	// version bump (Store64). mark sets the flag, clearDirty (every
	// restore, ResetDirty, TakeDirtyPages and CopyFrom) clears it, and
	// FlagCode clears it for the page of the granule it flags. The guard
	// page is never written, so it is never plain, and a final partial
	// page has no flag, so a plain page lies wholly in RAM.
	plain []bool

	// codeVer, when enabled, holds one version counter per VerGranule
	// bytes, and codeBit flags the granules decoded code lives in (see
	// FlagCode). Only flagged granules are versioned: every content
	// mutation of one (stores, bit flips, page restores that change its
	// bytes) bumps its counter. The translation-block engine flags each
	// granule before it captures the version a block is keyed on, so any
	// write that could invalidate predecoded code — self-modifying
	// stores, injected instruction-bit flips, checkpoint restores —
	// forces a re-decode, while writes to unflagged granules (nearly all
	// data stores) cost no version work at all. A spurious bump only
	// costs a rebuild, never correctness. The granule is finer than a
	// page so data stores sharing a page with hot code do not keep
	// invalidating its blocks.
	codeBit []uint64
	codeVer []uint32
}

// New creates a RAM of the given size in bytes (0 selects DefaultSize).
// RAM ends below the MMIO window, so an address inside RAM never names a
// device register.
func New(size uint64) *Memory {
	if size == 0 {
		size = DefaultSize
	}
	if size > MMIOBase {
		panic(fmt.Sprintf("mem.New: %d bytes of RAM would reach the MMIO window at %#x", size, uint64(MMIOBase)))
	}
	return &Memory{data: make([]byte, size)}
}

// Size returns the RAM size in bytes.
func (m *Memory) Size() uint64 { return uint64(len(m.data)) }

// Valid reports whether [addr, addr+n) lies inside mapped RAM. The end
// address is checked for uint64 wraparound explicitly, and a negative n
// (which would wrap through uint64 conversion) is always invalid.
func (m *Memory) Valid(addr uint64, n int) bool {
	if n < 0 {
		return false
	}
	end := addr + uint64(n)
	if end < addr { // wrapped past 2^64
		return false
	}
	return addr >= GuardTop && end <= uint64(len(m.data))
}

// EnableTracking turns on dirty-page tracking so RestoreDirty can
// restore golden state by copying only the pages written since the last
// restore. Intended for reusable campaign arenas; snapshots and golden
// images stay untracked (tracking does not survive Clone).
func (m *Memory) EnableTracking() {
	if m.track {
		return
	}
	m.track = true
	pages := (len(m.data) + PageSize - 1) >> PageShift
	m.dirtyBit = make([]uint64, (pages+63)/64)
	m.plain = make([]bool, len(m.data)>>PageShift)
}

// EnableCodeVersions turns on per-granule content versioning of the
// granules FlagCode marks (see codeVer). Idempotent; versioning does not
// survive Clone.
func (m *Memory) EnableCodeVersions() {
	if m.codeVer == nil {
		n := (len(m.data) + VerGranule - 1) >> VerShift
		m.codeVer = make([]uint32, n)
		m.codeBit = make([]uint64, (n+63)/64)
	}
}

// FlagCode marks version granule c as holding code: from now on every
// mutation of its bytes bumps its version, and its page is no longer
// plain. A flag is never cleared. Callers flag a granule before reading
// the version they key decoded code on. A no-op without versioning or
// for out-of-range granules.
func (m *Memory) FlagCode(c uint32) {
	if int(c) < len(m.codeVer) {
		m.codeBit[c>>6] |= 1 << (c & 63)
		if p := int(c >> (PageShift - VerShift)); p < len(m.plain) {
			m.plain[p] = false
		}
	}
}

// isCode reports whether granule c is flagged (versioning enabled).
func (m *Memory) isCode(c uint64) bool { return m.codeBit[c>>6]&(1<<(c&63)) != 0 }

// pageHasCode reports whether whole page p holds a flagged granule.
func (m *Memory) pageHasCode(p uint64) bool {
	if m.codeBit == nil {
		return false
	}
	c := p << (PageShift - VerShift)
	return m.codeBit[c>>6]>>(c&63)&(1<<pageGranules-1) != 0
}

// ChunkVersion returns version granule c's content counter (0 until
// versioning is enabled or for out-of-range granules). Once c is
// flagged, two reads returning the same version bracket unmodified
// bytes.
func (m *Memory) ChunkVersion(c uint32) uint32 {
	if int(c) >= len(m.codeVer) {
		return 0
	}
	return m.codeVer[c]
}

// bumpCode advances the version of every flagged granule overlapping a
// validated write [addr, addr+n) and reports whether there was one.
func (m *Memory) bumpCode(addr uint64, n int) bool {
	hit := false
	last := (addr + uint64(n) - 1) >> VerShift
	for c := addr >> VerShift; c <= last; c++ {
		if m.isCode(c) {
			m.codeVer[c]++
			hit = true
		}
	}
	return hit
}

// bumpAllVer advances every granule version (whole-image mutations).
func (m *Memory) bumpAllVer() {
	for c := range m.codeVer {
		m.codeVer[c]++
	}
}

// bumpChangedChunks advances the version of every flagged granule in
// [lo, hi) whose current bytes differ from src (lo is granule-aligned;
// src is indexed relative to lo; bytes past len(src) are about to be
// left unchanged). Restore paths use it instead of a blind bump: a page
// restore rewrites whole pages, but the code granules on them are
// almost always byte-identical across restores, and skipping their bump
// keeps predecoded blocks valid. Unflagged granules hold no decoded
// code, so they are neither compared nor bumped.
func (m *Memory) bumpChangedChunks(lo, hi int, src []byte) {
	for off := lo; off < hi; off += VerGranule {
		if !m.isCode(uint64(off) >> VerShift) {
			continue
		}
		slo := off - lo
		if slo >= len(src) {
			return
		}
		send := slo + VerGranule
		if send > len(src) {
			send = len(src)
		}
		if hi-off < send-slo {
			send = slo + (hi - off)
		}
		if !bytes.Equal(m.data[off:off+(send-slo)], src[slo:send]) {
			m.codeVer[off>>VerShift]++
		}
	}
}

// mark records the pages of a validated write [addr, addr+n), and
// flags each newly dirty whole page that holds no code granule plain.
// (A page that is dirty but not plain holds a code granule: only
// clearDirty takes the flag away otherwise, and a code flag is never
// cleared.)
func (m *Memory) mark(addr uint64, n int) {
	last := (addr + uint64(n) - 1) >> PageShift
	for p := addr >> PageShift; p <= last; p++ {
		if m.dirtyBit[p>>6]&(1<<(p&63)) == 0 {
			m.dirtyBit[p>>6] |= 1 << (p & 63)
			m.dirtyPages = append(m.dirtyPages, uint32(p))
			if p < uint64(len(m.plain)) && !m.pageHasCode(p) {
				m.plain[p] = true
			}
		}
	}
}

func (m *Memory) clearDirty() {
	for _, p := range m.dirtyPages {
		m.dirtyBit[p>>6] &^= 1 << (p & 63)
		if int(p) < len(m.plain) {
			m.plain[p] = false
		}
	}
	m.dirtyPages = m.dirtyPages[:0]
}

// DirtyPages returns how many pages have been written since the last
// restore (0 when tracking is disabled).
func (m *Memory) DirtyPages() int { return len(m.dirtyPages) }

// Tracking reports whether dirty-page tracking is enabled.
func (m *Memory) Tracking() bool { return m.track }

// DirtyPageList returns the pages written since the last restore, in
// first-write order. The slice aliases internal state: it is valid only
// until the next write/restore and must not be mutated.
func (m *Memory) DirtyPageList() []uint32 { return m.dirtyPages }

// TakeDirtyPages appends the pages written since the last take (or
// restore) to dst, in first-write order, and clears the dirty set,
// re-baselining tracking at the current contents. Golden-run checkpoint
// capture uses it to learn which pages each checkpoint interval wrote
// without restoring anything: pages are exactly the ckpt chain's RAM
// chunks.
func (m *Memory) TakeDirtyPages(dst []int) []int {
	for _, p := range m.dirtyPages {
		dst = append(dst, int(p))
	}
	m.clearDirty()
	return dst
}

// Page returns the contents of page p as a subslice of the backing
// store (short for the final partial page, empty when out of range).
// The slice aliases internal state: it is valid only until the next
// write/restore and must not be mutated.
func (m *Memory) Page(p uint32) []byte {
	lo := int(p) << PageShift
	if lo >= len(m.data) {
		return nil
	}
	hi := lo + PageSize
	if hi > len(m.data) {
		hi = len(m.data)
	}
	return m.data[lo:hi]
}

// Bytes returns the full RAM contents as a read-only aliasing slice
// (checkpoint capture walks it chunk-wise). Must not be mutated.
func (m *Memory) Bytes() []byte { return m.data }

// SetPage overwrites page p with data without marking it dirty: the
// checkpoint-chain restore uses it to materialize a known-good state
// and then re-baselines tracking itself via ResetDirty.
func (m *Memory) SetPage(p uint32, data []byte) {
	lo := int(p) << PageShift
	if lo >= len(m.data) {
		return
	}
	hi := lo + PageSize
	if hi > len(m.data) {
		hi = len(m.data)
	}
	if m.codeVer != nil {
		m.bumpChangedChunks(lo, hi, data)
	}
	copy(m.data[lo:hi], data)
}

// ResetDirty clears the dirty set without copying anything: the caller
// asserts the contents now match whatever baseline it restores against.
func (m *Memory) ResetDirty() {
	if m.track {
		m.clearDirty()
	}
}

// PageEqual reports whether page p has identical contents in m and src.
// Sizes must match; an out-of-range page compares equal (both empty).
func (m *Memory) PageEqual(src *Memory, p uint32) bool {
	if len(m.data) != len(src.data) {
		panic(fmt.Sprintf("mem.PageEqual: size mismatch %d != %d", len(m.data), len(src.data)))
	}
	lo := int(p) << PageShift
	if lo >= len(m.data) {
		return true
	}
	hi := lo + PageSize
	if hi > len(m.data) {
		hi = len(m.data)
	}
	return bytes.Equal(m.data[lo:hi], src.data[lo:hi])
}

// RestoreDirty restores this memory to equal src by copying back only
// the pages written since the last RestoreDirty/CopyFrom. The caller
// must guarantee the untracked pages already equal src (i.e. src was
// also the source of the previous restore). Without tracking enabled it
// degrades to a full CopyFrom. Sizes must match.
func (m *Memory) RestoreDirty(src *Memory) {
	if !m.track {
		m.CopyFrom(src)
		return
	}
	if len(m.data) != len(src.data) {
		panic(fmt.Sprintf("mem.RestoreDirty: size mismatch %d != %d", len(m.data), len(src.data)))
	}
	for _, p := range m.dirtyPages {
		lo := int(p) << PageShift
		hi := lo + PageSize
		if hi > len(m.data) {
			hi = len(m.data)
		}
		if m.codeVer != nil {
			m.bumpChangedChunks(lo, hi, src.data[lo:hi])
		}
		copy(m.data[lo:hi], src.data[lo:hi])
	}
	m.clearDirty()
}

// LoadLE returns the n-byte little-endian word at the start of b, for n
// in {1, 2, 4, 8}: the word kernel behind Read, shared with the IR
// interpreter's flat memory.
func LoadLE(b []byte, n int) uint64 {
	switch n {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

// StoreLE writes the low n bytes of v at the start of b, little-endian,
// for n in {1, 2, 4, 8}: the word kernel behind Write.
func StoreLE(b []byte, n int, v uint64) {
	switch n {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}

// Read loads an n-byte little-endian value (n in {1,2,4,8}).
func (m *Memory) Read(addr uint64, n int) (uint64, bool) {
	if !m.Valid(addr, n) {
		return 0, false
	}
	return LoadLE(m.data[addr:], n), true
}

// Write stores the low n bytes of val at addr, little-endian (n in
// {1,2,4,8}). It validates the range (ok is false, and nothing changes,
// outside RAM), marks the written page dirty under tracking, and reports
// in code whether it touched a granule flagged by FlagCode, whose
// version it bumped: only such a store can have overwritten decoded
// code.
func (m *Memory) Write(addr uint64, n int, val uint64) (ok, code bool) {
	if !m.Valid(addr, n) {
		return false, false
	}
	if m.track {
		m.mark(addr, n)
	}
	if m.codeVer != nil {
		code = m.bumpCode(addr, n)
	}
	StoreLE(m.data[addr:], n, val)
	return true, code
}

// Store64 writes v as the aligned 8-byte word at addr when addr's page
// is plain: the page is dirty already and holds no code granule, so
// Write's mark and version bump would do nothing. ok is false, with
// nothing written, otherwise, and the caller goes through Write. Small
// enough to inline into an execution engine's dispatch loop.
func (m *Memory) Store64(addr, v uint64) (ok bool) {
	p := addr >> PageShift
	if addr&7 != 0 || p >= uint64(len(m.plain)) || !m.plain[p] {
		return false
	}
	binary.LittleEndian.PutUint64(m.data[addr:], v)
	return true
}

// WriteBytes copies src into memory at addr.
func (m *Memory) WriteBytes(addr uint64, src []byte) bool {
	if !m.Valid(addr, len(src)) {
		return false
	}
	if m.track && len(src) > 0 {
		m.mark(addr, len(src))
	}
	if m.codeVer != nil && len(src) > 0 {
		m.bumpCode(addr, len(src))
	}
	copy(m.data[addr:], src)
	return true
}

// Byte returns the byte at addr (for device-side reads).
func (m *Memory) Byte(addr uint64) (byte, bool) {
	if !m.Valid(addr, 1) {
		return 0, false
	}
	return m.data[addr], true
}

// FlipBit flips a single bit: the transient-fault primitive for faults
// injected directly into memory/architectural state.
func (m *Memory) FlipBit(addr uint64, bit uint) bool {
	if !m.Valid(addr, 1) || bit > 7 {
		return false
	}
	if m.track {
		m.mark(addr, 1)
	}
	if m.codeVer != nil {
		m.bumpCode(addr, 1)
	}
	m.data[addr] ^= 1 << bit
	return true
}

// Clone returns a deep copy (used for golden-state snapshots).
func (m *Memory) Clone() *Memory {
	d := make([]byte, len(m.data))
	copy(d, m.data)
	return &Memory{data: d}
}

// CopyFrom overwrites this memory's contents from src (sizes must
// match). With tracking enabled this re-baselines the dirty set: the
// memory now equals src everywhere, so pending dirty pages are cleared.
func (m *Memory) CopyFrom(src *Memory) {
	if len(m.data) != len(src.data) {
		panic(fmt.Sprintf("mem.CopyFrom: size mismatch %d != %d", len(m.data), len(src.data)))
	}
	copy(m.data, src.data)
	if m.track {
		m.clearDirty()
	}
	if m.codeVer != nil {
		m.bumpAllVer()
	}
}

// Word32 reads an aligned 32-bit word (instruction fetch helper).
func (m *Memory) Word32(addr uint64) (uint32, bool) {
	if addr%4 != 0 || !m.Valid(addr, 4) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(m.data[addr:]), true
}

// IsMMIO reports whether addr targets the device register window.
func IsMMIO(addr uint64) bool { return addr >= MMIOBase && addr < MMIOBase+MMIOSize }

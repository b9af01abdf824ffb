package micro

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// This file records and queries the golden run's lifetime table: for
// every physical register and every cache line, the ordered events that
// decide a single-bit flip's fate. Until something reads a flipped bit,
// a faulty machine equals the golden one in everything but that bit and
// its taint flag, and no timing depends on an unread bit. So when the
// golden run's first event on the bit at or after the fault cycle
// overwrites or discards it, the faulty run re-equals golden there and
// ends Masked with no architectural contact, and a flip into an entry
// that is dead at the fault cycle is masked at once (Core.Inject's
// Live=false). The table decides both cases without a machine.
//
// Channels. A register stream holds allocPhys, writePhys, every srcVal
// read (wrong-path reads included: they steer the squashed path's
// loads, branch predictor updates and hence timing) and freePhys (at
// commit, in undoRename and in rollbackEntry). A cache line stream
// starts with the line's first fill (a fault-free run never
// invalidates a line: only flipBit clears valid), then holds its reads
// (read: fetch and loads; readLine: this level serving a refill above;
// snoop: the DMA engine; the dirty-victim write-back in refill and
// flushAll) and its overwrites (write: store commit; writeLine: a
// write-back absorbed from above; the refill of the line's slot, which
// also discards a clean victim).
//
// Encoding. Each entry's stream is a byte string of events, one uvarint
// per event of the cycle delta since the entry's previous event shifted
// left by two, or'd with the event kind; a cache range event adds a
// uvarint of its line offset shifted left by three, or'd with its
// length minus one.

// Register event kinds.
const (
	evAlloc = iota
	evWrite
	evRead
	evFree
)

// Cache-line event kinds: bit 0 set means an overwrite, bit 1 set means
// a byte range (off, n) instead of the whole line.
const (
	evLineRead = iota
	evLineWrite
	evRangeRead
	evRangeWrite
)

// stream is one entry's event stream while recording.
type stream struct {
	last uint64
	b    []byte
}

func (s *stream) add(cycle uint64, kind int) {
	s.b = binary.AppendUvarint(s.b, (cycle-s.last)<<2|uint64(kind))
	s.last = cycle
}

// recorder is a core's lifetime recorder (Core.rec), attached only to
// a golden run.
type recorder struct {
	regs  []stream
	lines [3]lineLog // L1I, L1D, L2
}

// lineLog is one cache level's recorder (cache.rec).
type lineLog struct {
	cycle *uint64 // the recording core's Cycle
	lines []stream
}

// whole records an event covering all of line li.
func (l *lineLog) whole(li, kind int) { l.lines[li].add(*l.cycle, kind) }

// span records an event covering bytes [off, off+n) of line li.
func (l *lineLog) span(li, kind, off, n int) {
	s := &l.lines[li]
	s.add(*l.cycle, kind)
	s.b = binary.AppendUvarint(s.b, uint64(off)<<3|uint64(n-1))
}

// regEvent records a register event when the core is recording.
func (c *Core) regEvent(p, kind int) {
	if c.rec != nil {
		c.rec.regs[p].add(c.Cycle, kind)
	}
}

// RecordLifetimes makes a freshly built core record the lifetime table
// of its run, until AppendLifetimes ends the recording.
func (c *Core) RecordLifetimes() {
	c.rec = &recorder{regs: make([]stream, c.Cfg.PhysRegs)}
	for i, ch := range c.caches() {
		c.rec.lines[i] = lineLog{cycle: &c.Cycle, lines: make([]stream, ch.cfg.Lines())}
		ch.rec = &c.rec.lines[i]
	}
}

// AppendLifetimes ends the recording and appends the recorded table's
// encoding (the form DecodeLifetimes reads) to dst.
func (c *Core) AppendLifetimes(dst []byte) []byte {
	rec := c.rec
	c.rec = nil
	lt := &Lifetimes{regs: c.IS.NumRegs()}
	lt.sets[0] = packStreams(rec.regs, c.IS.XLen(), 0)
	for i, ch := range c.caches() {
		ch.rec = nil
		lt.sets[1+i] = packStreams(rec.lines[i].lines, ch.cfg.BitsPerLine(), ch.cfg.LineBytes)
	}
	return lt.AppendBinary(dst)
}

// packStreams gathers a structure's non-empty streams into a lifeSet.
func packStreams(ss []stream, bits, lineBytes int) lifeSet {
	s := lifeSet{entries: len(ss), bits: bits, lineBytes: lineBytes, offs: []uint32{0}}
	for e := range ss {
		if b := ss[e].b; len(b) > 0 {
			s.ents = append(s.ents, int32(e))
			s.data = append(s.data, b...)
			s.offs = append(s.offs, uint32(len(s.data)))
		}
	}
	return s
}

// Lifetimes is a golden run's lifetime table: per physical register and
// per line of L1i, L1d and L2, the events that decide a flip's fate. It
// aliases the bytes it was decoded from.
type Lifetimes struct {
	// regs is the number of architectural registers mapped at boot; the
	// other physical registers start on the free list.
	regs int
	sets [4]lifeSet // RF, L1I, L1D, L2
}

// lifeSet holds one structure's streams. Entry ents[k]'s events are
// data[offs[k]:offs[k+1]]; an entry missing from ents had none.
type lifeSet struct {
	entries   int // registers or lines
	bits      int // injectable bits per entry (Config.StructDims)
	lineBytes int // cache line size; 0 for the register file
	ents      []int32
	offs      []uint32
	data      []byte
}

// Fate is what the lifetime table decides about one fault.
type Fate uint8

const (
	// FateRun: undecided. The fault must be injected and simulated.
	FateRun Fate = iota
	// FateDead: the entry is dead at the fault cycle (a free register,
	// or a line not yet filled when the bit is not the valid bit):
	// Masked, not live, exactly Core.Inject's Live=false.
	FateDead
	// FateMasked: the entry is live, but the golden run overwrites or
	// discards the bit before any read: Masked with no contact.
	FateMasked
)

func (lt *Lifetimes) set(s Structure) *lifeSet {
	switch s {
	case StructRF:
		return &lt.sets[0]
	case StructL1I:
		return &lt.sets[1]
	case StructL1D:
		return &lt.sets[2]
	case StructL2:
		return &lt.sets[3]
	}
	return nil
}

// Fits reports whether the table was recorded under cfg's geometry.
func (lt *Lifetimes) Fits(cfg *Config) bool {
	if lt.regs != cfg.ISA.NumRegs() {
		return false
	}
	for _, s := range []Structure{StructRF, StructL1I, StructL1D, StructL2} {
		set := lt.set(s)
		entries, bits := cfg.StructDims(s)
		if set.entries != entries || set.bits != bits {
			return false
		}
	}
	return lt.sets[0].lineBytes == 0 && lt.sets[1].lineBytes == cfg.L1I.LineBytes &&
		lt.sets[2].lineBytes == cfg.L1D.LineBytes && lt.sets[3].lineBytes == cfg.L2.LineBytes
}

// Fate classifies a flip of bit of entry of structure s injected at the
// start of cycle (before that cycle's Step), as Core.Inject would. LSQ
// faults, and the tag, valid and dirty bits of valid lines, are always
// FateRun.
func (lt *Lifetimes) Fate(s Structure, entry, bit int, cycle uint64) Fate {
	set := lt.set(s)
	if set == nil || entry < 0 || entry >= set.entries || bit < 0 || bit >= set.bits {
		return FateRun
	}
	ev := set.stream(entry)
	if s == StructRF {
		return regFate(ev, entry >= lt.regs, cycle)
	}
	return lineFate(ev, set, bit, cycle)
}

func (s *lifeSet) stream(entry int) []byte {
	k, ok := slices.BinarySearch(s.ents, int32(entry))
	if !ok {
		return nil
	}
	return s.data[s.offs[k]:s.offs[k+1]]
}

// next decodes one event word, advancing *cycle; ev is a validated
// stream.
func next(ev []byte, cycle *uint64) (kind int, rest []byte) {
	v, n := binary.Uvarint(ev)
	*cycle += v >> 2
	return int(v & 3), ev[n:]
}

// regFate scans a register's events. free is the boot state.
func regFate(ev []byte, free bool, t uint64) Fate {
	var cycle uint64
	for len(ev) > 0 {
		var kind int
		kind, ev = next(ev, &cycle)
		if cycle >= t {
			switch {
			case free:
				return FateDead
			case kind == evRead, kind == evAlloc: // alloc: never on a mapped register
				return FateRun
			}
			return FateMasked // written or freed before any read
		}
		switch kind {
		case evAlloc:
			free = false
		case evFree:
			free = true
		}
	}
	if free {
		return FateDead
	}
	return FateMasked
}

// lineFate scans a cache line's events. Bit layout follows flipBit:
// data, tag, valid, dirty.
func lineFate(ev []byte, set *lifeSet, bit int, t uint64) Fate {
	if bit == set.bits-2 {
		return FateRun // the valid bit: an invalid line springs to life
	}
	i := bit / 8
	var cycle uint64
	filled := false
	for len(ev) > 0 {
		var kind int
		kind, ev = next(ev, &cycle)
		off, end := 0, set.lineBytes
		if kind&2 != 0 {
			r, n := binary.Uvarint(ev)
			ev = ev[n:]
			off = int(r >> 3)
			end = off + int(r&7) + 1
		}
		if !filled {
			// The first event is the fill.
			if cycle >= t {
				return FateDead
			}
			if bit >= 8*set.lineBytes {
				return FateRun // tag or dirty bit of a valid line
			}
			filled = true
			continue
		}
		if cycle < t || i < off || i >= end {
			continue
		}
		if kind&1 == 0 {
			return FateRun
		}
		return FateMasked
	}
	if !filled {
		return FateDead
	}
	return FateMasked
}

// AppendBinary appends the table's encoding to dst: a uvarint of regs,
// then per set uvarints of entries, bits, lineBytes and the stream
// count, per stream the entry gap (ents[k]-ents[k-1]-1) and the byte
// length, and the concatenated streams.
func (lt *Lifetimes) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(lt.regs))
	for i := range lt.sets {
		s := &lt.sets[i]
		for _, v := range []int{s.entries, s.bits, s.lineBytes, len(s.ents)} {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
		prev := int32(-1)
		for k, e := range s.ents {
			dst = binary.AppendUvarint(dst, uint64(e-prev-1))
			dst = binary.AppendUvarint(dst, uint64(s.offs[k+1]-s.offs[k]))
			prev = e
		}
		dst = append(dst, s.data...)
	}
	return dst
}

// decoder reads canonical uvarints, checking every claimed length
// against the remaining input.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) uv(max uint64) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	switch {
	case n <= 0:
		d.err = fmt.Errorf("micro: truncated lifetime table")
	case n != uvarintLen(v):
		d.err = fmt.Errorf("micro: non-canonical varint in lifetime table")
	case v > max:
		d.err = fmt.Errorf("micro: lifetime table value %d exceeds %d", v, max)
	default:
		d.b = d.b[n:]
		return v
	}
	return 0
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// maxEntries bounds a structure's entry count (L2 lines of the largest
// config are 1<<15).
const maxEntries = 1 << 24

// DecodeLifetimes decodes a table encoded by AppendLifetimes or
// AppendBinary, which must span all of b. The table aliases b. Every
// stream is checked to be well formed, so Fate never fails on a
// decoded table.
func DecodeLifetimes(b []byte) (*Lifetimes, error) {
	d := &decoder{b: b}
	lt := &Lifetimes{regs: int(d.uv(32))}
	for i := range lt.sets {
		s := &lt.sets[i]
		s.entries = int(d.uv(maxEntries))
		s.bits = int(d.uv(1 << 20))
		s.lineBytes = int(d.uv(1 << 16))
		// Every stream costs at least two index bytes and one event byte.
		k := int(d.uv(uint64(min(s.entries, len(d.b)/3))))
		if d.err != nil {
			return nil, d.err
		}
		s.ents = make([]int32, k)
		s.offs = make([]uint32, k+1)
		e := -1
		for j := 0; j < k; j++ {
			e += 1 + int(d.uv(uint64(s.entries-e-1)))
			n := d.uv(uint64(len(d.b)))
			if d.err != nil {
				return nil, d.err
			}
			if e >= s.entries || n == 0 || uint64(s.offs[j])+n > uint64(len(d.b)) {
				return nil, fmt.Errorf("micro: lifetime stream %d of set %d out of range", j, i)
			}
			s.ents[j] = int32(e)
			s.offs[j+1] = s.offs[j] + uint32(n)
		}
		size := int(s.offs[k])
		if size > len(d.b) {
			return nil, fmt.Errorf("micro: truncated lifetime streams")
		}
		s.data, d.b = d.b[:size:size], d.b[size:]
		for j := 0; j < k; j++ {
			if !validStream(s.data[s.offs[j]:s.offs[j+1]], i > 0) {
				return nil, fmt.Errorf("micro: malformed lifetime stream %d of set %d", j, i)
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("micro: %d trailing bytes after lifetime table", len(d.b))
	}
	return lt, nil
}

// validStream reports whether ev parses as whole events whose cycles do
// not overflow; lines carry a range word after each range event.
func validStream(ev []byte, lines bool) bool {
	var cycle uint64
	for len(ev) > 0 {
		v, n := binary.Uvarint(ev)
		if n <= 0 || cycle+v>>2 < cycle {
			return false
		}
		cycle += v >> 2
		ev = ev[n:]
		if lines && v&2 != 0 {
			if _, n = binary.Uvarint(ev); n <= 0 {
				return false
			}
			ev = ev[n:]
		}
	}
	return true
}

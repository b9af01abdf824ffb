package micro

import (
	"math/bits"

	"vulnstack/internal/mem"
)

// taintMask values record which bits of a byte differ from the fault-
// free execution. 0xFF means "fully corrupted / unknown bits".
type taintMask = uint8

// line is one cache line. All of its bits (tag, data, valid, dirty) are
// real state and injectable.
type line struct {
	valid bool
	dirty bool
	tag   uint64
	data  []byte
	// taint marks bytes whose content differs from the fault-free run
	// (nil when the line is clean of taint). Taint travels with the
	// data through refills and writebacks. Non-nil, it is the line's
	// slot of its cache's taint slab (cache.newTaint).
	taint []taintMask
	lru   int64
}

func (l *line) tainted() bool {
	for _, m := range l.taint {
		if m != 0 {
			return true
		}
	}
	return false
}

// memLevel is the next-lower memory level a cache refills from and
// writes back to.
type memLevel interface {
	readLine(addr uint64, dst, taint []byte) int
	writeLine(addr uint64, src []byte, taint []byte) int
}

// ramLevel is the bottom of the hierarchy: RAM plus its taint map.
type ramLevel struct {
	m      *mem.Memory
	lat    int
	taints map[uint64]taintMask
	keys   []uint64 // appendTaints' scratch
}

func newRAMLevel(m *mem.Memory, lat int) *ramLevel {
	return &ramLevel{m: m, lat: lat, taints: make(map[uint64]taintMask)}
}

func (r *ramLevel) readLine(addr uint64, dst, taint []byte) int {
	// Lines may cover unmapped space (e.g. a corrupted tag): unmapped
	// bytes read as zero, like a bus returning garbage.
	for i := range dst {
		b, ok := r.m.Byte(addr + uint64(i))
		if !ok {
			b = 0
		}
		dst[i] = b
	}
	for i := range taint {
		taint[i] = r.taints[addr+uint64(i)]
	}
	return r.lat
}

func (r *ramLevel) writeLine(addr uint64, src []byte, taint []byte) int {
	for i := range src {
		r.m.Write(addr+uint64(i), 1, uint64(src[i]))
		a := addr + uint64(i)
		var tm taintMask
		if taint != nil {
			tm = taint[i]
		}
		if tm != 0 {
			r.taints[a] = tm
		} else {
			delete(r.taints, a)
		}
	}
	return r.lat
}

// taintRange marks RAM bytes stale (used for lost-dirty-line faults).
func (r *ramLevel) taintRange(addr uint64, n int) {
	for i := 0; i < n; i++ {
		r.taints[addr+uint64(i)] = 0xFF
	}
}

// cache is one set-associative writeback cache level.
type cache struct {
	cfg     CacheConfig
	sets    [][]line
	backing []byte
	// taints is the slab of every line's taint mask slot, allocated on
	// the cache's first taint and kept (see newTaint); tbuf is refill's
	// scratch for the taint masks of a line read from below.
	taints  []taintMask
	tbuf    []taintMask
	lower   memLevel
	offBits uint
	idxBits uint
	tick    int64
	// stateOff is the offset of this cache's section in the core's
	// EncodeState blob (see state.go).
	stateOff int
	// touched is the set of lines mutated since the last state decode,
	// by line index (set-major, the codec's order): a bitset plus its
	// members in first-touch order. Every line mutation goes through
	// touch, flipBit or flushAll, which mark the line; a decode clears
	// the set. Not to be confused with a line's write-back dirty bit.
	touchedBits []uint64
	touched     []int32
	// rec records line events during a golden run (see lifetime.go).
	rec *lineLog
}

func newCache(cfg CacheConfig, lower memLevel) *cache {
	c := &cache{
		cfg:     cfg,
		lower:   lower,
		offBits: uint(bits.TrailingZeros32(uint32(cfg.LineBytes))),
		idxBits: uint(bits.TrailingZeros32(uint32(cfg.Sets()))),
	}
	// One backing array for all line data: the state codec reads and
	// writes it as one section. One array for all lines, too, which the
	// sets slice.
	lb := cfg.LineBytes
	c.backing = make([]byte, cfg.Lines()*lb)
	c.tbuf = make([]taintMask, lb)
	c.touchedBits = make([]uint64, (cfg.Lines()+63)/64)
	lines := make([]line, cfg.Lines())
	for li := range lines {
		lines[li].data = c.backing[li*lb : (li+1)*lb : (li+1)*lb]
	}
	c.sets = make([][]line, cfg.Sets())
	for i := range c.sets {
		c.sets[i] = lines[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return c
}

// newTaint returns line li's taint mask slot, zeroed. The slab behind
// the slots is allocated once, on the cache's first taint: a golden run
// never allocates it, and a reused worker arena keeps it.
func (c *cache) newTaint(li int) []taintMask {
	if c.taints == nil {
		c.taints = make([]taintMask, len(c.backing))
	}
	lb := c.cfg.LineBytes
	t := c.taints[li*lb : (li+1)*lb : (li+1)*lb]
	clear(t)
	return t
}

func (c *cache) index(addr uint64) (set int, tag uint64, off int) {
	off = int(addr & (uint64(c.cfg.LineBytes) - 1))
	set = int((addr >> c.offBits) & (uint64(c.cfg.Sets()) - 1))
	tag = addr >> (c.offBits + c.idxBits)
	return
}

// lineAddr reconstructs the base address a line maps to.
func (c *cache) lineAddr(set int, tag uint64) uint64 {
	return tag<<(c.offBits+c.idxBits) | uint64(set)<<c.offBits
}

// lookup returns the hitting way or -1.
func (c *cache) lookup(set int, tag uint64) int {
	for w := range c.sets[set] {
		l := &c.sets[set][w]
		if l.valid && l.tag == tag {
			return w
		}
	}
	return -1
}

// refill ensures the line containing addr is present, returning the way
// and the added latency.
func (c *cache) refill(addr uint64) (int, int) {
	set, tag, _ := c.index(addr)
	if w := c.lookup(set, tag); w >= 0 {
		return w, 0
	}
	// Choose an LRU victim (invalid ways first).
	victim, best := 0, int64(1<<62)
	for w := range c.sets[set] {
		l := &c.sets[set][w]
		if !l.valid {
			victim = w
			best = -1
			break
		}
		if l.lru < best {
			victim, best = w, l.lru
		}
	}
	lat := 0
	v := &c.sets[set][victim]
	if v.valid && v.dirty {
		if c.rec != nil {
			c.rec.whole(set*c.cfg.Assoc+victim, evLineRead)
		}
		c.lower.writeLine(c.lineAddr(set, v.tag), v.data, v.taint)
	}
	if c.rec != nil {
		c.rec.whole(set*c.cfg.Assoc+victim, evLineWrite)
	}
	v.valid, v.dirty, v.tag = true, false, tag
	if v.taint != nil {
		for i := range v.taint {
			v.taint[i] = 0
		}
	}
	base := c.lineAddr(set, tag)
	if v.taint != nil {
		lat += c.lower.readLine(base, v.data, v.taint)
	} else {
		lat += c.lower.readLine(base, v.data, c.tbuf)
		if !isZeroMask(c.tbuf) {
			v.taint = c.newTaint(set*c.cfg.Assoc + victim)
			copy(v.taint, c.tbuf)
		}
	}
	c.touch(set, victim)
	return victim, lat
}

func (c *cache) touch(set, way int) {
	c.tick++
	c.sets[set][way].lru = c.tick
	c.mark(set*c.cfg.Assoc + way)
}

// mark adds line li to the touched set.
func (c *cache) mark(li int) {
	if w, b := li>>6, uint64(1)<<(li&63); c.touchedBits[w]&b == 0 {
		c.touchedBits[w] |= b
		c.touched = append(c.touched, int32(li))
	}
}

// clearTouched empties the touched set.
func (c *cache) clearTouched() {
	for _, li := range c.touched {
		c.touchedBits[li>>6] = 0
	}
	c.touched = c.touched[:0]
}

// line returns the line with index li (set-major).
func (c *cache) line(li int) *line {
	return &c.sets[li/c.cfg.Assoc][li%c.cfg.Assoc]
}

// readLine serves a whole-line read from this level (the refill path
// for the level above; line sizes match across levels).
func (c *cache) readLine(addr uint64, dst, taint []byte) int {
	set, _, _ := c.index(addr)
	way, extra := c.refill(addr)
	l := &c.sets[set][way]
	c.touch(set, way)
	if c.rec != nil {
		c.rec.whole(set*c.cfg.Assoc+way, evLineRead)
	}
	copy(dst, l.data)
	if l.taint != nil {
		copy(taint, l.taint)
	} else {
		for i := range taint {
			taint[i] = 0
		}
	}
	return c.cfg.HitLat + extra
}

// writeLine absorbs a whole-line writeback from the level above.
func (c *cache) writeLine(addr uint64, src []byte, tnt []byte) int {
	set, _, _ := c.index(addr)
	way, extra := c.refill(addr)
	l := &c.sets[set][way]
	c.touch(set, way)
	if c.rec != nil {
		c.rec.whole(set*c.cfg.Assoc+way, evLineWrite)
	}
	l.dirty = true
	copy(l.data, src)
	any := false
	for _, m := range tnt {
		if m != 0 {
			any = true
			break
		}
	}
	if any || l.taint != nil {
		if l.taint == nil {
			l.taint = c.newTaint(set*c.cfg.Assoc + way)
		}
		copy(l.taint, tnt)
		if tnt == nil {
			for i := range l.taint {
				l.taint[i] = 0
			}
		}
	}
	return c.cfg.HitLat + extra
}

// read loads n bytes at addr (which must not cross a line), returning
// the value, an OR of taint masks over the bytes, and the latency.
func (c *cache) read(addr uint64, n int) (val uint64, taint taintMask, lat int) {
	set, _, off := c.index(addr)
	way, extra := c.refill(addr)
	l := &c.sets[set][way]
	c.touch(set, way)
	if c.rec != nil {
		c.rec.span(set*c.cfg.Assoc+way, evRangeRead, off, n)
	}
	for i := n - 1; i >= 0; i-- {
		val = val<<8 | uint64(l.data[off+i])
	}
	if l.taint != nil {
		for i := 0; i < n; i++ {
			taint |= l.taint[off+i]
		}
	}
	return val, taint, c.cfg.HitLat + extra
}

// readTaintWord returns the per-byte taint masks for a 4-byte word
// (used by fetch to classify WI vs WOI precisely).
func (c *cache) readTaintWord(addr uint64) [4]taintMask {
	var out [4]taintMask
	set, tag, off := c.index(addr)
	w := c.lookup(set, tag)
	if w < 0 {
		return out
	}
	l := &c.sets[set][w]
	if l.taint == nil {
		return out
	}
	for i := 0; i < 4 && off+i < len(l.data); i++ {
		out[i] = l.taint[off+i]
	}
	return out
}

// write stores n bytes at addr (write-allocate, write-back). tainted
// marks the stored value as corrupted relative to the fault-free run.
func (c *cache) write(addr uint64, n int, val uint64, tainted bool) int {
	set, _, off := c.index(addr)
	way, extra := c.refill(addr)
	l := &c.sets[set][way]
	c.touch(set, way)
	if c.rec != nil {
		c.rec.span(set*c.cfg.Assoc+way, evRangeWrite, off, n)
	}
	l.dirty = true
	m := taintMask(0)
	if tainted {
		m = 0xFF
		if l.taint == nil {
			l.taint = c.newTaint(set*c.cfg.Assoc + way)
		}
	}
	for i := 0; i < n; i++ {
		l.data[off+i] = byte(val >> (8 * i))
		if l.taint != nil {
			l.taint[off+i] = m
		}
	}
	return c.cfg.HitLat + extra
}

// snoop reads a byte without allocating (DMA path): a hit serves the
// cached (possibly corrupted) copy.
func (c *cache) snoop(addr uint64) (b byte, t taintMask, hit bool) {
	set, tag, off := c.index(addr)
	w := c.lookup(set, tag)
	if w < 0 {
		return 0, 0, false
	}
	l := &c.sets[set][w]
	if c.rec != nil {
		c.rec.span(set*c.cfg.Assoc+w, evRangeRead, off, 1)
	}
	if l.taint != nil {
		t = l.taint[off]
	}
	return l.data[off], t, true
}

// flushAll writes every dirty line back (used by tests to compare final
// memory images).
func (c *cache) flushAll() {
	for set := range c.sets {
		for w := range c.sets[set] {
			l := &c.sets[set][w]
			if l.valid && l.dirty {
				if c.rec != nil {
					c.rec.whole(set*c.cfg.Assoc+w, evLineRead)
				}
				c.lower.writeLine(c.lineAddr(set, l.tag), l.data, l.taint)
				l.dirty = false
				c.mark(set*c.cfg.Assoc + w)
			}
		}
	}
}

// FlipResult describes the architectural consequence of a bit flip, for
// taint bookkeeping by the caller.
type FlipResult struct {
	// Hit reports whether the flip landed in live state (a valid line
	// or a meaningful bit). Flips into invalid lines are immediately
	// masked.
	Hit bool
	// StaleRAM is a byte range in RAM that became stale (lost dirty
	// data); zero length when unused.
	StaleAddr uint64
	StaleLen  int
}

// flipBit flips one bit of the line identified by (set, way). Bit
// layout: [0, 8*LineBytes) data, then tag bits, then valid, then dirty.
func (c *cache) flipBit(set, way, bit int) FlipResult {
	l := &c.sets[set][way]
	li := set*c.cfg.Assoc + way
	c.mark(li)
	dataBits := 8 * c.cfg.LineBytes
	tagBits := c.cfg.TagBits()
	switch {
	case bit < dataBits:
		i := bit / 8
		l.data[i] ^= 1 << (bit % 8)
		if !l.valid {
			return FlipResult{}
		}
		if l.taint == nil {
			l.taint = c.newTaint(li)
		}
		l.taint[i] ^= 1 << (bit % 8)
		return FlipResult{Hit: true}
	case bit < dataBits+tagBits:
		old := c.lineAddr(set, l.tag)
		l.tag ^= 1 << (bit - dataBits)
		if !l.valid {
			return FlipResult{}
		}
		// The line now claims a different range with unrelated data:
		// every byte it serves is corrupt.
		if l.taint == nil {
			l.taint = c.newTaint(li)
		}
		for i := range l.taint {
			l.taint[i] = 0xFF
		}
		if l.dirty {
			// The original range lost its only up-to-date copy.
			return FlipResult{Hit: true, StaleAddr: old, StaleLen: c.cfg.LineBytes}
		}
		return FlipResult{Hit: true}
	case bit == dataBits+tagBits: // valid
		was := l.valid
		l.valid = !l.valid
		if was {
			if l.dirty {
				return FlipResult{Hit: true, StaleAddr: c.lineAddr(set, l.tag), StaleLen: c.cfg.LineBytes}
			}
			return FlipResult{Hit: true} // only a performance effect
		}
		// Garbage line sprang to life claiming whatever tag it holds.
		if l.taint == nil {
			l.taint = c.newTaint(li)
		}
		for i := range l.taint {
			l.taint[i] = 0xFF
		}
		l.dirty = false
		return FlipResult{Hit: true}
	default: // dirty
		was := l.dirty
		l.dirty = !l.dirty
		if !l.valid {
			return FlipResult{}
		}
		if was {
			// Lost-dirty: the eviction will silently drop the write.
			return FlipResult{Hit: true, StaleAddr: c.lineAddr(set, l.tag), StaleLen: c.cfg.LineBytes}
		}
		return FlipResult{Hit: true}
	}
}

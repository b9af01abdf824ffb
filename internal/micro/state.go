package micro

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"vulnstack/internal/ckpt"
	"vulnstack/internal/dev"
	"vulnstack/internal/isa"
)

// This file is the canonical machine-state codec behind the delta
// checkpoint chain (internal/ckpt). The contract is exact:
//
//	EncodeState(a) bytes-equal EncodeState(b)  ⟺  a.StateEqual(b)
//
// so the chain's chunk-wise blob comparison IS the convergence test,
// and DecodeState(EncodeState(c)) reproduces a core that is StateEqual
// to c and behaves identically (RAM excluded — the chain restores it
// separately, page-wise).
//
// Canonicality is why the encoding normalizes exactly the two spots
// where StateEqual admits representational slack: a cache line's nil
// taint slice encodes as all-zero mask bytes (taintSliceEqual treats
// them as equal), and the RAM taint map encodes as its nonzero entries
// in ascending address order (taintsEqual treats absent as zero).
// Everything StateEqual excludes — RAM contents, the measurement-only
// c.Taint, the decode memo, OnCommit — is excluded here too.
//
// Layout: all fixed-size sections (scalars, register files, ROB/LSQ
// arrays, branch predictor, caches) come first so their byte offsets
// are identical across checkpoints — delta chunking then stores only
// genuinely changed state — and the variable-length sections (free
// list, issue/fetch queues, completion ring, RAM taints, device state)
// trail. The offsets depend only on the Config and are derived once per
// core (setLayout):
//
//	[0, prefixLen)        scalars through the branch predictor
//	per cache (L1I, L1D, L2) at cache.stateOff:
//	  tick                8 bytes
//	  line records        Lines × (lineHdr + LineBytes): valid, dirty,
//	                      tag, lru, taint mask
//	  backing             Lines × LineBytes of line data
//	[tailOff, len(blob))  variable-length tail
//
// The delta paths (DecodeStateDelta, StateMatches) rest on that layout
// and on the caches' touched sets: a cache line the core has not
// touched since its last decode still holds the decoded blob's bytes,
// so only touched lines and lines overlapping a changed chunk of the
// blob need decoding or comparing.

func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

func appendI(dst []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(int64(v)))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// statePCOffset is the byte offset of fetchPC in an EncodeState blob:
// Cycle, Instret, KInstr, seq and mode precede it, 8 bytes each.
const statePCOffset = 5 * 8

// StatePC extracts the fetch PC from an EncodeState blob without
// decoding the rest: the program point a checkpoint restores to, used
// as the governing address for static features (e.g. liveness buckets
// in stratified sampling). ok=false on a blob too short to hold it.
func StatePC(blob []byte) (uint64, bool) {
	if len(blob) < statePCOffset+8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(blob[statePCOffset:]), true
}

// lineHdr is the size of a cache line record's fixed fields: valid,
// dirty, tag and lru.
const lineHdr = 18

// setLayout derives the fixed section offsets of the core's encoding.
func (c *Core) setLayout() {
	c.enc = c.appendPrefix(c.enc[:0])
	c.prefixLen = len(c.enc)
	off := c.prefixLen
	for _, ch := range c.caches() {
		ch.stateOff = off
		off += cacheStateLen(ch.cfg)
	}
	c.tailOff = off
}

// cacheStateLen is the length of a cache's section: its tick, the line
// records, then the line data.
func cacheStateLen(cc CacheConfig) int { return 8 + cc.Lines()*(lineHdr+2*cc.LineBytes) }

// StateLenRange returns the least and the greatest length of an
// EncodeState blob on cfg's geometry with ramBytes of RAM whose device
// streams (output and debug console) hold at most streams bytes in all.
// The fixed sections end at the tail offset, and each tail section is
// bounded by the limit DecodeState accepts for it. It builds no caches
// and no RAM, so a loader can vet the lengths a persisted chain claims
// before it allocates a machine.
func StateLenRange(cfg Config, ramBytes, streams uint64) (lo, hi uint64) {
	tailOff := len(newFixed(cfg).appendPrefix(nil))
	for _, cc := range []CacheConfig{cfg.L1I, cfg.L1D, cfg.L2} {
		tailOff += cacheStateLen(cc)
	}
	const uv = binary.MaxVarintLen64
	queues := uv + (4*cfg.PhysRegs+64)*uv + // free list
		uv + (4*cfg.ROBSize+64)*uv + // issue queue
		uv + fqCap(&cfg)*fetchLen + // fetch queue
		ringSize*(uv+(4*cfg.ROBSize+64)*2*uv) + // completion ring
		uv // RAM taint count
	// RAM taints: an address and a mask byte each, at most one per RAM
	// byte (plus readTail's slack).
	fixed := uint64(tailOff+queues) + (ramBytes+64)*(uv+1)
	devLo, devHi := dev.DeviceLenRange(streams)
	// Each tail section and ring bucket takes at least a one-byte count;
	// the greatest length saturates rather than wraps.
	return uint64(tailOff+4+ringSize) + devLo, fixed + min(devHi, math.MaxUint64-fixed)
}

func (c *Core) caches() [3]*cache { return [3]*cache{c.l1i, c.l1d, c.l2} }

// recOff and dataOff are the blob offsets of line li's record and data.
func (c *cache) recOff(li int) int {
	return c.stateOff + 8 + li*(lineHdr+c.cfg.LineBytes)
}

func (c *cache) dataOff(li int) int {
	return c.recOff(c.cfg.Lines()) + li*c.cfg.LineBytes
}

// EncodeState appends the canonical encoding of the core's
// StateEqual-relevant state to dst and returns the result. It grows dst
// once, by the fixed sections' length plus a bound on the tail's, so a
// multi-megabyte blob is not regrown and copied as it is appended.
func (c *Core) EncodeState(dst []byte) []byte {
	dst = slices.Grow(dst, c.tailOff+c.tailBound())
	dst = c.appendPrefix(dst)
	for _, ch := range c.caches() {
		dst = ch.appendState(dst)
	}
	return c.appendTail(dst)
}

// EncodeStateDelta is EncodeState for a golden-run capture that
// encodes the same core again and again: blob holds the encoding this
// core returned from its previous call, or is empty on the first call,
// which encodes in full. Later calls rewrite in place only what can
// have changed since: the prefix, each cache's tick, the record and
// data of every touched line, and the tail, truncated or extended at
// tailOff. It returns the new blob, bytes-equal to EncodeState(nil),
// and chunks with the indices of the ckpt chunks it wrote appended
// (every chunk of the blob on the first call), then clears the touched
// sets. That is exact because every line mutation marks its line
// touched (the invariant DecodeStateDelta and StateMatches rest on): a
// line untouched since the previous call still holds the bytes the
// previous blob has for it.
//
// It must never run on a worker arena: clearing the touched sets would
// hide the lines a faulty run touched from StateMatches and
// DecodeStateDelta. Nor may the core be decoded between two calls.
func (c *Core) EncodeStateDelta(blob []byte, chunks []int) ([]byte, []int) {
	if len(blob) == 0 {
		blob = c.EncodeState(blob)
		chunks = ckpt.AppendChunks(chunks, 0, len(blob))
	} else {
		old := len(blob)
		c.appendPrefix(blob[:0])
		chunks = ckpt.AppendChunks(chunks, 0, c.prefixLen)
		for _, ch := range c.caches() {
			binary.LittleEndian.PutUint64(blob[ch.stateOff:], uint64(ch.tick))
			chunks = ckpt.AppendChunks(chunks, ch.stateOff, ch.stateOff+8)
			for _, li := range ch.touched {
				l, rec, data := ch.line(int(li)), ch.recOff(int(li)), ch.dataOff(int(li))
				appendLine(blob[rec:rec], l)
				copy(blob[data:], l.data)
				chunks = ckpt.AppendChunks(chunks, rec, ch.recOff(int(li)+1))
				chunks = ckpt.AppendChunks(chunks, data, data+len(l.data))
			}
		}
		blob = c.appendTail(blob[:c.tailOff])
		chunks = ckpt.AppendChunks(chunks, c.tailOff, max(old, len(blob)))
	}
	for _, ch := range c.caches() {
		ch.clearTouched()
	}
	return blob, chunks
}

// appendPrefix encodes the fixed-size sections before the caches.
func (c *Core) appendPrefix(dst []byte) []byte {
	dst = appendU64(dst, c.Cycle)
	dst = appendU64(dst, c.Instret)
	dst = appendU64(dst, c.KInstr)
	dst = appendU64(dst, c.seq)
	dst = appendI(dst, int(c.mode))
	dst = appendU64(dst, c.fetchPC)
	dst = appendBool(dst, c.fetchStall)
	for _, v := range []int{c.robHead, c.robTail, c.robCount, c.lqH, c.lqT, c.lqN, c.sqH, c.sqT, c.sqN} {
		dst = appendI(dst, v)
	}
	for _, v := range c.csr {
		dst = appendU64(dst, v)
	}
	for _, v := range c.retRAT {
		dst = appendI(dst, v)
	}
	for _, v := range c.frontRAT {
		dst = appendI(dst, v)
	}
	for _, v := range c.prf {
		dst = appendU64(dst, v)
	}
	for _, v := range c.prfReady {
		dst = appendBool(dst, v)
	}
	for _, v := range c.prfTaint {
		dst = appendBool(dst, v)
	}
	for i := range c.rob {
		dst = appendRobe(dst, &c.rob[i])
	}
	for i := range c.lq {
		dst = appendLSQ(dst, &c.lq[i])
	}
	for i := range c.sq {
		dst = appendLSQ(dst, &c.sq[i])
	}
	return c.bp.appendState(dst)
}

// fetchLen is the length of one encoded fetch queue entry.
var fetchLen = len(appendFetch(nil, &fetchEntry{}))

// tailBound bounds the length appendTail writes for the core's current
// state: every count and index takes at most one full varint.
func (c *Core) tailBound() int {
	const uv = binary.MaxVarintLen64
	n := uv*(3+len(c.freeList)+len(c.iq)) + c.fqN*fetchLen
	for _, bucket := range c.ring {
		n += uv * (1 + 2*len(bucket))
	}
	n += uv + len(c.ram.taints)*(uv+1)
	_, devHi := dev.DeviceLenRange(uint64(len(c.Bus.Out) + len(c.Bus.Dbg)))
	return n + int(devHi)
}

// appendTail encodes the variable-length sections after the caches.
func (c *Core) appendTail(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(c.freeList)))
	for _, v := range c.freeList {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.iq)))
	for _, v := range c.iq {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	dst = binary.AppendUvarint(dst, uint64(c.fqN))
	for i := range c.fqN {
		dst = appendFetch(dst, c.fqAt(i))
	}
	for _, bucket := range c.ring {
		dst = binary.AppendUvarint(dst, uint64(len(bucket)))
		for _, e := range bucket {
			dst = binary.AppendUvarint(dst, uint64(e.idx))
			dst = binary.AppendUvarint(dst, e.seq)
		}
	}
	dst = c.ram.appendTaints(dst)
	return c.Bus.AppendDevice(dst)
}

func appendRobe(dst []byte, r *robe) []byte {
	dst = appendBool(dst, r.valid)
	dst = appendU64(dst, r.seq)
	dst = appendInstr(dst, &r.in)
	dst = appendU64(dst, r.pc)
	dst = appendU64(dst, r.npc)
	dst = appendI(dst, int(r.mode))
	dst = appendBool(dst, r.hasExc)
	dst = appendU64(dst, r.excCause)
	dst = appendU64(dst, r.excVal)
	dst = appendI(dst, r.archRd)
	dst = appendI(dst, r.newPhys)
	dst = appendI(dst, r.oldPhys)
	dst = appendI(dst, r.src1)
	dst = appendI(dst, r.src2)
	dst = appendBool(dst, r.issued)
	dst = appendBool(dst, r.executed)
	dst = appendU64(dst, r.result)
	dst = appendBool(dst, r.isLoad)
	dst = appendBool(dst, r.isStore)
	dst = appendI(dst, r.lsq)
	dst = appendBool(dst, r.serialize)
	dst = appendU64(dst, r.actualNext)
	dst = appendBool(dst, r.isCtl)
	dst = appendBool(dst, r.tainted)
	dst = appendBool(dst, r.fetchTaint)
	dst = appendBool(dst, r.fetchWI)
	dst = appendBool(dst, r.lsqAddrT)
	dst = appendBool(dst, r.lsqDataT)
	dst = appendBool(dst, r.storeDataT)
	dst = appendU64(dst, r.doneCycle)
	return appendBool(dst, r.inFlight)
}

func appendLSQ(dst []byte, e *lsqEntry) []byte {
	dst = appendBool(dst, e.valid)
	dst = appendU64(dst, e.seq)
	dst = appendI(dst, e.rob)
	dst = appendBool(dst, e.isStore)
	dst = appendU64(dst, e.addr)
	dst = appendBool(dst, e.addrOK)
	dst = appendU64(dst, e.data)
	dst = appendBool(dst, e.dataOK)
	dst = appendI(dst, e.size)
	dst = appendBool(dst, e.addrTaint)
	dst = appendBool(dst, e.dataTaint)
	return appendBool(dst, e.dataSrcTaint)
}

func appendFetch(dst []byte, f *fetchEntry) []byte {
	dst = appendU64(dst, f.pc)
	dst = appendU64(dst, f.npc)
	dst = binary.LittleEndian.AppendUint32(dst, f.word)
	dst = appendInstr(dst, &f.in)
	dst = appendBool(dst, f.ok)
	dst = appendBool(dst, f.fetchExc)
	dst = appendU64(dst, f.excCause)
	dst = appendU64(dst, f.ready)
	dst = appendBool(dst, f.fetchTaint)
	return appendBool(dst, f.fetchWI)
}

func appendInstr(dst []byte, in *isa.Instr) []byte {
	dst = appendI(dst, int(in.Op))
	dst = appendI(dst, in.Rd)
	dst = appendI(dst, in.Rs1)
	dst = appendI(dst, in.Rs2)
	dst = appendU64(dst, uint64(in.Imm))
	return binary.LittleEndian.AppendUint32(dst, in.Raw)
}

func (bp *branchPred) appendState(dst []byte) []byte {
	dst = appendI(dst, bp.rasTop)
	dst = append(dst, bp.counters...)
	for _, v := range bp.btbTag {
		dst = appendU64(dst, v)
	}
	for _, v := range bp.btbTgt {
		dst = appendU64(dst, v)
	}
	for _, v := range bp.ras {
		dst = appendU64(dst, v)
	}
	return dst
}

func (c *cache) appendState(dst []byte) []byte {
	dst = appendU64(dst, uint64(c.tick))
	for si := range c.sets {
		for wi := range c.sets[si] {
			dst = appendLine(dst, &c.sets[si][wi])
		}
	}
	return append(dst, c.backing...)
}

// appendLine encodes a line's record: everything but its data, which
// the cache's backing section carries.
func appendLine(dst []byte, l *line) []byte {
	dst = appendBool(dst, l.valid)
	dst = appendBool(dst, l.dirty)
	dst = appendU64(dst, l.tag)
	dst = appendU64(dst, uint64(l.lru))
	// nil taint ≡ all-zero: always emit the full mask so the encoding
	// is canonical.
	if l.taint == nil {
		return append(dst, make([]byte, len(l.data))...)
	}
	return append(dst, l.taint...)
}

// appendTaints emits the RAM taint map canonically: nonzero entries
// only, ascending address order. The sort runs in r's key scratch.
func (r *ramLevel) appendTaints(dst []byte) []byte {
	r.keys = r.keys[:0]
	//lint:ordered keys are collected then sorted; order-free
	for k, v := range r.taints {
		if v != 0 {
			r.keys = append(r.keys, k)
		}
	}
	slices.Sort(r.keys)
	dst = binary.AppendUvarint(dst, uint64(len(r.keys)))
	for _, k := range r.keys {
		dst = binary.AppendUvarint(dst, k)
		dst = append(dst, byte(r.taints[k]))
	}
	return dst
}

// StateProbe folds the cheap scalar slice of the state into one word:
// the first-stage convergence gate. A faulty run whose probe differs
// from the golden checkpoint's cannot be StateEqual, so the expensive
// full encode-and-compare only runs on a probe match.
func (c *Core) StateProbe() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(c.Cycle)
	mix(c.Instret)
	mix(c.KInstr)
	mix(c.seq)
	mix(uint64(c.mode))
	mix(c.fetchPC)
	if c.fetchStall {
		mix(1)
	} else {
		mix(2)
	}
	mix(uint64(c.robHead)<<32 | uint64(uint32(c.robCount)))
	mix(uint64(c.lqN)<<32 | uint64(uint32(c.sqN)))
	mix(uint64(c.fqN)<<32 | uint64(uint32(len(c.iq))))
	for _, v := range c.csr {
		mix(v)
	}
	for i := range c.retRAT {
		mix(uint64(int64(c.retRAT[i]))*31 + uint64(int64(c.frontRAT[i])))
	}
	for _, v := range c.prf {
		mix(v)
	}
	return h
}

// stateReader decodes an EncodeState blob with sticky error handling.
type stateReader struct {
	b   []byte
	bad bool
}

func (r *stateReader) u64() uint64 {
	if r.bad || len(r.b) < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *stateReader) i() int { return int(int64(r.u64())) }

func (r *stateReader) u32() uint32 {
	if r.bad || len(r.b) < 4 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// bool reads a bool byte: 0 or 1, as appendBool writes it.
func (r *stateReader) bool() bool {
	if r.bad || len(r.b) < 1 || r.b[0] > 1 {
		r.bad = true
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v != 0
}

// uv reads a uvarint in its shortest form, as AppendUvarint writes it.
func (r *stateReader) uv() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *stateReader) bytes(n int) []byte {
	if r.bad || n < 0 || len(r.b) < n {
		r.bad = true
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// DecodeState restores the core from an EncodeState blob, reusing the
// core's allocations. The core must have the geometry the blob was
// captured with (same Config). RAM contents are not touched — the
// chain restores them page-wise — and the decode memo survives
// (entries are word-tagged and can never go stale), while OnCommit and
// the measurement taint state reset.
func (c *Core) DecodeState(blob []byte) error { return c.restoreState(blob, nil, true) }

// DecodeStateDelta is DecodeState for a core that already holds the
// state of the blob it was last decoded from, except on the cache lines
// it has touched since; blob may differ from that blob only inside the
// given ckpt chunks (ckpt.Chain.StateChunks). It decodes the prefix and
// the tail in full but, of the caches, only the touched lines and the
// lines whose record or data overlaps a listed chunk: work in
// O(touched and changed lines), not O(cache capacity). The blob's
// length may differ from the previous blob's; only the tail moves.
// After a decode that returned an error, only DecodeState restores the
// core.
func (c *Core) DecodeStateDelta(blob []byte, chunks []int) error {
	return c.restoreState(blob, chunks, false)
}

// errBadFlag reports a bool field of a fixed section holding a byte
// other than 0 or 1: no encoder writes one.
var errBadFlag = fmt.Errorf("micro: state blob flag byte not 0 or 1")

func (c *Core) restoreState(blob []byte, chunks []int, full bool) error {
	if len(blob) < c.tailOff {
		return fmt.Errorf("micro: truncated state blob")
	}
	pr := stateReader{b: blob[:c.prefixLen]}
	if c.readPrefix(&pr); pr.bad {
		return errBadFlag
	}
	for _, ch := range c.caches() {
		ch.tick = int64(binary.LittleEndian.Uint64(blob[ch.stateOff:]))
		ok := true
		if full {
			for li := range ch.cfg.Lines() {
				ok = ch.decodeRec(blob, li) && ok
			}
			copy(ch.backing, blob[ch.dataOff(0):])
		} else {
			decodeLine := func(li int) bool {
				copy(ch.line(li).data, blob[ch.dataOff(li):])
				return ch.decodeRec(blob, li)
			}
			for _, li := range ch.touched {
				ok = decodeLine(int(li)) && ok
			}
			ok = ch.chunkLines(chunks, decodeLine) && ok
		}
		ch.clearTouched()
		if !ok {
			return errBadFlag
		}
	}
	if err := c.readTail(&stateReader{b: blob[c.tailOff:]}); err != nil {
		return err
	}
	c.Taint = taintState{}
	c.OnCommit = nil
	return nil
}

func (c *Core) readPrefix(r *stateReader) {
	c.Cycle = r.u64()
	c.Instret = r.u64()
	c.KInstr = r.u64()
	c.seq = r.u64()
	c.mode = isa.Mode(r.i())
	c.fetchPC = r.u64()
	c.fetchStall = r.bool()
	c.robHead, c.robTail, c.robCount = r.i(), r.i(), r.i()
	c.lqH, c.lqT, c.lqN = r.i(), r.i(), r.i()
	c.sqH, c.sqT, c.sqN = r.i(), r.i(), r.i()
	for i := range c.csr {
		c.csr[i] = r.u64()
	}
	for i := range c.retRAT {
		c.retRAT[i] = r.i()
	}
	for i := range c.frontRAT {
		c.frontRAT[i] = r.i()
	}
	for i := range c.prf {
		c.prf[i] = r.u64()
	}
	for i := range c.prfReady {
		c.prfReady[i] = r.bool()
	}
	for i := range c.prfTaint {
		c.prfTaint[i] = r.bool()
	}
	for i := range c.rob {
		readRobe(r, &c.rob[i])
	}
	for i := range c.lq {
		readLSQ(r, &c.lq[i])
	}
	for i := range c.sq {
		readLSQ(r, &c.sq[i])
	}
	c.bp.readState(r)
}

func (c *Core) readTail(r *stateReader) error {
	n := int(r.uv())
	if n < 0 || n > 4*len(c.prf)+64 {
		return fmt.Errorf("micro: state blob free-list length %d", n)
	}
	c.freeList = c.freeList[:0]
	for i := 0; i < n; i++ {
		c.freeList = append(c.freeList, int(r.uv()))
	}
	n = int(r.uv())
	if n < 0 || n > 4*len(c.rob)+64 {
		return fmt.Errorf("micro: state blob issue-queue length %d", n)
	}
	c.iq = c.iq[:0]
	for i := 0; i < n; i++ {
		c.iq = append(c.iq, int(r.uv()))
	}
	// The fetch queue decodes into its ring from slot 0. No engine
	// queues more than the ring holds (fetchStage never fills it), so a
	// longer claim is a corrupt blob.
	n = int(r.uv())
	if n < 0 || n > len(c.fq) {
		return fmt.Errorf("micro: state blob fetch-queue length %d above the ring's %d", n, len(c.fq))
	}
	c.fqHead, c.fqN = 0, n
	for i := range n {
		readFetch(r, &c.fq[i])
	}
	for i := range c.ring {
		k := int(r.uv())
		if k < 0 || k > 4*len(c.rob)+64 {
			return fmt.Errorf("micro: state blob ring bucket length %d", k)
		}
		c.ring[i] = c.ring[i][:0]
		for j := 0; j < k; j++ {
			idx := int(r.uv())
			seq := r.uv()
			c.ring[i] = append(c.ring[i], ringEnt{idx: idx, seq: seq})
		}
	}
	nt := int(r.uv())
	if nt < 0 || nt > len(c.Bus.Mem.Bytes())+64 {
		return fmt.Errorf("micro: state blob taint count %d", nt)
	}
	clear(c.ram.taints)
	var last uint64
	for i := 0; i < nt; i++ {
		addr := r.uv()
		m := r.bytes(1)
		if r.bad {
			break
		}
		// appendTaints writes nonzero masks in ascending address order.
		if m[0] == 0 || i > 0 && addr <= last {
			return fmt.Errorf("micro: state blob RAM taints not canonical")
		}
		last = addr
		c.ram.taints[addr] = m[0]
	}
	if r.bad {
		return fmt.Errorf("micro: truncated state blob")
	}
	rest, err := c.Bus.SetDevice(r.b)
	if err != nil {
		return fmt.Errorf("micro: state blob device: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("micro: %d trailing state blob bytes", len(rest))
	}
	return nil
}

// StateMatches reports whether the core's EncodeState encoding equals a
// stored blob of n bytes without encoding the core in full: eq(off, b)
// reports whether the stored blob holds b at offset off. As for
// DecodeStateDelta, the core must hold the state of the blob it was
// last decoded from except on the lines it has touched since, and
// changed must return the chunks in which the stored blob can differ
// from that blob. A line neither touched nor in a changed chunk then
// holds the same bytes in both, so comparing the ticks, the touched
// lines, the tail, the prefix and the lines of the changed chunks, in
// that order (cheapest and likeliest to differ first), decides
// equality. changed is called only when everything else matched.
func (c *Core) StateMatches(n int, eq func(off int, b []byte) bool, changed func() []int) bool {
	lineEq := func(ch *cache, li int) bool {
		c.enc = appendLine(c.enc[:0], ch.line(li))
		return eq(ch.recOff(li), c.enc) && eq(ch.dataOff(li), ch.line(li).data)
	}
	for _, ch := range c.caches() {
		if !eq(ch.stateOff, appendU64(c.enc[:0], uint64(ch.tick))) {
			return false
		}
	}
	for _, ch := range c.caches() {
		for _, li := range ch.touched {
			if !lineEq(ch, int(li)) {
				return false
			}
		}
	}
	c.enc = c.appendTail(c.enc[:0])
	if c.tailOff+len(c.enc) != n || !eq(c.tailOff, c.enc) {
		return false
	}
	c.enc = c.appendPrefix(c.enc[:0])
	if !eq(0, c.enc) {
		return false
	}
	chunks := changed()
	for _, ch := range c.caches() {
		if !ch.chunkLines(chunks, func(li int) bool { return lineEq(ch, li) }) {
			return false
		}
	}
	return true
}

// chunkLines calls visit for each line whose record or data overlaps
// one of the given ckpt chunks of the blob; a line may be visited
// twice. It stops and returns false when visit does.
func (c *cache) chunkLines(chunks []int, visit func(li int) bool) bool {
	n, lb := c.cfg.Lines(), c.cfg.LineBytes
	regions := [2]struct{ base, size int }{{c.recOff(0), lineHdr + lb}, {c.dataOff(0), lb}}
	for _, k := range chunks {
		lo, hi := k<<ckpt.ChunkShift, (k+1)<<ckpt.ChunkShift
		for _, r := range regions {
			first, end := max(lo, r.base)-r.base, min(hi, r.base+n*r.size)-r.base
			for li := first / r.size; li*r.size < end; li++ {
				if !visit(li) {
					return false
				}
			}
		}
	}
	return true
}

func readRobe(r *stateReader, e *robe) {
	e.valid = r.bool()
	e.seq = r.u64()
	readInstr(r, &e.in)
	e.pc = r.u64()
	e.npc = r.u64()
	e.mode = isa.Mode(r.i())
	e.hasExc = r.bool()
	e.excCause = r.u64()
	e.excVal = r.u64()
	e.archRd = r.i()
	e.newPhys = r.i()
	e.oldPhys = r.i()
	e.src1 = r.i()
	e.src2 = r.i()
	e.issued = r.bool()
	e.executed = r.bool()
	e.result = r.u64()
	e.isLoad = r.bool()
	e.isStore = r.bool()
	e.lsq = r.i()
	e.serialize = r.bool()
	e.actualNext = r.u64()
	e.isCtl = r.bool()
	e.tainted = r.bool()
	e.fetchTaint = r.bool()
	e.fetchWI = r.bool()
	e.lsqAddrT = r.bool()
	e.lsqDataT = r.bool()
	e.storeDataT = r.bool()
	e.doneCycle = r.u64()
	e.inFlight = r.bool()
}

func readLSQ(r *stateReader, e *lsqEntry) {
	e.valid = r.bool()
	e.seq = r.u64()
	e.rob = r.i()
	e.isStore = r.bool()
	e.addr = r.u64()
	e.addrOK = r.bool()
	e.data = r.u64()
	e.dataOK = r.bool()
	e.size = r.i()
	e.addrTaint = r.bool()
	e.dataTaint = r.bool()
	e.dataSrcTaint = r.bool()
}

func readFetch(r *stateReader, f *fetchEntry) {
	f.pc = r.u64()
	f.npc = r.u64()
	f.word = r.u32()
	readInstr(r, &f.in)
	f.ok = r.bool()
	f.fetchExc = r.bool()
	f.excCause = r.u64()
	f.ready = r.u64()
	f.fetchTaint = r.bool()
	f.fetchWI = r.bool()
}

func readInstr(r *stateReader, in *isa.Instr) {
	in.Op = isa.Op(r.i())
	in.Rd = r.i()
	in.Rs1 = r.i()
	in.Rs2 = r.i()
	in.Imm = int64(r.u64())
	in.Raw = r.u32()
}

func (bp *branchPred) readState(r *stateReader) {
	bp.rasTop = r.i()
	copy(bp.counters, r.bytes(len(bp.counters)))
	for i := range bp.btbTag {
		bp.btbTag[i] = r.u64()
	}
	for i := range bp.btbTgt {
		bp.btbTgt[i] = r.u64()
	}
	for i := range bp.ras {
		bp.ras[i] = r.u64()
	}
}

// decodeRec decodes line li's record from blob (the data is separate).
// It reports false on a valid or dirty byte other than 0 or 1.
func (c *cache) decodeRec(blob []byte, li int) bool {
	rec := blob[c.recOff(li):c.recOff(li+1)]
	l := c.line(li)
	l.valid = rec[0] != 0
	l.dirty = rec[1] != 0
	l.tag = binary.LittleEndian.Uint64(rec[2:])
	l.lru = int64(binary.LittleEndian.Uint64(rec[10:]))
	if mask := rec[lineHdr:]; isZeroMask(mask) {
		l.taint = nil
	} else {
		if l.taint == nil {
			l.taint = c.newTaint(li)
		}
		copy(l.taint, mask)
	}
	return rec[0] <= 1 && rec[1] <= 1
}

func isZeroMask(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

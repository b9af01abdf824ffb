// Package ckpt implements the generic delta-checkpoint chain shared by
// the execution-driven injection engines (internal/inject at the micro
// layer, internal/arch at the architecture layer, internal/llfi at the
// software layer). A chain is a base full snapshot plus per-checkpoint
// delta records: for both the RAM image and the engine's canonically
// encoded machine-state blob, only the 4 KiB chunks whose contents
// changed since the previous checkpoint are stored. Memory is therefore
// O(base + Σ deltas) instead of O(checkpoints × RAM), which is what
// lets the engines keep hundreds of checkpoints per golden run in the
// memory a dozen full copies took.
//
// Capture costs O(changed state) too. Add compares the base in full
// against zero, but every later checkpoint only on the chunks its
// caller hints can have changed (the golden machine's dirty RAM pages,
// the state chunks an incremental encoder rewrote) plus the chunks a
// length change spans, each against the chain's own latest stored
// version: no full image is kept or compared at capture time.
//
// The chain answers four questions for an engine:
//
//   - Find(coord): nearest checkpoint at or before a fault coordinate
//     (binary search).
//   - StateAt/RestoreRAM: delta-walk restore into a worker arena —
//     walking only the chunks with a version between the arena's
//     current checkpoint and the target, instead of full copies.
//   - Probe/StateEqual/RAMEqual: the convergence early-stop test. The
//     engine encodes the faulty machine canonically; bytes-equality
//     against the chain's blob ⟺ the engine's StateEqual, and RAM is
//     compared only on the union of the faulty run's dirty pages and
//     the chain's content-changed pages — sound, because every page
//     outside that union provably equals the restore point's copy in
//     both runs. StateChunks and StateRangeEqual let an engine that
//     knows its encoding's layout do the same for its state blob:
//     decode or compare only the ranges that can differ.
//   - Encode/Decode: a colseg-serialized form persisted in the results
//     store, digest-protected, so a warm store (top-up resume or a
//     second process) skips the golden run entirely.
//
// On top of these, the package is the one checkpoint driver of all
// three injectors, over each engine's Machine (driver.go): Capture
// checkpoints a golden run, a Cursor restores a worker arena from any
// checkpoint and runs its faulty run, pausing at every later checkpoint
// until it ends, reaches its limit or converges, and AppendSummary and
// DecodeSummary are the golden-run summary codec of Meta.Golden. An
// engine supplies only its machine: coordinate, run-to, probe, RAM,
// state codec and compare.
//
// Canonical encoding is the engine's contract: two machine states are
// engine-StateEqual if and only if their encoded blobs are bytes-equal.
// Per-checkpoint aux bytes carry restore-only data excluded from that
// equality (the arch engine's kernel-instruction counter, which its
// convergence test deliberately ignores).
package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"slices"
	"sort"
	"strings"

	"vulnstack/internal/mem"
)

// ChunkShift selects the delta granularity: 4 KiB, matching
// mem.PageShift so RAM chunks are exactly tracked pages.
const ChunkShift = 12

const chunkSize = 1 << ChunkShift

// zeroChunk backs reads of never-stored chunks (absent ≡ zero).
var zeroChunk [chunkSize]byte

// Meta identifies a chain and carries the engine's golden-run summary.
type Meta struct {
	// Engine names the owning injector ("micro", "arch" or "soft"): a
	// chain restores engine-specific state and is never cross-loaded.
	// Soft chains (the compiled IR engine's, coordinates in definition
	// counts) are captured afresh by every llfi.Prepare and never
	// persisted.
	Engine string
	// Fingerprint keys the chain to the exact campaign configuration —
	// target/seed, machine config, snapshot density, RAM size, format
	// version. Loaders must reject any mismatch and fall back to a cold
	// Prepare.
	Fingerprint string
	// Target and Config are human-readable labels for `results show`.
	Target string
	Config string
	// RAMBytes is the captured RAM size.
	RAMBytes int
	// Golden is the engine-encoded golden-run summary (output bytes,
	// exit code, cycle/instruction counts): everything Prepare would
	// otherwise have to re-run the golden execution to learn.
	Golden []byte
}

// AppendSummary appends a golden-run summary, the head of a Meta.Golden
// blob, to dst: the length of out, out, then each count, all uvarints.
func AppendSummary(dst, out []byte, counts ...uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(out)))
	dst = append(dst, out...)
	for _, v := range counts {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// DecodeSummary decodes the summary AppendSummary wrote at the head of
// b, with as many counts as it is given, and returns a copy of the
// output and the bytes after the summary. Varints must be canonical, so
// an accepted summary re-encodes byte for byte.
func DecodeSummary(b []byte, counts ...*uint64) (out, rest []byte, err error) {
	errSummary := errors.New("ckpt: truncated or non-canonical golden summary")
	n, b, ok := uvarint(b)
	if !ok || uint64(len(b)) < n {
		return nil, nil, errSummary
	}
	out, b = append([]byte(nil), b[:n]...), b[n:]
	for _, dst := range counts {
		if *dst, b, ok = uvarint(b); !ok {
			return nil, nil, errSummary
		}
	}
	return out, b, nil
}

// uvarint reads one canonically encoded uvarint.
func uvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 || n != len(binary.AppendUvarint(nil, v)) {
		return 0, b, false
	}
	return v, b[n:], true
}

// chunkVer is one stored version of one chunk: its contents as of
// checkpoint idx (valid until the next version of the same chunk).
type chunkVer struct {
	idx  int32
	data []byte
}

// deltaSpace is a chunk-versioned byte space: a sequence of full images
// (one per checkpoint) stored as, per chunk, the ascending list of
// checkpoints at which its contents changed. An absent version means
// the chunk has been zero since the base.
type deltaSpace struct {
	chunks  [][]chunkVer
	lens    []int
	perCkpt [][]int32 // chunk indices stored at each checkpoint
}

func chunkOf(img []byte, c int) []byte {
	lo := c << ChunkShift
	if lo >= len(img) {
		return nil
	}
	hi := lo + chunkSize
	if hi > len(img) {
		hi = len(img)
	}
	return img[lo:hi]
}

func numChunks(n int) int { return (n + chunkSize - 1) >> ChunkShift }

// AppendChunks appends to dst the indices of the chunks overlapping the
// bytes [lo, hi) of an image, skipping one that repeats dst's last
// element: how a capture turns the byte ranges it rewrote into Add's
// hint.
func AppendChunks(dst []int, lo, hi int) []int {
	if lo >= hi {
		return dst
	}
	for c := lo >> ChunkShift; c<<ChunkShift < hi; c++ {
		if n := len(dst); n == 0 || dst[n-1] != c {
			dst = append(dst, c)
		}
	}
	return dst
}

// chunkLen is the length of chunk c of an n-byte image (0 past its end).
func chunkLen(n, c int) int { return min(max(n-c<<ChunkShift, 0), chunkSize) }

// isZero reports whether chunk b (at most chunkSize bytes) is all
// zeroes.
func isZero(b []byte) bool { return bytes.Equal(b, zeroChunk[:len(b)]) }

// add captures the next checkpoint's image, storing only the chunks
// whose contents changed. It compares the hinted chunks, which must
// include every chunk whose contents can differ from the previous
// image, and the chunks a length change spans, which need no hint:
// for the base, whose previous image is empty, that is every chunk,
// compared against all-zeroes; later, each against the space's latest
// stored version. Hints may repeat and come in any order; those past
// both images' ends are ignored.
func (d *deltaSpace) add(img []byte, hint []int) {
	idx := len(d.lens)
	prev := 0
	if idx > 0 {
		prev = d.lens[idx-1]
	}
	lo := min(prev, len(img)) >> ChunkShift
	nc := max(numChunks(len(img)), numChunks(prev)) // shrunk tail chunks store empty versions
	cand := make([]int, 0, len(hint)+nc-lo)
	for _, c := range hint {
		if c >= 0 && c < nc {
			cand = append(cand, c)
		}
	}
	for c := lo; c < nc; c++ {
		cand = append(cand, c)
	}
	slices.Sort(cand)
	cand = slices.Compact(cand)
	for len(d.chunks) < nc {
		d.chunks = append(d.chunks, nil)
	}
	var stored []int32
	for _, c := range cand {
		cur := chunkOf(img, c)
		changed := !isZero(cur)
		if idx > 0 {
			changed = !bytes.Equal(cur, d.get(idx-1, c))
		}
		if changed {
			d.chunks[c] = append(d.chunks[c], chunkVer{idx: int32(idx), data: append([]byte(nil), cur...)})
			stored = append(stored, int32(c))
		}
	}
	d.lens = append(d.lens, len(img))
	d.perCkpt = append(d.perCkpt, stored)
}

// get returns the contents of chunk c at checkpoint i (zeroes when no
// version is stored; empty beyond the image length).
func (d *deltaSpace) get(i, c int) []byte {
	need := chunkLen(d.lens[i], c)
	if need == 0 {
		return nil
	}
	if c < len(d.chunks) {
		vers := d.chunks[c]
		k := sort.Search(len(vers), func(j int) bool { return int(vers[j].idx) > i }) - 1
		if k >= 0 {
			data := vers[k].data
			if len(data) > need {
				data = data[:need]
			}
			return data
		}
	}
	return zeroChunk[:need]
}

// walk visits every chunk index with a stored version in
// (min(from,to), max(from,to)] — a superset of the chunks whose
// contents differ between the two checkpoints. from = -1 covers
// everything up to to. Chunks may be visited more than once.
func (d *deltaSpace) walk(from, to int, visit func(c int)) {
	lo, hi := from, to
	if lo > hi {
		lo, hi = hi, lo
	}
	for i := lo + 1; i <= hi; i++ {
		for _, c := range d.perCkpt[i] {
			visit(int(c))
		}
	}
}

// bytesStored sums the stored version payloads at checkpoint i.
func (d *deltaSpace) bytesStored(i int) int {
	n := 0
	for _, c := range d.perCkpt[i] {
		vers := d.chunks[c]
		k := sort.Search(len(vers), func(j int) bool { return int(vers[j].idx) > i }) - 1
		n += len(vers[k].data)
	}
	return n
}

// Chain is one checkpoint chain: coordinates, probes and aux sidecars
// per checkpoint, plus the RAM and machine-state delta spaces.
type Chain struct {
	Meta   Meta
	coords []uint64
	probes []uint64
	aux    [][]byte
	ram    *deltaSpace
	state  *deltaSpace
}

// New starts an empty chain for capture.
func New(meta Meta) *Chain {
	return &Chain{Meta: meta, ram: &deltaSpace{}, state: &deltaSpace{}}
}

// Add captures one checkpoint: its boundary coordinate (cycle or
// instruction count, strictly ascending), the engine's cheap scalar
// probe of the state, the full RAM image, the canonical machine-state
// blob, and optional restore-only aux bytes. ramChunks and stateChunks
// list the chunks of each image that can have changed since the
// previous checkpoint — the golden machine's dirty pages, the chunks an
// incremental encoder rewrote — and only those, plus the chunks a
// length change spans, are compared; the first checkpoint is compared
// in full. A hint that misses a changed chunk corrupts the chain, so a
// caller without one passes every chunk index.
func (ch *Chain) Add(coord, probe uint64, ram []byte, ramChunks []int, state []byte, stateChunks []int, aux []byte) {
	if n := len(ch.coords); n > 0 && coord <= ch.coords[n-1] {
		panic("ckpt: checkpoint coordinates must be strictly ascending")
	}
	ch.coords = append(ch.coords, coord)
	ch.probes = append(ch.probes, probe)
	ch.aux = append(ch.aux, append([]byte(nil), aux...))
	ch.ram.add(ram, ramChunks)
	ch.state.add(state, stateChunks)
}

// Len returns the number of checkpoints.
func (ch *Chain) Len() int { return len(ch.coords) }

// Coord returns checkpoint i's boundary coordinate.
func (ch *Chain) Coord(i int) uint64 { return ch.coords[i] }

// Probe returns checkpoint i's scalar state probe.
func (ch *Chain) Probe(i int) uint64 { return ch.probes[i] }

// Aux returns checkpoint i's restore-only sidecar bytes (read-only).
func (ch *Chain) Aux(i int) []byte { return ch.aux[i] }

// Find returns the latest checkpoint whose coordinate is <= coord
// (checkpoint 0 — the boot state — when coord precedes every boundary).
func (ch *Chain) Find(coord uint64) int {
	g := sort.Search(len(ch.coords), func(i int) bool { return ch.coords[i] > coord }) - 1
	if g < 0 {
		g = 0
	}
	return g
}

// StateAt materializes checkpoint i's machine-state blob into buf
// (reusing its storage), delta-walking from checkpoint `from` when buf
// still holds from's blob; from = -1 forces a full materialization.
func (ch *Chain) StateAt(i int, buf []byte, from int) []byte {
	d := ch.state
	want := d.lens[i]
	if from < 0 || from >= len(d.lens) || len(buf) != d.lens[from] {
		if cap(buf) < want {
			buf = make([]byte, want)
		}
		buf = buf[:want]
		nc := numChunks(want)
		for c := 0; c < nc; c++ {
			copy(chunkOf(buf, c), d.get(i, c))
		}
		return buf
	}
	if len(buf) < want {
		// Grown region starts zeroed: chunks that stayed zero through
		// the growth have no stored version to walk. append grows the
		// capacity geometrically, so a blob whose length wobbles by a
		// few bytes between checkpoints is not copied again each time.
		buf = append(buf, make([]byte, want-len(buf))...)
	} else {
		buf = buf[:want]
	}
	// The walk visits a chunk once per version in the range; copy it
	// only at the first.
	nc := numChunks(want)
	lo, hi := min(from, i), max(from, i)
	for k := lo + 1; k <= hi; k++ {
		for _, c := range d.perCkpt[k] {
			if int(c) < nc && d.firstSince(int(c), k, lo) {
				copy(chunkOf(buf, int(c)), d.get(i, int(c)))
			}
		}
	}
	return buf
}

// firstSince reports whether chunk c's version stored at checkpoint k
// is its first one after checkpoint lo.
func (d *deltaSpace) firstSince(c, k, lo int) bool {
	vers := d.chunks[c]
	j := sort.Search(len(vers), func(j int) bool { return int(vers[j].idx) >= k })
	return j == 0 || int(vers[j-1].idx) <= lo
}

// RestoreRAM makes m's contents equal checkpoint to's RAM image. The
// caller guarantees m currently equals checkpoint `from` except on m's
// own tracked dirty pages (from = -1 means m is all zeroes, e.g. a
// fresh arena). Only the dirty pages and the chunks with versions
// between the two checkpoints are written; tracking is then re-based.
func (ch *Chain) RestoreRAM(m *mem.Memory, from, to int) {
	for _, p := range m.DirtyPageList() {
		m.SetPage(p, ch.ram.get(to, int(p)))
	}
	ch.ram.walk(from, to, func(c int) {
		m.SetPage(uint32(c), ch.ram.get(to, c))
	})
	m.ResetDirty()
}

// StateEqual reports whether blob is bytes-equal to checkpoint i's
// machine-state blob, compared chunk-wise against the stored versions.
// With a canonical engine encoding this is exactly the engine's
// machine-state equality.
func (ch *Chain) StateEqual(i int, blob []byte) bool {
	d := ch.state
	if len(blob) != d.lens[i] {
		return false
	}
	nc := numChunks(len(blob))
	for c := 0; c < nc; c++ {
		if !bytes.Equal(chunkOf(blob, c), d.get(i, c)) {
			return false
		}
	}
	return true
}

// StateLen returns the length of checkpoint i's machine-state blob.
func (ch *Chain) StateLen(i int) int { return ch.state.lens[i] }

// StateChunks appends to dst, sorted and without repeats, the indices
// of the machine-state chunks with a stored version in
// (min(from,to), max(from,to)] — every chunk whose contents can differ
// between the two checkpoints' blobs (from = -1: every chunk stored up
// to to). It is the set StateAt walks.
func (ch *Chain) StateChunks(from, to int, dst []int) []int {
	n := len(dst)
	ch.state.walk(from, to, func(c int) { dst = append(dst, c) })
	slices.Sort(dst[n:])
	return dst[:n+len(slices.Compact(dst[n:]))]
}

// StateRangeEqual reports whether checkpoint i's machine-state blob
// holds b at offset off, compared against the stored chunk versions
// without materializing the blob. A range reaching past the blob's end
// is unequal.
func (ch *Chain) StateRangeEqual(i, off int, b []byte) bool {
	if off < 0 || off+len(b) > ch.state.lens[i] {
		return false
	}
	for len(b) > 0 {
		data, lo := ch.state.get(i, off>>ChunkShift), off&(chunkSize-1)
		if lo >= len(data) {
			return false
		}
		k := min(len(b), len(data)-lo)
		if !bytes.Equal(b[:k], data[lo:lo+k]) {
			return false
		}
		b, off = b[k:], off+k
	}
	return true
}

// RAMEqual reports whether m's contents equal checkpoint j's RAM image,
// given that m was restored from checkpoint g and dirty-tracked since.
// Only m's dirty pages and the chain's content-changed pages in (g, j]
// are compared: every other page equals checkpoint g's copy in both
// images, so the comparison is exact, not approximate.
func (ch *Chain) RAMEqual(m *mem.Memory, g, j int) bool {
	for _, p := range m.DirtyPageList() {
		if !bytes.Equal(m.Page(p), ch.ram.get(j, int(p))) {
			return false
		}
	}
	eq := true
	ch.ram.walk(g, j, func(c int) {
		if eq && !bytes.Equal(m.Page(uint32(c)), ch.ram.get(j, c)) {
			eq = false
		}
	})
	return eq
}

// Stats summarizes a chain for display and for the memory criterion:
// the chain's live size is ~BaseBytes + DeltaBytes, not
// checkpoints × (RAM + state).
type Stats struct {
	Checkpoints int
	FirstCoord  uint64
	LastCoord   uint64
	// BaseBytes is the stored size of checkpoint 0 (RAM + state
	// chunks); DeltaBytes the total stored size of all later deltas.
	BaseBytes  int
	DeltaBytes int
	AuxBytes   int
}

// Stats computes the chain's storage summary.
func (ch *Chain) Stats() Stats {
	st := Stats{Checkpoints: len(ch.coords)}
	if len(ch.coords) > 0 {
		st.FirstCoord = ch.coords[0]
		st.LastCoord = ch.coords[len(ch.coords)-1]
		st.BaseBytes = ch.ram.bytesStored(0) + ch.state.bytesStored(0)
	}
	for i := 1; i < len(ch.coords); i++ {
		st.DeltaBytes += ch.ram.bytesStored(i) + ch.state.bytesStored(i)
	}
	for _, a := range ch.aux {
		st.AuxBytes += len(a)
	}
	return st
}

// Fingerprint derives the chain key from the campaign's configuration
// parts. Everything that changes the golden run or the validity of its
// checkpoints — target key, machine config, snapshot density, RAM size,
// engine, format version — must be a part; a loader seeing a different
// fingerprint must re-Prepare.
func Fingerprint(parts ...string) string {
	h := sha256.Sum256([]byte(strings.Join(parts, "\x1f")))
	return hex.EncodeToString(h[:16])
}

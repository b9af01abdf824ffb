package ckpt

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"

	"vulnstack/internal/colseg"
)

// ChainVersion is the persisted-chain format version. It participates
// in the fingerprint (via the engines), so a format bump naturally
// invalidates older persisted chains instead of misdecoding them.
// Version 2: the micro engine's golden blob carries the golden run's
// lifetime table, and the digest covers the golden blob.
const ChainVersion = 2

// Column ids of the persisted form. The header block (one row) carries
// the meta and a digest of everything after it; the index block (one
// row per checkpoint) the coordinates/probes/lengths/aux; the two delta
// blocks (one row per stored chunk version) the RAM and state spaces.
const (
	colVersion  = 0 // header: uvarint ChainVersion
	colEngine   = 1 // header: blob
	colFP       = 2 // header: blob
	colTarget   = 3 // header: blob
	colConfig   = 4 // header: blob
	colRAMBytes = 5 // header: uvarint
	colGolden   = 6 // header: blob
	colDigest   = 7 // header: blob, sha256 of the golden blob and the following blocks
	colCoord    = 1 // index: uvarint per checkpoint
	colProbe    = 2 // index: uvarint
	colStateLen = 3 // index: uvarint
	colRAMLen   = 4 // index: uvarint
	colAux      = 5 // index: blob
	colCkptIdx  = 1 // delta: uvarint, ascending
	colChunkIdx = 2 // delta: uvarint, ascending within a checkpoint
	colData     = 3 // delta: blob, the chunk contents
)

// maxRAMBytes bounds a chain's RAM image: physical addresses are 32-bit,
// and RAM lies below the device window.
const maxRAMBytes = 1 << 32

// ErrChain reports an unusable persisted chain (corrupt, truncated,
// version-mismatched, or digest-failed). Loaders treat every flavor the
// same way — ignore the chain and fall back to a cold Prepare — so one
// sentinel suffices; the wrapped detail is for diagnostics.
var ErrChain = errors.New("ckpt: unusable persisted chain")

// Encode serializes the chain: a header block, an index block, and one
// delta block per space, with the header carrying a sha256 digest of
// the golden blob and the following bytes so bit flips are detected,
// not misrestored.
func (ch *Chain) Encode() []byte {
	tail := ch.appendTail(nil)
	return append(ch.appendHeader(nil, digestOf(ch.Meta.Golden, tail)), tail...)
}

// appendTail appends everything after the header: the index block and
// the two delta blocks.
func (ch *Chain) appendTail(dst []byte) []byte {
	n := len(ch.coords)
	idx := colseg.NewBuilder(n)
	idx.Uvarint(colCoord, ch.coords)
	idx.Uvarint(colProbe, ch.probes)
	lens := make([]uint64, n)
	for i := range lens {
		lens[i] = uint64(ch.state.lens[i])
	}
	idx.Uvarint(colStateLen, lens)
	rlens := make([]uint64, n)
	for i := range rlens {
		rlens[i] = uint64(ch.ram.lens[i])
	}
	idx.Uvarint(colRAMLen, rlens)
	idx.Blob(colAux, ch.aux)
	dst = idx.AppendTo(dst)
	dst = appendSpace(dst, ch.ram)
	return appendSpace(dst, ch.state)
}

// appendHeader appends the header block carrying the meta and digest.
func (ch *Chain) appendHeader(dst, digest []byte) []byte {
	hdr := colseg.NewBuilder(1)
	hdr.Uvarint(colVersion, []uint64{ChainVersion})
	hdr.Blob(colEngine, [][]byte{[]byte(ch.Meta.Engine)})
	hdr.Blob(colFP, [][]byte{[]byte(ch.Meta.Fingerprint)})
	hdr.Blob(colTarget, [][]byte{[]byte(ch.Meta.Target)})
	hdr.Blob(colConfig, [][]byte{[]byte(ch.Meta.Config)})
	hdr.Uvarint(colRAMBytes, []uint64{uint64(ch.Meta.RAMBytes)})
	hdr.Blob(colGolden, [][]byte{ch.Meta.Golden})
	hdr.Blob(colDigest, [][]byte{digest})
	return hdr.AppendTo(dst)
}

// digestOf hashes the golden blob (the engine's summary, which a warm
// Prepare trusts instead of rerunning the golden execution) and the
// bytes after the header.
func digestOf(golden, tail []byte) []byte {
	h := sha256.New()
	h.Write(golden)
	h.Write(tail)
	return h.Sum(nil)
}

// appendSpace flattens a delta space in (checkpoint, chunk) order.
func appendSpace(dst []byte, d *deltaSpace) []byte {
	rows := 0
	for _, stored := range d.perCkpt {
		rows += len(stored)
	}
	idxs := make([]uint64, 0, rows)
	chunks := make([]uint64, 0, rows)
	data := make([][]byte, 0, rows)
	for i, stored := range d.perCkpt {
		for _, c := range stored {
			vers := d.chunks[c]
			// The version stored at checkpoint i is the one tagged i.
			lo, hi := 0, len(vers)
			for lo < hi {
				mid := (lo + hi) / 2
				if int(vers[mid].idx) < i {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			idxs = append(idxs, uint64(i))
			chunks = append(chunks, uint64(c))
			data = append(data, vers[lo].data)
		}
	}
	b := colseg.NewBuilder(rows)
	b.Uvarint(colCkptIdx, idxs)
	b.Uvarint(colChunkIdx, chunks)
	b.Blob(colData, data)
	return b.AppendTo(dst)
}

// DecodeMeta parses only the header block of a persisted chain —
// enough for fingerprint checks and `results list`/`show` display
// without paying for the delta payload.
func DecodeMeta(data []byte) (Meta, error) {
	hdr, _, err := colseg.Parse(data)
	if err != nil {
		return Meta{}, fmt.Errorf("%w: header: %v", ErrChain, err)
	}
	return parseHeader(hdr)
}

func parseHeader(hdr *colseg.Block) (Meta, error) {
	if hdr.Rows() != 1 {
		return Meta{}, fmt.Errorf("%w: header has %d rows", ErrChain, hdr.Rows())
	}
	ver, err := hdr.Uvarint(colVersion)
	if err != nil {
		return Meta{}, fmt.Errorf("%w: %v", ErrChain, err)
	}
	if ver[0] != ChainVersion {
		return Meta{}, fmt.Errorf("%w: chain version %d, want %d", ErrChain, ver[0], ChainVersion)
	}
	var m Meta
	for _, f := range []struct {
		id  uint8
		dst *string
	}{{colEngine, &m.Engine}, {colFP, &m.Fingerprint}, {colTarget, &m.Target}, {colConfig, &m.Config}} {
		v, err := hdr.Blob(f.id)
		if err != nil {
			return Meta{}, fmt.Errorf("%w: %v", ErrChain, err)
		}
		*f.dst = string(v[0])
	}
	rb, err := hdr.Uvarint(colRAMBytes)
	if err != nil {
		return Meta{}, fmt.Errorf("%w: %v", ErrChain, err)
	}
	if rb[0] > maxRAMBytes {
		return Meta{}, fmt.Errorf("%w: %d bytes of RAM", ErrChain, rb[0])
	}
	m.RAMBytes = int(rb[0])
	g, err := hdr.Blob(colGolden)
	if err != nil {
		return Meta{}, fmt.Errorf("%w: %v", ErrChain, err)
	}
	m.Golden = append([]byte(nil), g[0]...)
	return m, nil
}

// Decode reconstructs a chain from its persisted form, verifying the
// digest over the golden blob and everything after the header. It
// accepts exactly the bytes Encode writes: a stored chunk must lie
// inside its checkpoint's image (or the previous one's, for a chunk a
// shrink emptied) and hold that chunk's length, rows must ascend by
// checkpoint and chunk, and the input must be Encode's canonical form.
// Any failure — truncation, bit flips, structural corruption, a format
// version mismatch — yields ErrChain; callers fall back to a cold
// golden run. Decode bounds the state images only loosely: the engines
// check each claimed length against their own layout before
// materializing one.
func Decode(data []byte) (*Chain, error) {
	ch, ends, err := decode(data)
	if err != nil {
		return nil, err
	}
	// Every field parsed; what colseg leaves free (varint widths,
	// column order, extra columns, trailing bytes) must match Encode's
	// choice, so a chain has one persisted form. Each block is walked
	// against Encode's layout instead of being rebuilt.
	start := 0
	for b, end := range ends {
		if !colseg.Canonical(data[start:end], blockLayouts[b]...) {
			return nil, fmt.Errorf("%w: non-canonical encoding", ErrChain)
		}
		start = end
	}
	if start != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrChain, len(data)-start)
	}
	return ch, nil
}

// blockLayouts are the columns Encode writes in each of a persisted
// chain's four blocks, in order: header, index, RAM and state deltas.
var blockLayouts = [4][]colseg.Col{
	{uvCol(colVersion), blobCol(colEngine), blobCol(colFP), blobCol(colTarget), blobCol(colConfig), uvCol(colRAMBytes), blobCol(colGolden), blobCol(colDigest)},
	{uvCol(colCoord), uvCol(colProbe), uvCol(colStateLen), uvCol(colRAMLen), blobCol(colAux)},
	{uvCol(colCkptIdx), uvCol(colChunkIdx), blobCol(colData)},
	{uvCol(colCkptIdx), uvCol(colChunkIdx), blobCol(colData)},
}

func uvCol(id uint8) colseg.Col   { return colseg.Col{ID: id, Enc: colseg.EncUvarint} }
func blobCol(id uint8) colseg.Col { return colseg.Col{ID: id, Enc: colseg.EncBlob} }

// decode is Decode without the canonical-form check: it parses and
// verifies everything else and returns the chain with the offsets at
// which its four blocks end. Bytes after the last block are left to
// that check.
func decode(data []byte) (*Chain, [4]int, error) {
	var ends [4]int
	hdr, n, err := colseg.Parse(data)
	if err != nil {
		return nil, ends, fmt.Errorf("%w: header: %v", ErrChain, err)
	}
	meta, err := parseHeader(hdr)
	if err != nil {
		return nil, ends, err
	}
	tail := data[n:]
	want, err := hdr.Blob(colDigest)
	if err != nil {
		return nil, ends, fmt.Errorf("%w: %v", ErrChain, err)
	}
	if string(want[0]) != string(digestOf(meta.Golden, tail)) {
		return nil, ends, fmt.Errorf("%w: digest mismatch", ErrChain)
	}

	idx, k, err := colseg.Parse(tail)
	if err != nil {
		return nil, ends, fmt.Errorf("%w: index: %v", ErrChain, err)
	}
	rest := tail[k:]
	ch := New(meta)
	nck := idx.Rows()
	if ch.coords, err = idx.Uvarint(colCoord); err != nil {
		return nil, ends, fmt.Errorf("%w: %v", ErrChain, err)
	}
	if ch.probes, err = idx.Uvarint(colProbe); err != nil {
		return nil, ends, fmt.Errorf("%w: %v", ErrChain, err)
	}
	for i := 1; i < nck; i++ {
		if ch.coords[i] <= ch.coords[i-1] {
			return nil, ends, fmt.Errorf("%w: non-ascending coordinates", ErrChain)
		}
	}
	slens, err := idx.Uvarint(colStateLen)
	if err != nil {
		return nil, ends, fmt.Errorf("%w: %v", ErrChain, err)
	}
	rlens, err := idx.Uvarint(colRAMLen)
	if err != nil {
		return nil, ends, fmt.Errorf("%w: %v", ErrChain, err)
	}
	aux, err := idx.Blob(colAux)
	if err != nil {
		return nil, ends, fmt.Errorf("%w: %v", ErrChain, err)
	}
	ch.aux = make([][]byte, nck)
	for i := range aux {
		ch.aux[i] = append([]byte(nil), aux[i]...)
	}

	ends[0], ends[1] = n, n+k
	if ch.ram, rest, err = parseSpace(rest, rlens, meta.RAMBytes); err != nil {
		return nil, ends, err
	}
	ends[2] = len(data) - len(rest)
	if ch.state, rest, err = parseSpace(rest, slens, 1<<31); err != nil {
		return nil, ends, err
	}
	ends[3] = len(data) - len(rest)
	return ch, ends, nil
}

// parseSpace reconstructs one delta space from its block. maxLen bounds
// the image lengths. A row must store a chunk inside its checkpoint's
// image, or inside the previous checkpoint's for the empty version a
// shrink leaves, with exactly that chunk's length at its checkpoint;
// rows ascend by checkpoint, then chunk, as Encode writes them; and a
// checkpoint that changes a chunk's length stores it.
func parseSpace(data []byte, lens []uint64, maxLen int) (*deltaSpace, []byte, error) {
	blk, n, err := colseg.Parse(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: delta block: %v", ErrChain, err)
	}
	d := &deltaSpace{
		lens:    make([]int, len(lens)),
		perCkpt: make([][]int32, len(lens)),
	}
	for i, l := range lens {
		if l > uint64(maxLen) {
			return nil, nil, fmt.Errorf("%w: image length %d", ErrChain, l)
		}
		d.lens[i] = int(l)
	}
	idxs, err := blk.Uvarint(colCkptIdx)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrChain, err)
	}
	chunks, err := blk.Uvarint(colChunkIdx)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrChain, err)
	}
	datas, err := blk.Blob(colData)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrChain, err)
	}
	prevI, prevC := -1, -1
	for r := range idxs {
		if idxs[r] >= uint64(len(lens)) {
			return nil, nil, fmt.Errorf("%w: delta row %d checkpoint out of range", ErrChain, r)
		}
		i := int(idxs[r])
		span := d.lens[i]
		if i > 0 {
			span = max(span, d.lens[i-1])
		}
		if chunks[r] >= uint64(numChunks(span)) {
			return nil, nil, fmt.Errorf("%w: delta row %d chunk outside its image", ErrChain, r)
		}
		c := int(chunks[r])
		if len(datas[r]) != chunkLen(d.lens[i], c) {
			return nil, nil, fmt.Errorf("%w: delta row %d holds %d bytes, chunk has %d", ErrChain, r, len(datas[r]), chunkLen(d.lens[i], c))
		}
		if i < prevI || i == prevI && c <= prevC {
			return nil, nil, fmt.Errorf("%w: delta rows out of order", ErrChain)
		}
		prevI, prevC = i, c
		for len(d.chunks) <= c {
			d.chunks = append(d.chunks, nil)
		}
		d.chunks[c] = append(d.chunks[c], chunkVer{idx: int32(i), data: append([]byte(nil), datas[r]...)})
		d.perCkpt[i] = append(d.perCkpt[i], int32(c))
	}
	// A chunk whose length changes changes contents, so capture stores
	// it; without that version a restore would read a stale length.
	// Every chunk checked here consumes a row, so a chain claiming
	// absurd length swings fails fast.
	for i := 1; i < len(lens); i++ {
		a, b := d.lens[i-1], d.lens[i]
		for c := min(a, b) >> ChunkShift; c < numChunks(max(a, b)); c++ {
			if _, ok := slices.BinarySearch(d.perCkpt[i], int32(c)); !ok && chunkLen(a, c) != chunkLen(b, c) {
				return nil, nil, fmt.Errorf("%w: checkpoint %d resizes chunk %d without storing it", ErrChain, i, c)
			}
		}
	}
	return d, data[n:], nil
}

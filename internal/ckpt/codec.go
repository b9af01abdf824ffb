package ckpt

import (
	"crypto/sha256"
	"errors"
	"fmt"

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
	var tail []byte
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
	tail = idx.AppendTo(tail)

	tail = appendSpace(tail, ch.ram)
	tail = appendSpace(tail, ch.state)

	digest := digestOf(ch.Meta.Golden, tail)
	hdr := colseg.NewBuilder(1)
	hdr.Uvarint(colVersion, []uint64{ChainVersion})
	hdr.Blob(colEngine, [][]byte{[]byte(ch.Meta.Engine)})
	hdr.Blob(colFP, [][]byte{[]byte(ch.Meta.Fingerprint)})
	hdr.Blob(colTarget, [][]byte{[]byte(ch.Meta.Target)})
	hdr.Blob(colConfig, [][]byte{[]byte(ch.Meta.Config)})
	hdr.Uvarint(colRAMBytes, []uint64{uint64(ch.Meta.RAMBytes)})
	hdr.Blob(colGolden, [][]byte{ch.Meta.Golden})
	hdr.Blob(colDigest, [][]byte{digest})
	return append(hdr.AppendTo(nil), tail...)
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
	m.RAMBytes = int(rb[0])
	g, err := hdr.Blob(colGolden)
	if err != nil {
		return Meta{}, fmt.Errorf("%w: %v", ErrChain, err)
	}
	m.Golden = append([]byte(nil), g[0]...)
	return m, nil
}

// Decode reconstructs a chain from its persisted form, verifying the
// digest over the golden blob and everything after the header. Any
// failure — truncation, bit flips, structural corruption, a format
// version mismatch — yields ErrChain; callers fall back to a cold
// golden run.
func Decode(data []byte) (*Chain, error) {
	hdr, n, err := colseg.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrChain, err)
	}
	meta, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	tail := data[n:]
	want, err := hdr.Blob(colDigest)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrChain, err)
	}
	if string(want[0]) != string(digestOf(meta.Golden, tail)) {
		return nil, fmt.Errorf("%w: digest mismatch", ErrChain)
	}

	idx, n, err := colseg.Parse(tail)
	if err != nil {
		return nil, fmt.Errorf("%w: index: %v", ErrChain, err)
	}
	tail = tail[n:]
	ch := New(meta)
	nck := idx.Rows()
	if ch.coords, err = idx.Uvarint(colCoord); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrChain, err)
	}
	if ch.probes, err = idx.Uvarint(colProbe); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrChain, err)
	}
	for i := 1; i < nck; i++ {
		if ch.coords[i] <= ch.coords[i-1] {
			return nil, fmt.Errorf("%w: non-ascending coordinates", ErrChain)
		}
	}
	slens, err := idx.Uvarint(colStateLen)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrChain, err)
	}
	rlens, err := idx.Uvarint(colRAMLen)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrChain, err)
	}
	aux, err := idx.Blob(colAux)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrChain, err)
	}
	ch.aux = make([][]byte, nck)
	for i := range aux {
		ch.aux[i] = append([]byte(nil), aux[i]...)
	}

	if ch.ram, tail, err = parseSpace(tail, rlens, meta.RAMBytes); err != nil {
		return nil, err
	}
	if ch.state, _, err = parseSpace(tail, slens, 1<<31); err != nil {
		return nil, err
	}
	return ch, nil
}

// parseSpace reconstructs one delta space from its block. maxLen bounds
// sane image lengths against structural corruption the digest already
// makes unlikely.
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
	for r := range idxs {
		i, c := int(idxs[r]), int(chunks[r])
		if i >= len(lens) || c > maxLen>>ChunkShift || len(datas[r]) > chunkSize {
			return nil, nil, fmt.Errorf("%w: delta row %d out of range", ErrChain, r)
		}
		for len(d.chunks) <= c {
			d.chunks = append(d.chunks, nil)
		}
		if vs := d.chunks[c]; len(vs) > 0 && int(vs[len(vs)-1].idx) >= i {
			return nil, nil, fmt.Errorf("%w: non-ascending chunk versions", ErrChain)
		}
		d.chunks[c] = append(d.chunks[c], chunkVer{idx: int32(i), data: append([]byte(nil), datas[r]...)})
		d.perCkpt[i] = append(d.perCkpt[i], int32(c))
	}
	return d, data[n:], nil
}

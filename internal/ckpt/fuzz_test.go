package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"vulnstack/internal/colseg"
	"vulnstack/internal/mem"
)

// reseal recomputes a persisted chain's digest over its golden blob and
// tail, so a mutation behind the header reaches the index and delta
// checks instead of stopping at the digest. Input whose header does not
// parse is returned unchanged.
func reseal(data []byte) []byte {
	hdr, n, err := colseg.Parse(data)
	if err != nil {
		return data
	}
	meta, err := parseHeader(hdr)
	if err != nil {
		return data
	}
	ch := &Chain{Meta: meta}
	return append(ch.appendHeader(nil, digestOf(meta.Golden, data[n:])), data[n:]...)
}

// FuzzChainDecode: Decode must refuse bad input with ErrChain and never
// panic, and a chain it accepts must re-encode to the input byte for
// byte and restore every checkpoint without panicking. With seal set,
// the input is re-sealed first, so mutations reach the index and the
// delta blocks.
func FuzzChainDecode(f *testing.F) {
	for _, data := range decodeSeeds(f) {
		f.Add(data, false)
		f.Add(data, true)
		f.Add(data[:len(data)/2], true)
	}
	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		if seal {
			data = reseal(data)
		}
		checkWalkMatchesOracle(t, data)
		ch, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrChain) {
				t.Fatalf("error %v is not ErrChain", err)
			}
			return
		}
		if !bytes.Equal(ch.Encode(), data) {
			t.Fatal("an accepted chain does not re-encode to its input")
		}
		// Restore the first checkpoints while they stay small: Decode
		// leaves bounding the state images to the engines, and a
		// fuzz-sized input can claim thousands of megabyte images.
		if ch.Meta.RAMBytes > 1<<16 {
			return
		}
		m := mem.New(uint64(max(ch.Meta.RAMBytes, 1)))
		m.EnableTracking()
		var buf []byte
		for i := range min(ch.Len(), 16) {
			if ch.StateLen(i) > 1<<16 {
				return
			}
			buf = ch.StateAt(i, buf, i-1)
			if !ch.StateEqual(i, buf) || !ch.StateRangeEqual(i, 0, buf) {
				t.Fatalf("checkpoint %d does not equal its own materialized state", i)
			}
			if len(m.Bytes()) == ch.Meta.RAMBytes {
				ch.RestoreRAM(m, i-1, i)
			}
		}
	})
}

// decodeSeeds returns FuzzChainDecode's seed chains, encoded. Small
// images keep them a few kilobytes, so mutations and minimization stay
// cheap; the resized state grows across a chunk boundary and shrinks
// back, storing a shrink's empty version.
func decodeSeeds(t testing.TB) [][]byte {
	r := rand.New(rand.NewSource(11))
	state := make([]byte, chunkSize+30)
	r.Read(state[:40])
	state[chunkSize+7] = 1
	resized := chainOf(t, buildImages(r, 3, 300, false), [][]byte{state[:40], state, state[:50]})
	small := chainOf(t, buildImages(r, 2, 300, false), buildImages(r, 2, 90, false))
	return [][]byte{resized.Encode(), small.Encode()}
}

// checkWalkMatchesOracle fails t unless Decode's canonical-form walk
// accepts a chain that parses exactly when the re-encode oracle does:
// the chain's own encoding equals the input byte for byte. It reports
// whether the input parsed and whether the oracle refused it.
func checkWalkMatchesOracle(t *testing.T, data []byte) (parsed, refused bool) {
	t.Helper()
	ch, _, err := decode(data)
	if err != nil {
		return false, false
	}
	_, err = Decode(data)
	oracle := bytes.Equal(ch.Encode(), data)
	if (err == nil) != oracle {
		t.Fatalf("walk accepts=%v, re-encode oracle accepts=%v (Decode: %v)", err == nil, oracle, err)
	}
	return true, !oracle
}

// TestCanonicalWalkMatchesReencode: the block walk Decode proves
// canonical form with must refuse exactly the parsed chains the
// re-encode comparison it replaced refuses. Inputs: FuzzChainDecode's
// seeds, seeded byte-level mutations of them, and every block re-framed
// in each non-canonical way colseg still parses (a widened varint, a
// swapped or extra column, a trailing byte), all re-sealed so they pass
// the digest.
func TestCanonicalWalkMatchesReencode(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	parsed, refused := 0, 0
	check := func(data []byte) {
		p, ref := checkWalkMatchesOracle(t, reseal(data))
		if p {
			parsed++
		}
		if ref {
			refused++
		}
	}
	for _, seed := range decodeSeeds(t) {
		check(seed)
		check(append(slices.Clip(seed), 0))
		for range 2000 {
			data := slices.Clone(seed)
			for range 1 + r.Intn(3) {
				switch p := r.Intn(len(data)); r.Intn(3) {
				case 0:
					data[p] ^= 1 << r.Intn(8)
				case 1:
					data = slices.Insert(data, p, byte(r.Intn(256)))
				default:
					data = slices.Delete(data, p, p+1)
				}
			}
			check(data)
		}
		for b, end := 0, 0; b < 4; b++ {
			start := end
			_, n, err := colseg.Parse(seed[start:])
			if err != nil {
				t.Fatal(err)
			}
			end = start + n
			for _, blk := range reframings(t, seed[start:end]) {
				check(slices.Concat(seed[:start], blk, seed[end:]))
			}
		}
	}
	t.Logf("parsed %d refused %d", parsed, refused)
	if parsed == 0 || refused == 0 {
		t.Fatalf("%d inputs parsed, %d of them non-canonical: the differential saw no case", parsed, refused)
	}
}

// rawBlock is a framed colseg block taken apart: its row count and its
// columns' directory entries and payloads, in order.
type rawBlock struct {
	rows uint64
	cols []rawCol
}

type rawCol struct {
	id, enc byte
	pay     []byte
}

// reframings returns, for one canonical block, every variant in which
// one choice colseg leaves free is made differently: each varint of the
// frame, counts and directory widened by a byte, each column's first
// value or blob length widened, each column given a trailing byte,
// each adjacent pair of columns swapped, and an extra column appended.
func reframings(t *testing.T, data []byte) [][]byte {
	t.Helper()
	b := data[5:]
	next := func() uint64 {
		v, n := binary.Uvarint(b)
		b = b[n:]
		return v
	}
	next() // frame length
	blk := rawBlock{rows: next()}
	sizes := make([]uint64, next())
	for i := range sizes {
		blk.cols = append(blk.cols, rawCol{id: b[0], enc: b[1]})
		b = b[2:]
		sizes[i] = next()
	}
	for i, sz := range sizes {
		blk.cols[i].pay, b = b[:sz], b[sz:]
	}
	if got := blk.frame(-1); !bytes.Equal(got, data) {
		t.Fatal("rawBlock does not reproduce a canonical block")
	}
	var out [][]byte
	for w := range 3 + len(blk.cols) {
		out = append(out, blk.frame(w))
	}
	for i, c := range blk.cols {
		v := blk
		v.cols = slices.Clone(blk.cols)
		if len(c.pay) > 0 {
			// Widen the first value (or blob length) by one byte.
			_, n := binary.Uvarint(c.pay)
			v.cols[i].pay = slices.Concat(c.pay[:n-1], []byte{c.pay[n-1] | 0x80, 0}, c.pay[n:])
			out = append(out, v.frame(-1))
		}
		v.cols[i].pay = append(slices.Clip(c.pay), 0)
		out = append(out, v.frame(-1))
		if i+1 < len(blk.cols) {
			v.cols[i].pay = c.pay
			v.cols[i], v.cols[i+1] = v.cols[i+1], v.cols[i]
			out = append(out, v.frame(-1))
		}
	}
	extra := blk
	extra.cols = append(slices.Clip(blk.cols), rawCol{id: 99, enc: byte(colseg.EncU8), pay: make([]byte, blk.rows)})
	return append(out, extra.frame(-1))
}

// frame encodes the block, widening varint w by one byte: 0 the frame
// length, 1 the row count, 2 the column count, 3+i column i's size
// (w < 0 widens none).
func (blk rawBlock) frame(w int) []byte {
	uv := func(dst []byte, v uint64, k int) []byte {
		dst = binary.AppendUvarint(dst, v)
		if k == w {
			dst[len(dst)-1] |= 0x80
			dst = append(dst, 0)
		}
		return dst
	}
	body := uv(nil, blk.rows, 1)
	body = uv(body, uint64(len(blk.cols)), 2)
	for i, c := range blk.cols {
		body = uv(append(body, c.id, c.enc), uint64(len(c.pay)), 3+i)
	}
	for _, c := range blk.cols {
		body = append(body, c.pay...)
	}
	head := append([]byte("VCSB"), colseg.Version)
	return append(uv(head, uint64(len(body)), 0), body...)
}

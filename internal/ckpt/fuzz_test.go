package ckpt

import (
	"bytes"
	"errors"
	"math/rand"
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
	// Small images keep the seeds a few kilobytes, so mutations and
	// minimization stay cheap; the resized state grows across a chunk
	// boundary and shrinks back, storing a shrink's empty version.
	r := rand.New(rand.NewSource(11))
	state := make([]byte, chunkSize+30)
	r.Read(state[:40])
	state[chunkSize+7] = 1
	resized := chainOf(f, buildImages(r, 3, 300, false), [][]byte{state[:40], state, state[:50]})
	small := chainOf(f, buildImages(r, 2, 300, false), buildImages(r, 2, 90, false))
	for _, data := range [][]byte{resized.Encode(), small.Encode()} {
		f.Add(data, false)
		f.Add(data, true)
		f.Add(data[:len(data)/2], true)
	}
	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		if seal {
			data = reseal(data)
		}
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

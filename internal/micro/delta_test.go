package micro

import (
	"bytes"
	"math/rand"
	"testing"

	"vulnstack/internal/ckpt"
	"vulnstack/internal/kernel"
	"vulnstack/internal/mem"
	"vulnstack/internal/workload"
)

func shaImage(t *testing.T, cfg Config) *kernel.Image {
	t.Helper()
	spec, err := workload.Get("sha")
	if err != nil {
		t.Fatal(err)
	}
	return buildImage(t, spec.Gen(3, 1), cfg.ISA)
}

// flipAndStep injects k seeded flips into each of the five structures,
// stepping the core between them.
func flipAndStep(c *Core, r *rand.Rand, k, cycles int) {
	for s := Structure(0); s < NumStructures; s++ {
		for i := 0; i < k; i++ {
			entries, bits := c.Cfg.StructDims(s)
			c.Inject(s, r.Intn(entries), r.Intn(bits))
			for n := 0; n < cycles && c.Step(); n++ {
			}
		}
	}
}

// lineOf returns line li's record and data bytes in an EncodeState blob.
func lineOf(ch *cache, blob []byte, li int) (rec, data []byte) {
	return blob[ch.recOff(li):ch.recOff(li+1)], blob[ch.dataOff(li):ch.dataOff(li+1)]
}

// eqOf is StateMatches' ranged compare over a plain blob.
func eqOf(blob []byte) func(off int, b []byte) bool {
	return func(off int, b []byte) bool {
		return off >= 0 && off+len(b) <= len(blob) && bytes.Equal(blob[off:off+len(b)], b)
	}
}

// TestTouchedSetComplete: after a decode, every cache line whose
// encoded record or data differs from the decoded blob must be in its
// cache's touched set, however the core got there — refills, reads,
// writes, writebacks and flips into all five structures. A mutation
// site that bypasses touch, flipBit or flushAll fails this test.
func TestTouchedSetComplete(t *testing.T) {
	for _, cfg := range Configs() {
		img := shaImage(t, cfg)
		core := New(cfg, img.NewMemory(), img.Entry)
		for core.Cycle < 20000 && core.Step() {
		}
		src := core.EncodeState(nil)
		if err := core.DecodeState(src); err != nil {
			t.Fatal(err)
		}
		flipAndStep(core, rand.New(rand.NewSource(2021)), 3, 300)
		core.l1d.flushAll()
		after := core.EncodeState(nil)
		for _, ch := range core.caches() {
			members := map[int32]bool{}
			for _, li := range ch.touched {
				if members[li] || ch.touchedBits[li>>6]&(1<<(li&63)) == 0 {
					t.Fatalf("%s: touched list and bitset disagree on line %d", cfg.Name, li)
				}
				members[li] = true
			}
			changed := 0
			for li := range ch.cfg.Lines() {
				r0, d0 := lineOf(ch, src, li)
				r1, d1 := lineOf(ch, after, li)
				if bytes.Equal(r0, r1) && bytes.Equal(d0, d1) {
					continue
				}
				changed++
				if !members[int32(li)] {
					t.Fatalf("%s: line %d of a %d-byte cache changed but is not touched",
						cfg.Name, li, ch.cfg.SizeBytes)
				}
			}
			if changed == 0 {
				t.Fatalf("%s: no line of a %d-byte cache changed; the test is vacuous", cfg.Name, ch.cfg.SizeBytes)
			}
		}
	}
}

// TestDecodeStateDeltaMatchesFull: along a chain of checkpoints, a core
// restored by DecodeStateDelta from any checkpoint to any other — after
// a faulty stretch of execution in between — must re-encode exactly as
// a full DecodeState of the target does, also when the two blobs'
// lengths differ; and StateMatches must agree with a full encode and
// compare, before and after each restore.
func TestDecodeStateDeltaMatchesFull(t *testing.T) {
	for _, cfg := range Configs() {
		img := shaImage(t, cfg)
		gm := img.NewMemory()
		gm.EnableTracking()
		golden := New(cfg, gm, img.Entry)
		chain := ckpt.New(ckpt.Meta{Engine: "test"})
		var blobs [][]byte
		var blob []byte
		var pages, chunks []int
		for len(blobs) < 16 && !golden.Bus.Halted() {
			blob, chunks = golden.EncodeStateDelta(blob, chunks[:0])
			pages = gm.TakeDirtyPages(pages[:0])
			chain.Add(golden.Cycle, golden.StateProbe(), gm.Bytes(), pages, blob, chunks, nil)
			blobs = append(blobs, bytes.Clone(blob))
			for stop := golden.Cycle + 1500; golden.Cycle < stop && golden.Step(); {
			}
		}

		m := mem.New(img.RAM.Size())
		m.EnableTracking()
		arena := New(cfg, m, img.Entry)
		twin := New(cfg, mem.New(img.RAM.Size()), img.Entry)
		if err := arena.DecodeState(blobs[0]); err != nil {
			t.Fatal(err)
		}
		chain.RestoreRAM(m, -1, 0)
		r := rand.New(rand.NewSource(7))
		src, resized := 0, 0
		for iter := 0; iter < 24; iter++ {
			flipAndStep(arena, r, 1, 100)
			g := r.Intn(len(blobs))
			chunks := chain.StateChunks(src, g, nil)
			eq := func(off int, b []byte) bool { return chain.StateRangeEqual(g, off, b) }
			changed := func() []int { return chunks }
			full := bytes.Equal(arena.EncodeState(nil), blobs[g])
			if got := arena.StateMatches(len(blobs[g]), eq, changed); got != full {
				t.Fatalf("%s: StateMatches(%d) after a run from %d = %v, full compare %v", cfg.Name, g, src, got, full)
			}
			if err := arena.DecodeStateDelta(blobs[g], chunks); err != nil {
				t.Fatalf("%s: delta decode %d -> %d: %v", cfg.Name, src, g, err)
			}
			chain.RestoreRAM(m, src, g)
			if len(blobs[g]) != len(blobs[src]) {
				resized++
			}
			if err := twin.DecodeState(blobs[g]); err != nil {
				t.Fatal(err)
			}
			got := arena.EncodeState(nil)
			if !bytes.Equal(got, twin.EncodeState(nil)) || !bytes.Equal(got, blobs[g]) {
				t.Fatalf("%s: delta decode %d -> %d re-encodes differently from a full decode", cfg.Name, src, g)
			}
			if !arena.StateMatches(len(blobs[g]), eq, func() []int { return nil }) {
				t.Fatalf("%s: StateMatches(%d) false right after restoring it", cfg.Name, g)
			}
			src = g
		}
		if resized == 0 {
			t.Fatalf("%s: no restore crossed a blob-length change", cfg.Name)
		}
	}
}

// TestStateMatchesChunkLines: a difference confined to one cache line
// the core never touched is found only through the changed chunks —
// at the first and last record and data byte of every cache, where a
// chunk may straddle two sections.
func TestStateMatchesChunkLines(t *testing.T) {
	cfg := ConfigA9()
	img := shaImage(t, cfg)
	core := New(cfg, img.NewMemory(), img.Entry)
	for core.Cycle < 5000 && core.Step() {
	}
	blob := core.EncodeState(nil)
	if err := core.DecodeState(blob); err != nil {
		t.Fatal(err)
	}
	if !core.StateMatches(len(blob), eqOf(blob), func() []int { return nil }) {
		t.Fatal("StateMatches false on the core's own blob")
	}
	for _, ch := range core.caches() {
		n := ch.cfg.Lines()
		for _, off := range []int{ch.recOff(0), ch.recOff(n) - 1, ch.dataOff(0), ch.dataOff(n) - 1} {
			mut := append([]byte(nil), blob...)
			mut[off] ^= 0x10
			chunk := off >> ckpt.ChunkShift
			if core.StateMatches(len(mut), eqOf(mut), func() []int { return []int{chunk} }) {
				t.Fatalf("byte %d of a %d-byte cache's section differs, chunk %d listed, yet StateMatches is true",
					off, ch.cfg.SizeBytes, chunk)
			}
		}
	}
}

// TestEncodeStateDeltaMatchesFull: along golden-style runs with flips
// in all five structures, captures at uneven spacing and tail-length
// changes, every incremental encode must equal a full EncodeState, and
// the chunks it returns must include every chunk that differs from the
// previous blob (every chunk of the first), the hint a checkpoint chain
// compares on.
func TestEncodeStateDeltaMatchesFull(t *testing.T) {
	for _, cfg := range Configs() {
		img := shaImage(t, cfg)
		core := New(cfg, img.NewMemory(), img.Entry)
		r := rand.New(rand.NewSource(19))
		var blob, prev []byte
		var chunks []int
		resized := 0
		for capture := 0; capture < 40; capture++ {
			if core.Bus.Halted() {
				// A flip crashed the run: capture a fresh one from boot.
				core = New(cfg, img.NewMemory(), img.Entry)
				blob, prev = blob[:0], nil
			}
			if len(prev) > 0 {
				// Uneven spacing: back-to-back captures, short and long
				// stretches, with flips in every structure on some.
				if r.Intn(3) == 0 {
					flipAndStep(core, r, 1, r.Intn(40))
				}
				for n := []int{0, 1, 7, 300, 2500}[r.Intn(5)]; n > 0 && core.Step(); n-- {
				}
			}
			blob, chunks = core.EncodeStateDelta(blob, chunks[:0])
			full := core.EncodeState(nil)
			if !bytes.Equal(blob, full) {
				t.Fatalf("%s: capture %d: incremental encode differs from EncodeState", cfg.Name, capture)
			}
			listed := map[int]bool{}
			for _, k := range chunks {
				listed[k] = true
			}
			for k := 0; k<<ckpt.ChunkShift < max(len(prev), len(full)); k++ {
				if !bytes.Equal(chunkAt(prev, k), chunkAt(full, k)) && !listed[k] {
					t.Fatalf("%s: capture %d: chunk %d changed but is not listed", cfg.Name, capture, k)
				}
			}
			if len(prev) > 0 && len(prev) != len(full) {
				resized++
			}
			prev = full
		}
		if resized < 10 {
			t.Fatalf("%s: %d of 40 captures changed the blob's length, too few to exercise the tail", cfg.Name, resized)
		}
	}
}

// chunkAt returns ckpt chunk k of blob (empty past its end).
func chunkAt(blob []byte, k int) []byte {
	lo := min(k<<ckpt.ChunkShift, len(blob))
	return blob[lo:min(lo+1<<ckpt.ChunkShift, len(blob))]
}

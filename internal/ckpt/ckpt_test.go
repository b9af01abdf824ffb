package ckpt

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"vulnstack/internal/colseg"
	"vulnstack/internal/mem"
)

// buildImages generates a sequence of images that mutate a few chunks
// per step (with occasional growth/shrink for the state space), plus a
// mostly-zero start — the shapes the RAM and machine-state planes
// produce.
func buildImages(r *rand.Rand, n, size int, resize bool) [][]byte {
	imgs := make([][]byte, n)
	cur := make([]byte, size)
	// Sparse nonzero start: most chunks stay zero, like a fresh RAM.
	for i := 0; i < size/64; i++ {
		cur[r.Intn(size)] = byte(1 + r.Intn(255))
	}
	for i := range imgs {
		if i > 0 {
			for k := 0; k < 3; k++ {
				cur[r.Intn(len(cur))] ^= byte(1 + r.Intn(255))
			}
			if resize && i%3 == 0 {
				// Alternate growth and shrink across chunk boundaries.
				delta := (r.Intn(3) - 1) * (chunkSize + 17)
				nl := len(cur) + delta
				if nl < 1 {
					nl = 1
				}
				next := make([]byte, nl)
				copy(next, cur)
				cur = next
			}
		}
		imgs[i] = append([]byte(nil), cur...)
	}
	return imgs
}

// every lists every chunk index of img: the hint of a caller that does
// not know which chunks changed.
func every(img []byte) []int { return AppendChunks(nil, 0, len(img)) }

func chainOf(t testing.TB, ramImgs, stateImgs [][]byte) *Chain {
	t.Helper()
	ch := New(Meta{Engine: "test", RAMBytes: len(ramImgs[0]), Golden: []byte("g")})
	for i := range ramImgs {
		ch.Add(uint64(i*10), uint64(i)*7919, ramImgs[i], every(ramImgs[i]), stateImgs[i], every(stateImgs[i]), []byte{byte(i)})
	}
	return ch
}

// TestStateAtMatchesRetainedImages: materializing any checkpoint — full
// or delta-walked from any other checkpoint — must reproduce the exact
// captured image.
func TestStateAtMatchesRetainedImages(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ramImgs := buildImages(r, 12, 4*chunkSize, false)
	stateImgs := buildImages(r, 12, 3*chunkSize+100, true)
	ch := chainOf(t, ramImgs, stateImgs)

	var buf []byte
	for from := -1; from < 12; from++ {
		for to := 0; to < 12; to++ {
			src := -1
			if from >= 0 {
				// Seed the buffer with checkpoint `from` as the delta-walk
				// precondition requires.
				buf = ch.StateAt(from, buf, -1)
				src = from
			}
			buf = ch.StateAt(to, buf, src)
			if !bytes.Equal(buf, stateImgs[to]) {
				t.Fatalf("StateAt(%d) from %d: %d bytes, want %d (content mismatch)",
					to, from, len(buf), len(stateImgs[to]))
			}
		}
	}
}

// TestRestoreRAMMatchesRetainedImages: the dirty-page + delta-walk RAM
// restore must land exactly on the captured image, from any previous
// restore point, with arbitrary writes in between.
func TestRestoreRAMMatchesRetainedImages(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	size := 8 * chunkSize
	ramImgs := buildImages(r, 10, size, false)
	stateImgs := buildImages(r, 10, chunkSize, false)
	ch := chainOf(t, ramImgs, stateImgs)

	m := mem.New(uint64(size))
	m.EnableTracking()
	src := -1
	for trial := 0; trial < 40; trial++ {
		to := r.Intn(10)
		ch.RestoreRAM(m, src, to)
		src = to
		if !bytes.Equal(m.Bytes(), ramImgs[to]) {
			t.Fatalf("trial %d: RestoreRAM(%d) diverged", trial, to)
		}
		// Simulate a faulty run scribbling on tracked memory.
		for k := 0; k < 5; k++ {
			m.Write(uint64(mem.GuardTop+r.Intn(size-mem.GuardTop-8)), 8, r.Uint64())
		}
	}
}

// TestStateEqualAndRAMEqual: equality must hold exactly on the captured
// images and break under any single-byte perturbation.
func TestStateEqualAndRAMEqual(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	size := 4 * chunkSize
	ramImgs := buildImages(r, 6, size, false)
	stateImgs := buildImages(r, 6, 2*chunkSize, false)
	ch := chainOf(t, ramImgs, stateImgs)

	for j := 0; j < 6; j++ {
		if !ch.StateEqual(j, stateImgs[j]) {
			t.Fatalf("StateEqual(%d) false on the captured image", j)
		}
		mut := append([]byte(nil), stateImgs[j]...)
		mut[r.Intn(len(mut))] ^= 1
		if ch.StateEqual(j, mut) {
			t.Fatalf("StateEqual(%d) true on a perturbed image", j)
		}
		if ch.StateEqual(j, stateImgs[j][:len(stateImgs[j])-1]) {
			t.Fatalf("StateEqual(%d) true on a truncated image", j)
		}
	}

	m := mem.New(uint64(size))
	m.EnableTracking()
	src := -1
	for g := 0; g < 5; g++ {
		for j := g + 1; j < 6; j++ {
			// A faulty run whose memory re-equals golden-at-j: restore the
			// arena there (clean), which satisfies RAMEqual's precondition
			// that unchecked pages already match.
			ch.RestoreRAM(m, src, j)
			src = j
			if !ch.RAMEqual(m, g, j) {
				t.Fatalf("RAMEqual(g=%d, j=%d) false on golden content", g, j)
			}
			// Any tracked divergence must be caught: FlipBit dirties the
			// page, putting it in the compared set.
			m.FlipBit(uint64(mem.GuardTop+r.Intn(size-mem.GuardTop)), 0)
			if ch.RAMEqual(m, g, j) {
				t.Fatalf("RAMEqual(g=%d, j=%d) true under a flipped bit", g, j)
			}
		}
	}
}

// TestStateRangeEqual: the ranged compare must agree with slicing the
// retained image — for ranges inside one chunk, across chunk
// boundaries, in tails that shrank and regrew, and on a decoded chain —
// and must reject any range reaching past the blob's end.
func TestStateRangeEqual(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ramImgs := buildImages(r, 12, 2*chunkSize, false)
	stateImgs := buildImages(r, 12, 3*chunkSize+100, true)
	shrunk := false
	for i := 1; i < len(stateImgs); i++ {
		shrunk = shrunk || len(stateImgs[i]) < len(stateImgs[i-1])
	}
	if !shrunk {
		t.Fatal("no checkpoint shrank its state blob; the tail case is untested")
	}
	built := chainOf(t, ramImgs, stateImgs)
	decoded, err := Decode(built.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []*Chain{built, decoded} {
		for i, img := range stateImgs {
			n := len(img)
			if ch.StateLen(i) != n {
				t.Fatalf("StateLen(%d) = %d, want %d", i, ch.StateLen(i), n)
			}
			ranges := [][2]int{{0, n}, {n, 0}, {n - min(n, 30), min(n, 30)}}
			for c := chunkSize; c < n; c += chunkSize {
				ranges = append(ranges, [2]int{c - 5, min(10, n-c+5)})
			}
			for k := 0; k < 40; k++ {
				off := r.Intn(n)
				ranges = append(ranges, [2]int{off, r.Intn(n - off + 1)})
			}
			for _, rg := range ranges {
				off, b := rg[0], img[rg[0]:rg[0]+rg[1]]
				if !ch.StateRangeEqual(i, off, b) {
					t.Fatalf("ckpt %d: range [%d,+%d) unequal to the image", i, off, len(b))
				}
				if len(b) > 0 {
					mut := append([]byte(nil), b...)
					mut[r.Intn(len(mut))] ^= 0x40
					if ch.StateRangeEqual(i, off, mut) {
						t.Fatalf("ckpt %d: perturbed range [%d,+%d) equal", i, off, len(b))
					}
				}
			}
			for _, rg := range [][2]int{{n, 1}, {n - 3, 4}, {n + chunkSize, 0}, {-1, 2}} {
				if ch.StateRangeEqual(i, rg[0], make([]byte, rg[1])) {
					t.Fatalf("ckpt %d: range [%d,+%d) past the end reported equal", i, rg[0], rg[1])
				}
			}
		}
	}
}

// TestStateChunks: the chunk set between two checkpoints must be sorted,
// without repeats, and cover every chunk whose contents differ between
// the two retained images (length changes included); from = -1 stands
// for an all-zero image.
func TestStateChunks(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ramImgs := buildImages(r, 10, chunkSize, false)
	stateImgs := buildImages(r, 10, 3*chunkSize+100, true)
	ch := chainOf(t, ramImgs, stateImgs)
	for from := -1; from < len(stateImgs); from++ {
		for to := 0; to < len(stateImgs); to++ {
			got := ch.StateChunks(from, to, []int{-7})
			if got[0] != -7 {
				t.Fatal("StateChunks overwrote dst's existing elements")
			}
			got = got[1:]
			for k := 1; k < len(got); k++ {
				if got[k] <= got[k-1] {
					t.Fatalf("StateChunks(%d, %d) = %v: not sorted and distinct", from, to, got)
				}
			}
			b := stateImgs[to]
			a := make([]byte, len(b))
			if from >= 0 {
				a = stateImgs[from]
			}
			for c := 0; c < numChunks(max(len(a), len(b))); c++ {
				if bytes.Equal(chunkOf(a, c), chunkOf(b, c)) {
					continue
				}
				found := false
				for _, k := range got {
					found = found || k == c
				}
				if !found {
					t.Fatalf("StateChunks(%d, %d) = %v misses changed chunk %d", from, to, got, c)
				}
			}
		}
	}
}

// TestFindMatchesLinearScan: the binary search must agree with the
// obvious linear reference on every boundary shape.
func TestFindMatchesLinearScan(t *testing.T) {
	cases := [][]uint64{
		{0},
		{0, 10, 20, 30},
		{0, 5, 9},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{3, 17, 200},
	}
	for _, at := range cases {
		ch := New(Meta{})
		for _, a := range at {
			ch.Add(a, 0, nil, nil, nil, nil, nil)
		}
		for coord := uint64(0); coord < at[len(at)-1]+3; coord++ {
			want := 0
			for i, a := range at {
				if a <= coord {
					want = i
				}
			}
			if got := ch.Find(coord); got != want {
				t.Fatalf("coords=%v coord=%d: got %d, want %d", at, coord, got, want)
			}
		}
	}
}

// TestAddRejectsNonAscending: duplicate or regressing coordinates are a
// capture bug, not a tolerated input.
func TestAddRejectsNonAscending(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with a duplicate coordinate must panic")
		}
	}()
	ch := New(Meta{})
	ch.Add(5, 0, nil, nil, nil, nil, nil)
	ch.Add(5, 0, nil, nil, nil, nil, nil)
}

// TestEncodeDecodeRoundTrip: a persisted chain must decode to a chain
// with identical meta, coordinates, probes, aux, and materialized
// images.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ramImgs := buildImages(r, 8, 4*chunkSize, false)
	stateImgs := buildImages(r, 8, 2*chunkSize+57, true)
	ch := chainOf(t, ramImgs, stateImgs)
	ch.Meta.Fingerprint = "abc123"
	ch.Meta.Target = "sha/1/1/false/VSA64"
	ch.Meta.Config = "A72"

	data := ch.Encode()
	meta, err := DecodeMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Engine != ch.Meta.Engine || meta.Fingerprint != ch.Meta.Fingerprint ||
		meta.Target != ch.Meta.Target || meta.Config != ch.Meta.Config ||
		meta.RAMBytes != ch.Meta.RAMBytes || string(meta.Golden) != "g" {
		t.Fatalf("DecodeMeta %+v != %+v", meta, ch.Meta)
	}

	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ch.Len() {
		t.Fatalf("decoded %d checkpoints, want %d", got.Len(), ch.Len())
	}
	for i := 0; i < ch.Len(); i++ {
		if got.Coord(i) != ch.Coord(i) || got.Probe(i) != ch.Probe(i) ||
			!bytes.Equal(got.Aux(i), ch.Aux(i)) {
			t.Fatalf("checkpoint %d index mismatch", i)
		}
		if !bytes.Equal(got.StateAt(i, nil, -1), stateImgs[i]) {
			t.Fatalf("checkpoint %d state mismatch after round trip", i)
		}
	}
	m1 := mem.New(uint64(4 * chunkSize))
	m2 := mem.New(uint64(4 * chunkSize))
	for i := 0; i < ch.Len(); i++ {
		ch.RestoreRAM(m1, i-1, i)
		got.RestoreRAM(m2, i-1, i)
		if !bytes.Equal(m1.Bytes(), m2.Bytes()) || !bytes.Equal(m1.Bytes(), ramImgs[i]) {
			t.Fatalf("checkpoint %d RAM mismatch after round trip", i)
		}
	}
}

// TestDecodeRejectsCorruption: truncation and bit flips anywhere in the
// file must yield ErrChain, never a mis-restored chain. This is the
// robustness contract campaign loaders rely on for their cold-Prepare
// fallback.
func TestDecodeRejectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ramImgs := buildImages(r, 6, 4*chunkSize, false)
	stateImgs := buildImages(r, 6, chunkSize, false)
	ch := chainOf(t, ramImgs, stateImgs)
	data := ch.Encode()

	if _, err := Decode(data); err != nil {
		t.Fatalf("pristine chain must decode: %v", err)
	}
	// Truncation at a spread of cut points, including mid-header.
	for _, cut := range []int{0, 1, 7, len(data) / 3, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); !errors.Is(err, ErrChain) {
			t.Fatalf("truncated at %d: err=%v, want ErrChain", cut, err)
		}
	}
	// Single bit flips at a spread of offsets.
	for trial := 0; trial < 64; trial++ {
		mut := append([]byte(nil), data...)
		mut[r.Intn(len(mut))] ^= 1 << uint(r.Intn(8))
		if ch2, err := Decode(mut); err == nil {
			// The only acceptable "success" is a flip that left the file
			// semantically identical — impossible for a single bit under
			// the digest unless the flip hit unparsed slack, which colseg
			// does not have. Treat success as failure.
			_ = ch2
			t.Fatalf("trial %d: bit-flipped chain decoded without error", trial)
		} else if !errors.Is(err, ErrChain) {
			t.Fatalf("trial %d: err=%v, want ErrChain", trial, err)
		}
	}
	// Garbage is rejected, not crashed on.
	junk := make([]byte, 512)
	r.Read(junk)
	if _, err := Decode(junk); !errors.Is(err, ErrChain) {
		t.Fatalf("garbage: err=%v, want ErrChain", err)
	}
}

// TestDecodeRejectsGoldenFlip: the digest covers the golden blob, which
// a warm Prepare trusts instead of rerunning the golden execution (the
// micro engine's lifetime table rides in it): a flip anywhere in it
// yields ErrChain.
func TestDecodeRejectsGoldenFlip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ch := chainOf(t, buildImages(r, 3, chunkSize, false), buildImages(r, 3, chunkSize, false))
	ch.Meta.Golden = []byte("golden summary and lifetime table")
	data := ch.Encode()
	at := bytes.Index(data, ch.Meta.Golden)
	if at < 0 {
		t.Fatal("golden blob not found in the encoding")
	}
	for i := range ch.Meta.Golden {
		mut := append([]byte(nil), data...)
		mut[at+i] ^= 0x10
		if _, err := Decode(mut); !errors.Is(err, ErrChain) {
			t.Fatalf("flip in golden byte %d: err=%v, want ErrChain", i, err)
		}
	}
}

// TestDeltaMemoryScaling: the acceptance criterion that checkpoint
// memory is no longer O(checkpoints × image): a 128-checkpoint chain
// over a sparsely mutating image must store far less than 128 full
// copies — bounded here by the equivalent of 4 full images.
func TestDeltaMemoryScaling(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	size := 64 * chunkSize
	ch := New(Meta{RAMBytes: size})
	cur := make([]byte, size)
	for i := 0; i < size/128; i++ {
		cur[r.Intn(size)] = byte(r.Intn(256))
	}
	state := make([]byte, 2*chunkSize)
	for i := 0; i < 128; i++ {
		// Two chunks of RAM and half the state mutate per checkpoint.
		for k := 0; k < 2; k++ {
			cur[r.Intn(size)] ^= byte(1 + r.Intn(255))
		}
		r.Read(state[:chunkSize])
		ch.Add(uint64(i), 0, cur, every(cur), state, every(state), nil)
	}
	st := ch.Stats()
	if st.Checkpoints != 128 {
		t.Fatalf("checkpoints %d", st.Checkpoints)
	}
	full := 128 * (size + len(state))
	stored := st.BaseBytes + st.DeltaBytes
	if stored >= full/8 {
		t.Fatalf("128 delta checkpoints store %d bytes; full copies would be %d — deltas must save at least 8x", stored, full)
	}
	t.Logf("128 checkpoints: %d bytes stored vs %d full (%.1fx saving)", stored, full, float64(full)/float64(stored))
}

// TestFingerprintSensitivity: any part change must change the
// fingerprint; identical parts must reproduce it.
func TestFingerprintSensitivity(t *testing.T) {
	base := Fingerprint("micro", "v1", "sha/1/1/false/VSA64", "A72", "snapshots=192", "ram=2097152")
	if base != Fingerprint("micro", "v1", "sha/1/1/false/VSA64", "A72", "snapshots=192", "ram=2097152") {
		t.Fatal("fingerprint not deterministic")
	}
	variants := [][]string{
		{"arch", "v1", "sha/1/1/false/VSA64", "A72", "snapshots=192", "ram=2097152"},
		{"micro", "v2", "sha/1/1/false/VSA64", "A72", "snapshots=192", "ram=2097152"},
		{"micro", "v1", "sha/2/1/false/VSA64", "A72", "snapshots=192", "ram=2097152"},
		{"micro", "v1", "sha/1/1/false/VSA64", "A57", "snapshots=192", "ram=2097152"},
		{"micro", "v1", "sha/1/1/false/VSA64", "A72", "snapshots=12", "ram=2097152"},
		{"micro", "v1", "sha/1/1/false/VSA64", "A72", "snapshots=192", "ram=1048576"},
		// Concatenation ambiguity: moving a character across a part
		// boundary must still change the hash (the separator guarantees).
		{"micro", "v1", "sha/1/1/false/VSA64", "A72s", "napshots=192", "ram=2097152"},
	}
	for i, parts := range variants {
		if Fingerprint(parts...) == base {
			t.Fatalf("variant %d collides with base", i)
		}
	}
}

// changedHint lists the chunks whose contents differ between two
// images, leaving out those a length change spans (from min(len(a),
// len(b)) on): the least a capture can hint.
func changedHint(a, b []byte) []int {
	var hint []int
	for c := 0; c < min(len(a), len(b))>>ChunkShift; c++ {
		if !bytes.Equal(chunkOf(a, c), chunkOf(b, c)) {
			hint = append(hint, c)
		}
	}
	return hint
}

// TestAddHintsMatchFullCompare: a chain captured with only the changed
// chunks hinted, never those a length change spans, must encode byte
// for byte like one whose every chunk was compared, across growth and
// shrink over chunk boundaries; unordered, repeated and out-of-range
// hints change nothing.
func TestAddHintsMatchFullCompare(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	ramImgs := buildImages(r, 24, 4*chunkSize, false)
	stateImgs := buildImages(r, 24, 3*chunkSize+100, true)
	full := chainOf(t, ramImgs, stateImgs)
	hinted := New(full.Meta)
	noisy := New(full.Meta)
	resized := 0
	for i := range ramImgs {
		var rh, sh []int
		if i > 0 {
			rh, sh = changedHint(ramImgs[i-1], ramImgs[i]), changedHint(stateImgs[i-1], stateImgs[i])
			if len(stateImgs[i]) != len(stateImgs[i-1]) {
				resized++
			}
		}
		hinted.Add(uint64(i*10), uint64(i)*7919, ramImgs[i], rh, stateImgs[i], sh, []byte{byte(i)})
		rev := append(slices.Clone(sh), 1<<20, -3)
		slices.Reverse(rev)
		noisy.Add(uint64(i*10), uint64(i)*7919, ramImgs[i], append(rh, rh...), stateImgs[i], rev, []byte{byte(i)})
	}
	if resized < 4 {
		t.Fatalf("only %d length changes; the length-change chunks are barely exercised", resized)
	}
	want := full.Encode()
	if !bytes.Equal(hinted.Encode(), want) {
		t.Fatal("a chain hinted with only the changed chunks encodes differently from a full compare")
	}
	if !bytes.Equal(noisy.Encode(), want) {
		t.Fatal("unordered, repeated or out-of-range hints changed the chain")
	}
	for i, img := range stateImgs {
		if !bytes.Equal(hinted.StateAt(i, nil, -1), img) {
			t.Fatalf("checkpoint %d: StateAt differs from the captured image", i)
		}
	}
}

// TestAddComparesLengthChangeChunks: with empty hints, the chunks a
// length change spans are still compared and stored, so growth and
// shrink across and within chunks restore exactly; a chunk changed
// below the shorter length is not (the hint's job), which shows the
// comparison is limited to hints and length-change chunks.
func TestAddComparesLengthChangeChunks(t *testing.T) {
	imgs := [][]byte{
		bytes.Repeat([]byte{1}, chunkSize+10),   // base
		bytes.Repeat([]byte{2}, 3*chunkSize+5),  // grow over two boundaries
		bytes.Repeat([]byte{3}, 3*chunkSize+70), // grow inside the last chunk
		bytes.Repeat([]byte{4}, 2*chunkSize),    // shrink to a boundary
		bytes.Repeat([]byte{5}, chunkSize/2),    // shrink across one
	}
	ch := New(Meta{})
	for i, img := range imgs {
		ch.Add(uint64(i), 0, nil, nil, img, nil, nil)
	}
	for i, img := range imgs {
		got := ch.StateAt(i, nil, -1)
		if len(got) != len(img) {
			t.Fatalf("checkpoint %d: %d bytes, want %d", i, len(got), len(img))
		}
		// Below min(previous, current) length only the base (or a hint)
		// writes; from there on every byte is the checkpoint's own.
		from := 0
		if i > 0 {
			from = min(len(imgs[i-1]), len(img)) &^ (chunkSize - 1)
		}
		if !bytes.Equal(got[from:], img[from:]) {
			t.Fatalf("checkpoint %d: bytes from %d (the length-change chunks) not captured", i, from)
		}
	}
	if got := ch.StateAt(1, nil, -1); got[0] != 1 {
		t.Fatal("an unhinted chunk below both lengths was compared: hints are not limiting the comparison")
	}
}

// TestDecodeRejectsRowsOutsideImages: a stored row must lie inside its
// checkpoint's image (or the previous one's, for a shrink's empty
// version) and hold exactly that chunk's length; rows ascend by
// checkpoint and chunk. Each forgery is digest-valid.
func TestDecodeRejectsRowsOutsideImages(t *testing.T) {
	build := func() *Chain {
		r := rand.New(rand.NewSource(9))
		return chainOf(t, buildImages(r, 4, 2*chunkSize, false), buildImages(r, 4, 2*chunkSize+100, false))
	}
	if _, err := Decode(build().Encode()); err != nil {
		t.Fatal(err)
	}
	forgeries := map[string]func(ch *Chain){
		"chunk past both images": func(ch *Chain) {
			ch.state.chunks = append(ch.state.chunks, []chunkVer{{idx: 2, data: make([]byte, chunkSize)}})
			ch.state.perCkpt[2] = append(ch.state.perCkpt[2], int32(len(ch.state.chunks)-1))
		},
		"short last chunk": func(ch *Chain) {
			v := &ch.state.chunks[2][0]
			v.data = v.data[:len(v.data)-1]
		},
		"long last chunk": func(ch *Chain) {
			v := &ch.state.chunks[2][0]
			v.data = append(v.data, 0)
		},
		"rows out of order": func(ch *Chain) {
			slices.Reverse(ch.ram.perCkpt[0])
		},
		"resize without a row": func(ch *Chain) {
			ch.state.lens[3] += 10
			for c, vers := range ch.state.chunks {
				if n := len(vers); n > 0 && vers[n-1].idx == 3 {
					ch.state.chunks[c] = vers[:n-1]
				}
			}
			ch.state.perCkpt[3] = nil
		},
	}
	for name, forge := range forgeries {
		ch := build()
		forge(ch)
		if _, err := Decode(ch.Encode()); !errors.Is(err, ErrChain) {
			t.Errorf("%s: err=%v, want ErrChain", name, err)
		}
	}
}

// TestDecodeRejectsNonCanonical: Decode accepts exactly the bytes
// Encode writes, so a varint widened without changing its value is
// refused even under a valid digest.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	ch := chainOf(t, buildImages(r, 3, chunkSize, false), buildImages(r, 3, chunkSize, false))
	data := ch.Encode()
	_, n, err := colseg.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	// Append a trailing block after the state block.
	extra := colseg.NewBuilder(0).AppendTo(nil)
	if _, err := Decode(reseal(append(slices.Clone(data), extra...))); !errors.Is(err, ErrChain) {
		t.Fatalf("trailing block: err=%v, want ErrChain", err)
	}
	// Widen the index block's frame length varint (5 bytes past its
	// magic and version): same value, one byte longer.
	at := n + 5
	if data[at] >= 0x80 {
		t.Skip("frame length already spans several bytes")
	}
	wide := append(slices.Clone(data[:at]), data[at]|0x80, 0)
	wide = append(wide, data[at+1:]...)
	if _, err := Decode(reseal(wide)); !errors.Is(err, ErrChain) {
		t.Fatalf("widened varint: err=%v, want ErrChain", err)
	}
	if _, err := Decode(reseal(data)); err != nil {
		t.Fatalf("re-sealing the pristine chain broke it: %v", err)
	}
}

// TestDecodeRejectsHugeRAM: a header claiming more RAM than 32-bit
// physical addresses reach is refused; at 2^63 and above the size
// would turn negative as an int and lift every bound checked against
// it.
func TestDecodeRejectsHugeRAM(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ch := chainOf(t, buildImages(r, 2, 300, false), buildImages(r, 2, 90, false))
	for _, n := range []int{1<<32 + 1, -1} {
		ch.Meta.RAMBytes = n
		if _, err := Decode(ch.Encode()); !errors.Is(err, ErrChain) {
			t.Errorf("RAMBytes %d: err=%v, want ErrChain", n, err)
		}
	}
}

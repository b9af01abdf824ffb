package micro

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"vulnstack/internal/ckpt"
	"vulnstack/internal/mem"
	"vulnstack/internal/workload"
)

// fuzzBase is one config's fuzz fixture: a core on sha's RAM geometry
// and a real mid-run state blob, whose fixed sections (megabytes of
// cache state) every fuzz input patches instead of carrying.
type fuzzBase struct {
	core *Core
	blob []byte
	enc  []byte // EncodeState scratch
}

// stateSeeds returns real state blobs of sha on cfg — at boot, after a
// few thousand cycles and mid-run — and the mid-run fixture.
func stateSeeds(t testing.TB, cfg Config) ([][]byte, *fuzzBase) {
	t.Helper()
	spec, err := workload.Get("sha")
	if err != nil {
		t.Fatal(err)
	}
	img := buildImage(t, spec.Gen(3, 1), cfg.ISA)
	c := New(cfg, img.NewMemory(), img.Entry)
	var seeds [][]byte
	for _, at := range []uint64{0, 5000, 40000} {
		for c.Cycle < at && c.Step() {
		}
		seeds = append(seeds, c.EncodeState(nil))
	}
	return seeds, &fuzzBase{core: New(cfg, mem.New(img.RAM.Size()), 0), blob: seeds[2]}
}

// FuzzMicroState: DecodeState and DecodeStateDelta must refuse bad
// input with an error and never panic, and a blob either accepts must
// re-encode to the input byte for byte. An input is a config, a patch
// written at offset at of the config's mid-run blob (clipped to its
// fixed sections) and the variable-length tail that replaces the
// blob's: the fuzzer reaches every byte without carrying megabytes of
// cache state. The delta decode starts from the mid-run blob and is
// told the chunks the patch and the tail span. Seeded from real blobs
// of all four configs — each one's prefix and tail, a cache line
// record, a truncated tail — and a fetch queue claiming one entry more
// than its ring holds. Accepted blobs are not run: Step trusts the
// index fields of an engine-written state, and a persisted chain's
// digest vouches that an engine wrote it.
func FuzzMicroState(f *testing.F) {
	cfgs := Configs()
	bases := make([]*fuzzBase, len(cfgs))
	for i, cfg := range cfgs {
		seeds, b := stateSeeds(f, cfg)
		bases[i] = b
		c, ci := b.core, uint8(i)
		for _, s := range seeds {
			f.Add(ci, uint32(0), s[:c.prefixLen], s[c.tailOff:])
		}
		rec := c.l2.recOff(7)
		f.Add(ci, uint32(rec), b.blob[rec:c.l2.recOff(8)], b.blob[c.tailOff:])
		f.Add(ci, uint32(0), []byte(nil), b.blob[c.tailOff:len(b.blob)-9])
		for _, p := range b.nonCanonical(f) {
			f.Add(ci, uint32(p.at), p.patch, p.tail)
		}
	}
	f.Fuzz(func(t *testing.T, ci uint8, at uint32, patch, tail []byte) {
		b := bases[int(ci)%len(bases)]
		c := b.core
		off := int(at % uint32(c.tailOff))
		patch = patch[:min(len(patch), c.tailOff-off)]
		data := b.patched(off, patch, tail)
		errFull := c.DecodeState(data)
		if errFull == nil {
			if b.enc = c.EncodeState(b.enc[:0]); !bytes.Equal(b.enc, data) {
				t.Fatalf("%s: DecodeState accepted a blob that re-encodes differently", c.Cfg.Name)
			}
		}
		if err := c.DecodeState(b.blob); err != nil {
			t.Fatal(err)
		}
		chunks := ckpt.AppendChunks(nil, off, off+len(patch))
		chunks = ckpt.AppendChunks(chunks, c.tailOff, max(len(b.blob), len(data)))
		errDelta := c.DecodeStateDelta(data, chunks)
		if (errFull == nil) != (errDelta == nil) {
			t.Fatalf("%s: DecodeState says %v, DecodeStateDelta %v", c.Cfg.Name, errFull, errDelta)
		}
		if errDelta == nil {
			if b.enc = c.EncodeState(b.enc[:0]); !bytes.Equal(b.enc, data) {
				t.Fatalf("%s: DecodeStateDelta accepted a blob that re-encodes differently", c.Cfg.Name)
			}
		}
		if err := c.DecodeState(b.blob); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDecodeStateRefusesNonCanonical: on every config, each way of
// writing a state no encoder writes — a fetch queue one entry longer
// than its ring, a flag byte of 2 in the prefix or a cache line record,
// a widened varint, RAM taints out of order, repeated or zero — is an
// error on the full and the delta path, not a panic, a truncation or a
// silently normalized state.
func TestDecodeStateRefusesNonCanonical(t *testing.T) {
	for _, cfg := range Configs() {
		_, b := stateSeeds(t, cfg)
		c := b.core
		for name, p := range b.nonCanonical(t) {
			data := b.patched(p.at, p.patch, p.tail)
			if err := c.DecodeState(data); err == nil {
				t.Errorf("%s: DecodeState accepted %s", cfg.Name, name)
			}
			if err := c.DecodeState(b.blob); err != nil {
				t.Fatal(err)
			}
			chunks := ckpt.AppendChunks(nil, p.at, p.at+len(p.patch))
			chunks = ckpt.AppendChunks(chunks, c.tailOff, max(len(b.blob), len(data)))
			if err := c.DecodeStateDelta(data, chunks); err == nil {
				t.Errorf("%s: DecodeStateDelta accepted %s", cfg.Name, name)
			}
		}
	}
}

// statePatch is a fuzz input's blob: patch written at offset at of the
// fixture blob, whose tail is replaced by tail.
type statePatch struct {
	at          int
	patch, tail []byte
}

// patched builds a statePatch's blob.
func (b *fuzzBase) patched(at int, patch, tail []byte) []byte {
	data := slices.Concat(b.blob[:b.core.tailOff], tail)
	copy(data[at:], patch)
	return data
}

// nonCanonical returns the fixture blob rewritten in each way no
// encoder writes, by name.
func (b *fuzzBase) nonCanonical(t testing.TB) map[string]statePatch {
	t.Helper()
	c := b.core
	tail := b.blob[c.tailOff:]
	out := map[string]statePatch{
		"a long fetch queue":      {tail: longFetchQueue(t, c, b.blob)[c.tailOff:]},
		"fetchStall byte 2":       {at: statePCOffset + 8, patch: []byte{2}, tail: tail},
		"a line valid byte 2":     {at: c.l2.recOff(7), patch: []byte{2}, tail: tail},
		"a line dirty byte 2":     {at: c.l1d.recOff(3) + 1, patch: []byte{2}, tail: tail},
		"a widened free-list len": {tail: slices.Concat([]byte{tail[0] | 0x80, 0}, tail[1:])},
	}
	if tail[0] >= 0x80 {
		t.Fatal("free-list length takes more than one byte")
	}
	// Two RAM taints at addresses under 128, so each entry is an
	// address byte and a mask byte.
	if err := c.DecodeState(b.blob); err != nil {
		t.Fatal(err)
	}
	c.ram.taints[5], c.ram.taints[9] = 0x10, 0x20
	tainted := c.EncodeState(nil)[c.tailOff:]
	if err := c.DecodeState(b.blob); err != nil {
		t.Fatal(err)
	}
	p := 0
	for tail[p] == tainted[p] {
		p++
	}
	if !bytes.Equal(tainted[p:p+5], []byte{2, 5, 0x10, 9, 0x20}) || tail[p] != 0 {
		t.Fatalf("RAM taint section at tail offset %d: % x", p, tainted[p:p+5])
	}
	for name, entries := range map[string][]byte{
		"RAM taints out of order": {2, 9, 0x20, 5, 0x10},
		"a repeated RAM taint":    {2, 5, 0x10, 5, 0x10},
		"a zero RAM taint mask":   {2, 5, 0, 9, 0x20},
	} {
		out[name] = statePatch{tail: slices.Concat(tainted[:p], entries, tainted[p+5:])}
	}
	return out
}

// longFetchQueue rewrites blob's fetch queue to hold one entry more
// than c's ring, every other section well formed.
func longFetchQueue(t testing.TB, c *Core, blob []byte) []byte {
	t.Helper()
	tail := blob[c.tailOff:]
	skip := func() uint64 {
		v, n := binary.Uvarint(tail)
		tail = tail[n:]
		return v
	}
	for range 2 { // the free list, then the issue queue
		for n := skip(); n > 0; n-- {
			skip()
		}
	}
	at := len(blob) - len(tail)
	n := skip()
	var fe fetchEntry
	entry := appendFetch(nil, &fe)
	entries := tail[:int(n)*len(entry)]
	rest := tail[len(entries):]
	out := binary.AppendUvarint(append([]byte(nil), blob[:at]...), uint64(fqCap(&c.Cfg)+1))
	out = append(out, entries...)
	for range fqCap(&c.Cfg) + 1 - int(n) {
		out = append(out, entry...)
	}
	return append(out, rest...)
}

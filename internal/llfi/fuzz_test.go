package llfi

import (
	"bytes"
	"testing"

	"vulnstack/internal/tb"
)

// FuzzSoftState: the compiled machine's state decoder must refuse bad
// input with an error and never panic; a blob it accepts must re-encode
// to the input byte for byte and run from there without panicking.
// Seeded from every checkpoint of qsort's chain (up to eleven frames
// live) and their truncations.
func FuzzSoftState(f *testing.F) {
	cp := prepWith(f, "qsort", false)
	ch := cp.Chain()
	var blob []byte
	for i := range ch.Len() {
		blob = ch.StateAt(i, blob, i-1)
		f.Add(append([]byte(nil), blob...))
		f.Add(append([]byte(nil), blob[:len(blob)-8]...))
	}
	w := &worker{}
	cp.arena(w)
	mc := w.m.mc
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := mc.SetState(data, 0, cp.GoldenOut); err != nil {
			return
		}
		if got := mc.AppendState(nil); !bytes.Equal(got, data) {
			t.Fatalf("an accepted state re-encodes differently:\n got %x\nwant %x", got, data)
		}
		mc.MaxSteps = mc.Steps() + 2000
		if mc.MaxSteps < mc.Steps() {
			mc.MaxSteps = ^uint64(0)
		}
		mc.Run(tb.NoStop)
	})
}

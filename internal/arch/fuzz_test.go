package arch

import (
	"bytes"
	"testing"

	"vulnstack/internal/dev"
	"vulnstack/internal/isa"
)

// FuzzArchState: the persisted arch state codec — decodeArchState for
// the architectural fields, then the bus's SetDevice for the device
// section — must refuse bad input with an error and never panic, and a
// blob it accepts whole must re-encode to the input byte for byte.
// Seeded from every checkpoint of a real chain and their truncations.
func FuzzArchState(f *testing.F) {
	cp := prep(f, "sha", isa.VSA64)
	var blob []byte
	for i := range cp.chain.Len() {
		blob = cp.chain.StateAt(i, blob, i-1)
		f.Add(append([]byte(nil), blob...))
		f.Add(append([]byte(nil), blob[:len(blob)-1]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeArchState(data)
		if err != nil {
			return
		}
		var bus dev.Bus
		rest, err := bus.SetDevice(data[archFixedLen:])
		if err != nil || len(rest) != 0 {
			return
		}
		if got := appendArchState(nil, s, &bus); !bytes.Equal(got, data) {
			t.Fatalf("an accepted state re-encodes differently:\n got %x\nwant %x", got, data)
		}
	})
}

package dev

import (
	"encoding/binary"
	"fmt"
	"math"
)

// deviceFixedLen is the length of the device encoding's fixed-width
// fields: halt kind, exit, detect and panic codes, DMA source and
// length, and the DMA error flag.
const deviceFixedLen = 6*8 + 1

// DeviceLenRange returns the least and the greatest length of an
// AppendDevice encoding whose output and debug streams hold at most
// streams bytes in all (the greatest saturates at math.MaxUint64).
func DeviceLenRange(streams uint64) (lo, hi uint64) {
	const fixed = deviceFixedLen + 2*binary.MaxVarintLen64
	return deviceFixedLen + 2, fixed + min(streams, math.MaxUint64-fixed)
}

// AppendDevice appends a canonical encoding of the device-side state —
// exactly the StateEqual comparison set (halt ports, DMA registers and
// error flag, output and debug streams) — to dst and returns the
// result. Canonical means bytes-equal encodings ⟺ StateEqual buses, the
// property the checkpoint chain's chunk-wise convergence comparison
// relies on. Fixed-width fields come first so their chunk offsets are
// stable across checkpoints; the variable-length streams trail.
func (b *Bus) AppendDevice(dst []byte) []byte {
	var fixed [deviceFixedLen]byte
	binary.LittleEndian.PutUint64(fixed[0:], uint64(b.Halt))
	binary.LittleEndian.PutUint64(fixed[8:], b.ExitCode)
	binary.LittleEndian.PutUint64(fixed[16:], b.DetectCode)
	binary.LittleEndian.PutUint64(fixed[24:], b.PanicCode)
	binary.LittleEndian.PutUint64(fixed[32:], b.dmaSrc)
	binary.LittleEndian.PutUint64(fixed[40:], b.dmaLen)
	if b.DMAErr {
		fixed[48] = 1
	}
	dst = append(dst, fixed[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(b.Out)))
	dst = append(dst, b.Out...)
	dst = binary.AppendUvarint(dst, uint64(len(b.Dbg)))
	dst = append(dst, b.Dbg...)
	return dst
}

// SetDevice decodes an AppendDevice encoding into this bus, replacing
// its device-side state; RAM and Reader are untouched, since the caller
// restores its own memory and keeps its own snooper attached. It
// returns the remaining bytes after the encoding. Only AppendDevice's
// canonical bytes are accepted: an error flag other than 0 or 1, or a
// stream length not in its shortest varint form, is refused like a
// truncation.
func (b *Bus) SetDevice(data []byte) ([]byte, error) {
	if len(data) < deviceFixedLen {
		return nil, fmt.Errorf("dev: device state truncated (%d bytes)", len(data))
	}
	if data[48] > 1 {
		return nil, fmt.Errorf("dev: DMA error flag %d", data[48])
	}
	b.Halt = HaltKind(binary.LittleEndian.Uint64(data[0:]))
	b.ExitCode = binary.LittleEndian.Uint64(data[8:])
	b.DetectCode = binary.LittleEndian.Uint64(data[16:])
	b.PanicCode = binary.LittleEndian.Uint64(data[24:])
	b.dmaSrc = binary.LittleEndian.Uint64(data[32:])
	b.dmaLen = binary.LittleEndian.Uint64(data[40:])
	b.DMAErr = data[48] != 0
	data = data[deviceFixedLen:]
	for _, dst := range []*[]byte{&b.Out, &b.Dbg} {
		l, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < l {
			return nil, fmt.Errorf("dev: device stream truncated")
		}
		if n > 1 && data[n-1] == 0 {
			return nil, fmt.Errorf("dev: device stream length not in shortest form")
		}
		*dst = append((*dst)[:0], data[n:n+int(l)]...)
		data = data[n+int(l):]
	}
	return data, nil
}

package colseg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// buildBlock assembles one block with every encoding, rows wide.
func buildBlock(t *testing.T, rows int, r *rand.Rand) ([]byte, []uint8, []bool, []uint64, []int64, []string) {
	t.Helper()
	u8 := make([]uint8, rows)
	bits := make([]bool, rows)
	uv := make([]uint64, rows)
	zz := make([]int64, rows)
	ss := make([]string, rows)
	words := []string{"RF", "LSQ", "L2", "reg-uniform", ""}
	for i := 0; i < rows; i++ {
		u8[i] = uint8(r.Intn(256))
		bits[i] = r.Intn(2) == 1
		uv[i] = uint64(r.Int63())
		zz[i] = r.Int63() - r.Int63()
		ss[i] = words[r.Intn(len(words))]
	}
	b := NewBuilder(rows)
	b.U8(0, u8)
	b.Bits(1, bits)
	b.Uvarint(2, uv)
	b.Zigzag(3, zz)
	b.Dict(4, ss)
	return b.AppendTo(nil), u8, bits, uv, zz, ss
}

func TestBlockRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, rows := range []int{0, 1, 7, 8, 9, 1000} {
		data, u8, bits, uv, zz, ss := buildBlock(t, rows, r)
		blk, n, err := Parse(data)
		if err != nil || n != len(data) {
			t.Fatalf("rows=%d: parse consumed %d/%d, err=%v", rows, n, len(data), err)
		}
		if blk.Rows() != rows {
			t.Fatalf("rows=%d: got %d", rows, blk.Rows())
		}
		gotU8, err := blk.U8(0)
		if err != nil || !bytes.Equal(gotU8, u8) {
			t.Fatalf("u8 mismatch: %v", err)
		}
		gotBits, err := blk.Bits(1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range bits {
			if gotBits[i] != bits[i] {
				t.Fatalf("bit %d mismatch", i)
			}
		}
		gotUv, err := blk.Uvarint(2)
		if err != nil {
			t.Fatal(err)
		}
		gotZz, err := blk.Zigzag(3)
		if err != nil {
			t.Fatal(err)
		}
		gotSs, err := blk.Dict(4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if gotUv[i] != uv[i] || gotZz[i] != zz[i] || gotSs[i] != ss[i] {
				t.Fatalf("row %d: (%d,%d,%q) != (%d,%d,%q)", i, gotUv[i], gotZz[i], gotSs[i], uv[i], zz[i], ss[i])
			}
		}
	}
}

func TestZigzagExtremes(t *testing.T) {
	vals := []int64{0, 1, -1, 1<<63 - 1, -1 << 63, 42, -42}
	b := NewBuilder(len(vals))
	b.Zigzag(9, vals)
	blk, _, err := Parse(b.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := blk.Zigzag(9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("zigzag %d -> %d", vals[i], got[i])
		}
	}
}

func TestDictDeterministic(t *testing.T) {
	// Encoding must be byte-identical across runs: the dictionary is
	// built in first-occurrence order, not map order.
	ss := []string{"b", "a", "b", "c", "a", "c", "c"}
	mk := func() []byte {
		b := NewBuilder(len(ss))
		b.Dict(0, ss)
		return b.AppendTo(nil)
	}
	if !bytes.Equal(mk(), mk()) {
		t.Fatal("dict encoding is not deterministic")
	}
}

func TestParseMulti(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	d1, _, _, _, _, _ := buildBlock(t, 10, r)
	d2, _, _, _, _, _ := buildBlock(t, 20, r)
	data := append(append([]byte(nil), d1...), d2...)
	b1, n1, err := Parse(data)
	if err != nil || b1.Rows() != 10 {
		t.Fatalf("block 1: %v", err)
	}
	b2, n2, err := Parse(data[n1:])
	if err != nil || b2.Rows() != 20 || n1+n2 != len(data) {
		t.Fatalf("block 2: %v", err)
	}
	if _, _, err := Parse(data[n1+n2:]); err != io.EOF {
		t.Fatalf("end: %v", err)
	}
}

func TestReaderStream(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var data []byte
	want := []int{5, 100, 1}
	for _, rows := range want {
		d, _, _, _, _, _ := buildBlock(t, rows, r)
		data = append(data, d...)
	}
	rd := NewReader(bytes.NewReader(data))
	for i, rows := range want {
		blk, err := rd.Next()
		if err != nil || blk.Rows() != rows {
			t.Fatalf("block %d: rows=%v err=%v", i, blk, err)
		}
		if _, err := blk.U8(0); err != nil {
			t.Fatalf("block %d columns: %v", i, err)
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("clean end must be io.EOF, got %v", err)
	}
}

func TestTruncation(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	data, _, _, _, _, _ := buildBlock(t, 50, r)
	for _, cut := range []int{1, 4, 5, 6, len(data) / 2, len(data) - 1} {
		if _, _, err := Parse(data[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut=%d: Parse err=%v, want ErrTruncated", cut, err)
		}
		rd := NewReader(bytes.NewReader(data[:cut]))
		if _, err := rd.Next(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut=%d: Reader err=%v, want ErrTruncated", cut, err)
		}
	}
}

func TestVersionMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	data, _, _, _, _, _ := buildBlock(t, 3, r)
	data[4] = Version + 1
	if _, _, err := Parse(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("Parse err=%v, want ErrVersion", err)
	}
	if _, err := NewReader(bytes.NewReader(data)).Next(); !errors.Is(err, ErrVersion) {
		t.Fatalf("Reader err=%v, want ErrVersion", err)
	}
}

func TestBadMagic(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	data, _, _, _, _, _ := buildBlock(t, 3, r)
	data[0] = 'X'
	if _, _, err := Parse(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Parse err=%v, want ErrCorrupt", err)
	}
}

func TestMissingAndMistypedColumn(t *testing.T) {
	b := NewBuilder(2)
	b.U8(7, []uint8{1, 2})
	blk, _, err := Parse(b.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blk.U8(8); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing column err=%v", err)
	}
	if _, err := blk.Bits(7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mistyped column err=%v", err)
	}
}

// frame wraps a raw block body in a valid frame header.
func frame(body []byte) []byte {
	data := append(magic[:], Version)
	data = binary.AppendUvarint(data, uint64(len(body)))
	return append(data, body...)
}

func TestCorruptCountsRejected(t *testing.T) {
	// Row and column counts are read from the bytes themselves; a corrupt
	// count must fail as ErrCorrupt before it can size an allocation.
	var hugeCols []byte
	hugeCols = binary.AppendUvarint(hugeCols, 3)     // rows
	hugeCols = binary.AppendUvarint(hugeCols, 1<<60) // ncols
	if _, _, err := Parse(frame(hugeCols)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("column count 2^60: err=%v, want ErrCorrupt", err)
	}
	for _, rows := range []uint64{1 << 40, 1<<64 - 1} {
		var body []byte
		body = binary.AppendUvarint(body, rows)
		body = binary.AppendUvarint(body, 3) // ncols
		for id, enc := range []Enc{EncUvarint, EncDict, EncBits} {
			body = append(body, uint8(id), uint8(enc), 1)
		}
		body = append(body, 0, 0, 0)
		blk, _, err := Parse(frame(body))
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				continue // rows beyond int: rejected at parse
			}
			t.Fatalf("rows %d: Parse err=%v", rows, err)
		}
		if _, err := blk.Uvarint(0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("rows %d: Uvarint err=%v, want ErrCorrupt", rows, err)
		}
		if _, err := blk.Dict(1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("rows %d: Dict err=%v, want ErrCorrupt", rows, err)
		}
		if _, err := blk.Bits(2); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("rows %d: Bits err=%v, want ErrCorrupt", rows, err)
		}
	}
	// A frame claiming a 2 GiB body over a few bytes is truncated, not
	// read into a 2 GiB buffer.
	head := binary.AppendUvarint(append(magic[:], Version), 1<<31)
	if _, err := NewReader(bytes.NewReader(append(head, 1, 2, 3))).Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("oversized length: err=%v, want ErrTruncated", err)
	}
}

// TestCanonical: Canonical accepts exactly a Builder's block for the
// given layout, and refuses the same values in any other form Parse
// still accepts, or with bytes after the block.
func TestCanonical(t *testing.T) {
	layout := []Col{{2, EncUvarint}, {5, EncBlob}}
	build := func() []byte {
		b := NewBuilder(3)
		b.Uvarint(2, []uint64{1, 300, 0})
		b.Blob(5, [][]byte{[]byte("ab"), nil, []byte("c")})
		return b.AppendTo(nil)
	}
	if !Canonical(build(), layout...) {
		t.Fatal("a Builder's block is not canonical")
	}
	if Canonical(build(), layout[:1]...) || Canonical(build(), layout[1], layout[0]) ||
		Canonical(build(), Col{2, EncUvarint}, Col{5, EncU8}) {
		t.Fatal("a block is canonical for another layout")
	}
	if Canonical(append(build(), 0), layout...) {
		t.Fatal("a block with a trailing byte is canonical")
	}
	// The frame length widened by a byte: 0x80|low bits, then 0.
	wide := build()
	n := wide[5]
	wide = append(append(wide[:5:5], n|0x80, 0), wide[6:]...)
	if _, _, err := Parse(wide); err != nil {
		t.Fatalf("widened frame length does not parse: %v", err)
	}
	if Canonical(wide, layout...) {
		t.Fatal("a widened frame length is canonical")
	}
	// A byte after the payloads, inside the frame.
	long := append(build(), 0)
	long[5]++
	if Canonical(long, layout...) {
		t.Fatal("a block with a byte after its payloads is canonical")
	}
	extra := NewBuilder(3)
	extra.Uvarint(2, []uint64{1, 300, 0})
	extra.Blob(5, [][]byte{[]byte("ab"), nil, []byte("c")})
	extra.U8(9, []uint8{1, 2, 3})
	if Canonical(extra.AppendTo(nil), layout...) {
		t.Fatal("a block with an extra column is canonical")
	}
}

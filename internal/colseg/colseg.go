// Package colseg implements the binary columnar block format under the
// persistent results store: append-only segments of self-framed blocks,
// each holding one batch of records as per-column arrays. The package
// is deliberately record-agnostic — it knows byte columns, bitsets,
// varint columns and dictionary-coded string columns, not fault
// records — so the schema mapping lives with the record type
// (internal/results) while the wire format stays reusable.
//
// # Wire format
//
// A segment is a concatenation of framed blocks:
//
//	magic   [4]byte  "VCSB"
//	version uint8    block-format version (Version); mismatches reject
//	length  uvarint  byte length of the body that follows
//	body    [length]byte
//
// and a body is:
//
//	rows    uvarint
//	ncols   uvarint
//	dir     ncols × { id uint8, enc uint8, size uvarint }
//	payload concatenated column payloads, in directory order
//
// Column payloads by encoding:
//
//	EncU8      one byte per row
//	EncBits    a bitset, (rows+7)/8 bytes, row i at byte i>>3 bit i&7
//	EncUvarint one unsigned varint per row
//	EncZigzag  one zigzag-folded varint per row (signed values)
//	EncDict    uvarint ndict, ndict × { uvarint len, bytes }, then one
//	           uvarint dictionary index per row
//	EncBlob    one { uvarint len, bytes } per row (opaque byte blobs,
//	           used by the checkpoint-chain segments for page contents
//	           and machine-state deltas)
//
// The framing length makes blocks skippable and stream-readable without
// parsing their directories; the directory makes column reads lazy, so
// a consumer that only aggregates outcomes never decodes coordinate or
// string columns at all (the pushed-down-projection property the
// streaming aggregators rely on).
package colseg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Version is the block-format version. Readers reject blocks written by
// a different version loudly rather than misdecoding them.
const Version = 1

var magic = [4]byte{'V', 'C', 'S', 'B'}

// Enc identifies a column payload encoding.
type Enc uint8

const (
	EncU8 Enc = iota
	EncBits
	EncUvarint
	EncZigzag
	EncDict
	EncBlob
	numEnc
)

// Errors distinguishing the failure classes callers handle differently:
// a truncated tail block (a crashed append — ignorable once the
// manifest-promised rows were served) versus a version or structural
// mismatch (never ignorable).
var (
	// ErrTruncated reports a block cut short mid-frame: the segment ends
	// inside a header or body. A crashed append leaves exactly this.
	ErrTruncated = errors.New("colseg: truncated block")
	// ErrVersion reports a block written by a different format version.
	ErrVersion = errors.New("colseg: block version mismatch")
	// ErrCorrupt reports a structurally invalid block.
	ErrCorrupt = errors.New("colseg: corrupt block")
)

// Builder assembles one block. Columns are appended in call order; ids
// must be unique within a block and every column must cover exactly the
// row count the builder was created with. Payloads are written straight
// into one buffer, and AppendTo copies it once more, into dst.
type Builder struct {
	rows int
	dir  []byte // id, enc, size triples (sizes uvarint-encoded)
	pay  []byte
	n    int
}

// NewBuilder starts a block of the given row count.
func NewBuilder(rows int) *Builder {
	return &Builder{rows: rows}
}

// add records the directory entry of the column whose payload was
// appended to b.pay from offset start on.
func (b *Builder) add(id uint8, enc Enc, start int) {
	b.dir = append(b.dir, id, uint8(enc))
	b.dir = binary.AppendUvarint(b.dir, uint64(len(b.pay)-start))
	b.n++
}

// U8 adds a one-byte-per-row column. len(vals) must equal the row count.
func (b *Builder) U8(id uint8, vals []uint8) {
	start := len(b.pay)
	b.pay = append(b.pay, vals...)
	b.add(id, EncU8, start)
}

// Bits adds a boolean column stored as a bitset.
func (b *Builder) Bits(id uint8, vals []bool) {
	start := len(b.pay)
	b.pay = append(b.pay, make([]byte, (len(vals)+7)/8)...)
	set := b.pay[start:]
	for i, v := range vals {
		if v {
			set[i>>3] |= 1 << (i & 7)
		}
	}
	b.add(id, EncBits, start)
}

// Uvarint adds an unsigned varint column.
func (b *Builder) Uvarint(id uint8, vals []uint64) {
	start := len(b.pay)
	for _, v := range vals {
		b.pay = binary.AppendUvarint(b.pay, v)
	}
	b.add(id, EncUvarint, start)
}

// Zigzag adds a signed varint column (zigzag-folded).
func (b *Builder) Zigzag(id uint8, vals []int64) {
	start := len(b.pay)
	for _, v := range vals {
		b.pay = binary.AppendUvarint(b.pay, zigzag(v))
	}
	b.add(id, EncZigzag, start)
}

// Dict adds a dictionary-coded string column. The dictionary is built
// in first-occurrence order, so encoding is deterministic.
func (b *Builder) Dict(id uint8, vals []string) {
	idx := make(map[string]uint64, 4)
	var dict []string
	for _, v := range vals {
		if _, ok := idx[v]; !ok {
			idx[v] = uint64(len(dict))
			dict = append(dict, v)
		}
	}
	start := len(b.pay)
	b.pay = binary.AppendUvarint(b.pay, uint64(len(dict)))
	for _, d := range dict {
		b.pay = binary.AppendUvarint(b.pay, uint64(len(d)))
		b.pay = append(b.pay, d...)
	}
	for _, v := range vals {
		b.pay = binary.AppendUvarint(b.pay, idx[v])
	}
	b.add(id, EncDict, start)
}

// Blob adds an opaque per-row byte-blob column (length-prefixed rows).
func (b *Builder) Blob(id uint8, vals [][]byte) {
	n := 0
	for _, v := range vals {
		n += binary.MaxVarintLen64 + len(v)
	}
	b.pay = slices.Grow(b.pay, n)
	start := len(b.pay)
	for _, v := range vals {
		b.pay = binary.AppendUvarint(b.pay, uint64(len(v)))
		b.pay = append(b.pay, v...)
	}
	b.add(id, EncBlob, start)
}

// AppendTo appends the framed block to dst and returns the result,
// growing dst at most once.
func (b *Builder) AppendTo(dst []byte) []byte {
	var counts, frame [2 * binary.MaxVarintLen64]byte
	c := binary.AppendUvarint(counts[:0], uint64(b.rows))
	c = binary.AppendUvarint(c, uint64(b.n))
	body := len(c) + len(b.dir) + len(b.pay)
	f := binary.AppendUvarint(append(append(frame[:0], magic[:]...), Version), uint64(body))
	dst = slices.Grow(dst, len(f)+body)
	dst = append(dst, f...)
	dst = append(dst, c...)
	dst = append(dst, b.dir...)
	return append(dst, b.pay...)
}

// col is one directory entry of a parsed block.
type col struct {
	id   uint8
	enc  Enc
	data []byte
}

// Block is one parsed block. Column payloads are referenced, not
// decoded: accessors materialize a column only when asked for it.
type Block struct {
	rows int
	cols []col
}

// Rows returns the block's record count.
func (b *Block) Rows() int { return b.rows }

func (b *Block) find(id uint8, enc Enc) ([]byte, error) {
	for _, c := range b.cols {
		if c.id != id {
			continue
		}
		if c.enc != enc {
			return nil, fmt.Errorf("%w: column %d has encoding %d, want %d", ErrCorrupt, id, c.enc, enc)
		}
		return c.data, nil
	}
	return nil, fmt.Errorf("%w: column %d missing", ErrCorrupt, id)
}

// rowBytes returns the payload of a column that spends at least one
// byte per row, rejecting it when it is too short to hold the block's
// rows — so a corrupt row count can never size an allocation.
func (b *Block) rowBytes(id uint8, enc Enc) ([]byte, error) {
	data, err := b.find(id, enc)
	if err != nil {
		return nil, err
	}
	if len(data) < b.rows {
		return nil, fmt.Errorf("%w: column %d has %d bytes for %d rows", ErrCorrupt, id, len(data), b.rows)
	}
	return data, nil
}

// U8 decodes a one-byte-per-row column.
func (b *Block) U8(id uint8) ([]uint8, error) {
	data, err := b.find(id, EncU8)
	if err != nil {
		return nil, err
	}
	if len(data) != b.rows {
		return nil, fmt.Errorf("%w: u8 column %d has %d bytes for %d rows", ErrCorrupt, id, len(data), b.rows)
	}
	return data, nil
}

// Bits decodes a bitset column into per-row booleans.
func (b *Block) Bits(id uint8) ([]bool, error) {
	data, err := b.find(id, EncBits)
	if err != nil {
		return nil, err
	}
	if len(data) != (b.rows+7)/8 {
		return nil, fmt.Errorf("%w: bitset column %d has %d bytes for %d rows", ErrCorrupt, id, len(data), b.rows)
	}
	out := make([]bool, b.rows)
	for i := range out {
		out[i] = data[i>>3]&(1<<(i&7)) != 0
	}
	return out, nil
}

// Uvarint decodes an unsigned varint column.
func (b *Block) Uvarint(id uint8) ([]uint64, error) {
	data, err := b.rowBytes(id, EncUvarint)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, b.rows)
	for i := range out {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("%w: uvarint column %d row %d", ErrCorrupt, id, i)
		}
		out[i] = v
		data = data[n:]
	}
	return out, nil
}

// Zigzag decodes a signed varint column.
func (b *Block) Zigzag(id uint8) ([]int64, error) {
	data, err := b.rowBytes(id, EncZigzag)
	if err != nil {
		return nil, err
	}
	out := make([]int64, b.rows)
	for i := range out {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("%w: zigzag column %d row %d", ErrCorrupt, id, i)
		}
		out[i] = unzigzag(v)
		data = data[n:]
	}
	return out, nil
}

// Dict decodes a dictionary-coded string column into per-row values.
func (b *Block) Dict(id uint8) ([]string, error) {
	data, err := b.find(id, EncDict)
	if err != nil {
		return nil, err
	}
	nd, n := binary.Uvarint(data)
	if n <= 0 || nd > uint64(len(data)) {
		return nil, fmt.Errorf("%w: dict column %d header", ErrCorrupt, id)
	}
	data = data[n:]
	dict := make([]string, nd)
	for i := range dict {
		l, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < l {
			return nil, fmt.Errorf("%w: dict column %d entry %d", ErrCorrupt, id, i)
		}
		dict[i] = string(data[n : n+int(l)])
		data = data[n+int(l):]
	}
	if len(data) < b.rows {
		return nil, fmt.Errorf("%w: dict column %d has %d index bytes for %d rows", ErrCorrupt, id, len(data), b.rows)
	}
	out := make([]string, b.rows)
	for i := range out {
		v, n := binary.Uvarint(data)
		if n <= 0 || v >= nd {
			return nil, fmt.Errorf("%w: dict column %d row %d", ErrCorrupt, id, i)
		}
		out[i] = dict[v]
		data = data[n:]
	}
	return out, nil
}

// Blob decodes an opaque byte-blob column. Returned rows alias the
// block's payload and must not be mutated.
func (b *Block) Blob(id uint8) ([][]byte, error) {
	data, err := b.rowBytes(id, EncBlob)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, b.rows)
	for i := range out {
		l, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < l {
			return nil, fmt.Errorf("%w: blob column %d row %d", ErrCorrupt, id, i)
		}
		out[i] = data[n : n+int(l)]
		data = data[n+int(l):]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: blob column %d has %d trailing bytes", ErrCorrupt, id, len(data))
	}
	return out, nil
}

// parseBody parses a block body (everything after the frame header).
func parseBody(body []byte) (*Block, error) {
	rows, n := binary.Uvarint(body)
	if n <= 0 || rows > math.MaxInt {
		return nil, fmt.Errorf("%w: row count", ErrCorrupt)
	}
	body = body[n:]
	ncols, n := binary.Uvarint(body)
	// A directory entry takes at least three bytes.
	if n <= 0 || ncols > uint64(len(body)-n)/3 {
		return nil, fmt.Errorf("%w: column count", ErrCorrupt)
	}
	body = body[n:]
	blk := &Block{rows: int(rows), cols: make([]col, 0, ncols)}
	sizes := make([]uint64, 0, ncols)
	for i := uint64(0); i < ncols; i++ {
		if len(body) < 2 {
			return nil, fmt.Errorf("%w: directory entry %d", ErrCorrupt, i)
		}
		id, enc := body[0], Enc(body[1])
		if enc >= numEnc {
			return nil, fmt.Errorf("%w: column %d encoding %d", ErrCorrupt, id, enc)
		}
		body = body[2:]
		size, n := binary.Uvarint(body)
		if n <= 0 {
			return nil, fmt.Errorf("%w: directory size %d", ErrCorrupt, i)
		}
		body = body[n:]
		blk.cols = append(blk.cols, col{id: id, enc: enc})
		sizes = append(sizes, size)
	}
	for i := range blk.cols {
		if uint64(len(body)) < sizes[i] {
			return nil, fmt.Errorf("%w: column %d payload", ErrCorrupt, blk.cols[i].id)
		}
		blk.cols[i].data = body[:sizes[i]]
		body = body[sizes[i]:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing body bytes", ErrCorrupt, len(body))
	}
	return blk, nil
}

// Parse parses the first framed block of data and returns it with the
// number of bytes consumed. io.EOF is returned on empty input and
// ErrTruncated when data ends mid-frame.
func Parse(data []byte) (*Block, int, error) {
	if len(data) == 0 {
		return nil, 0, io.EOF
	}
	if len(data) < len(magic)+1 {
		return nil, 0, ErrTruncated
	}
	if [4]byte(data[:4]) != magic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if data[4] != Version {
		return nil, 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, data[4], Version)
	}
	length, n := binary.Uvarint(data[5:])
	if n <= 0 {
		return nil, 0, ErrTruncated
	}
	head := 5 + n
	if uint64(len(data)-head) < length {
		return nil, 0, ErrTruncated
	}
	blk, err := parseBody(data[head : head+int(length)])
	if err != nil {
		return nil, 0, err
	}
	return blk, head + int(length), nil
}

// Col names one column of a block's layout: its id and encoding.
type Col struct {
	ID  uint8
	Enc Enc
}

// Canonical reports whether data is exactly one framed block in the
// form a Builder writes with the given columns, in that order, and no
// others: every varint (the frame length, the row and column counts,
// the directory sizes, each value and each blob length) in its shortest
// form, and each column payload holding exactly the block's rows and
// nothing after them. Parse accepts the other forms of the same values,
// so a format that must have one persisted form per value checks this
// after it. It reads data without building anything. Only EncUvarint
// and EncBlob columns have a layout here; any other encoding is refused.
func Canonical(data []byte, cols ...Col) bool {
	if len(data) < len(magic)+1 || [4]byte(data[:4]) != magic || data[4] != Version {
		return false
	}
	b := data[5:]
	length, ok := shortest(&b)
	if !ok || length != uint64(len(b)) {
		return false
	}
	rows, ok := shortest(&b)
	if !ok {
		return false
	}
	if ncols, ok := shortest(&b); !ok || ncols != uint64(len(cols)) {
		return false
	}
	sizes := b
	for _, c := range cols {
		if len(b) < 2 || b[0] != c.ID || Enc(b[1]) != c.Enc {
			return false
		}
		b = b[2:]
		if _, ok := shortest(&b); !ok {
			return false
		}
	}
	for _, c := range cols {
		sizes = sizes[2:]
		size, _ := shortest(&sizes)
		if size > uint64(len(b)) {
			return false
		}
		pay := b[:size]
		b = b[size:]
		for range rows {
			v, ok := shortest(&pay)
			if !ok {
				return false
			}
			switch {
			case c.Enc == EncBlob && v <= uint64(len(pay)):
				pay = pay[v:]
			case c.Enc != EncUvarint:
				return false
			}
		}
		if len(pay) != 0 {
			return false
		}
	}
	return len(b) == 0
}

// shortest reads one varint from *b in its shortest form, advancing *b
// past it; ok is false when *b holds none.
func shortest(b *[]byte) (v uint64, ok bool) {
	v, n := binary.Uvarint(*b)
	if n <= 0 || n > 1 && (*b)[n-1] == 0 {
		return 0, false
	}
	*b = (*b)[n:]
	return v, true
}

// Reader streams framed blocks from an io.Reader with one reusable
// body buffer, so memory stays bounded by the largest block rather than
// the segment (the o(segment)-memory property of cursor aggregation).
type Reader struct {
	r   io.Reader
	buf []byte
}

// NewReader wraps r for block-at-a-time reads.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next reads the next block. io.EOF marks a clean segment end (at a
// frame boundary); ErrTruncated an end inside a frame. The returned
// block aliases the reader's internal buffer and is invalidated by the
// following Next call.
func (r *Reader) Next() (*Block, error) {
	var head [5]byte
	if _, err := io.ReadFull(r.r, head[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, ErrTruncated
	}
	if [4]byte(head[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if head[4] != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, head[4], Version)
	}
	length, err := readUvarint(r.r)
	if err != nil {
		return nil, ErrTruncated
	}
	if length > 1<<31 {
		return nil, fmt.Errorf("%w: block length %d", ErrCorrupt, length)
	}
	// Grow the buffer only as body bytes arrive, so a corrupt length
	// cannot allocate far beyond the bytes the stream actually holds.
	body := r.buf[:0]
	for uint64(len(body)) < length {
		chunk := int(min(length-uint64(len(body)), 1<<20))
		body = slices.Grow(body, chunk)
		m, err := io.ReadFull(r.r, body[len(body):len(body)+chunk])
		body = body[:len(body)+m]
		if err != nil {
			return nil, ErrTruncated
		}
	}
	r.buf = body
	return parseBody(body)
}

// readUvarint reads a varint byte-at-a-time from a plain io.Reader.
func readUvarint(r io.Reader) (uint64, error) {
	var v uint64
	var b [1]byte
	for shift := uint(0); shift < 64; shift += 7 {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, err
		}
		v |= uint64(b[0]&0x7F) << shift
		if b[0] < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("%w: varint overflow", ErrCorrupt)
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

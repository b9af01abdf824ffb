// Columnar record plane: the binary per-column segment layout behind
// the persistent store, plus the streaming cursor that re-aggregates
// stored campaigns at memory-bandwidth speed. One Record column maps to
// one colseg column; blocks hold up to BlockRows records, so cursor
// memory is bounded by one block regardless of campaign size, and a
// consumer that only tallies outcomes never decodes the coordinate,
// entry or target columns at all (projection pushdown). JSONL is the
// interchange/debug format: WriteJSONL/ReadJSONL convert record slices
// losslessly both ways, and the store's export path streams it.
package results

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"vulnstack/internal/colseg"
	"vulnstack/internal/micro"
)

// Record column ids in the columnar segment format. The set is fixed
// per schema (SchemaVersion): every block carries every column, and a
// block missing one is corrupt, so readers never guess at absent
// fields.
const (
	colIndex   uint8 = iota // zigzag: first row absolute, then gap to previous row
	colLayer                // u8
	colTarget               // dict
	colCoord                // uvarint
	colEntry                // zigzag
	colBit                  // zigzag
	colSlot                 // zigzag
	colOutcome              // u8
	colVisible              // bits
	colFPM                  // u8
	colContact              // uvarint
	colLive                 // bits
	colEarly                // bits
	colStratum              // dict: stratified-campaign class label (schema v2)
	colStatic               // bits: statically resolved, no injector run (schema v3)
)

// BlockRows is the record batch size of one columnar block: large
// enough to amortize headers, small enough that a cursor's working set
// (one decoded block) stays far below the campaign it streams.
const BlockRows = 1 << 16

// appendColumnarBlock encodes recs (at most BlockRows of them per call
// at the store layer; any length is legal) as one framed block.
func appendColumnarBlock(dst []byte, recs []Record) []byte {
	n := len(recs)
	idx := make([]int64, n)
	layer := make([]uint8, n)
	target := make([]string, n)
	coord := make([]uint64, n)
	entry := make([]int64, n)
	bit := make([]int64, n)
	slot := make([]int64, n)
	outcome := make([]uint8, n)
	visible := make([]bool, n)
	fpm := make([]uint8, n)
	contact := make([]uint64, n)
	live := make([]bool, n)
	early := make([]bool, n)
	stratum := make([]string, n)
	static := make([]bool, n)
	prev := int64(0)
	for i, r := range recs {
		if i == 0 {
			idx[i] = int64(r.Index)
		} else {
			idx[i] = int64(r.Index) - prev - 1 // 0 for the contiguous common case
		}
		prev = int64(r.Index)
		layer[i] = uint8(r.Layer)
		target[i] = r.Target
		coord[i] = r.Coord
		entry[i] = int64(r.Entry)
		bit[i] = int64(r.Bit)
		slot[i] = int64(r.Slot)
		outcome[i] = uint8(r.Outcome)
		visible[i] = r.Visible
		fpm[i] = uint8(r.FPM)
		contact[i] = r.Contact
		live[i] = r.Live
		early[i] = r.EarlyStop
		stratum[i] = r.Stratum
		static[i] = r.StaticResolved
	}
	b := colseg.NewBuilder(n)
	b.Zigzag(colIndex, idx)
	b.U8(colLayer, layer)
	b.Dict(colTarget, target)
	b.Uvarint(colCoord, coord)
	b.Zigzag(colEntry, entry)
	b.Zigzag(colBit, bit)
	b.Zigzag(colSlot, slot)
	b.U8(colOutcome, outcome)
	b.Bits(colVisible, visible)
	b.U8(colFPM, fpm)
	b.Uvarint(colContact, contact)
	b.Bits(colLive, live)
	b.Bits(colEarly, early)
	b.Dict(colStratum, stratum)
	b.Bits(colStatic, static)
	return b.AppendTo(dst)
}

// encodeColumnar encodes recs as a sequence of BlockRows-sized blocks.
func encodeColumnar(recs []Record) []byte {
	var dst []byte
	for len(recs) > 0 {
		n := len(recs)
		if n > BlockRows {
			n = BlockRows
		}
		dst = appendColumnarBlock(dst, recs[:n])
		recs = recs[n:]
	}
	return dst
}

// enumColumn decodes a one-byte enum column and rejects any value at or
// above limit. A flipped byte must surface as corruption: taken as is
// it would panic TallyOf and String, and folded into range it would be
// silently counted as some valid class.
func enumColumn(b *colseg.Block, id uint8, limit int, what string) ([]uint8, error) {
	col, err := b.U8(id)
	if err != nil {
		return nil, err
	}
	for i, v := range col {
		if int(v) >= limit {
			return nil, fmt.Errorf("%w: %s %d at row %d", colseg.ErrCorrupt, what, v, i)
		}
	}
	return col, nil
}

// blockRecords fully decodes a block back into records (the Load and
// export paths; aggregation never takes this route).
func blockRecords(b *colseg.Block, dst []Record) ([]Record, error) {
	idx, err := b.Zigzag(colIndex)
	if err != nil {
		return nil, err
	}
	layer, err := enumColumn(b, colLayer, int(NumLayers), "layer")
	if err != nil {
		return nil, err
	}
	target, err := b.Dict(colTarget)
	if err != nil {
		return nil, err
	}
	coord, err := b.Uvarint(colCoord)
	if err != nil {
		return nil, err
	}
	entry, err := b.Zigzag(colEntry)
	if err != nil {
		return nil, err
	}
	bit, err := b.Zigzag(colBit)
	if err != nil {
		return nil, err
	}
	slot, err := b.Zigzag(colSlot)
	if err != nil {
		return nil, err
	}
	outcome, err := enumColumn(b, colOutcome, int(NumOutcomes), "outcome")
	if err != nil {
		return nil, err
	}
	visible, err := b.Bits(colVisible)
	if err != nil {
		return nil, err
	}
	fpm, err := enumColumn(b, colFPM, int(micro.NumFPM), "FPM")
	if err != nil {
		return nil, err
	}
	contact, err := b.Uvarint(colContact)
	if err != nil {
		return nil, err
	}
	live, err := b.Bits(colLive)
	if err != nil {
		return nil, err
	}
	early, err := b.Bits(colEarly)
	if err != nil {
		return nil, err
	}
	stratum, err := b.Dict(colStratum)
	if err != nil {
		return nil, err
	}
	static, err := b.Bits(colStatic)
	if err != nil {
		return nil, err
	}
	prev := int64(0)
	for i := 0; i < b.Rows(); i++ {
		index := idx[i]
		if i > 0 {
			index += prev + 1
		}
		prev = index
		dst = append(dst, Record{
			Index:          int(index),
			Layer:          Layer(layer[i]),
			Target:         target[i],
			Coord:          coord[i],
			Entry:          int(entry[i]),
			Bit:            int(bit[i]),
			Slot:           int(slot[i]),
			Outcome:        Outcome(outcome[i]),
			Visible:        visible[i],
			FPM:            micro.FPM(fpm[i]),
			Contact:        contact[i],
			Live:           live[i],
			EarlyStop:      early[i],
			Stratum:        stratum[i],
			StaticResolved: static[i],
		})
	}
	return dst, nil
}

// Filter is a pushed-down record predicate: the cursor decodes only the
// columns a non-empty field needs, and aggregation counts only matching
// rows. The zero value matches every record.
type Filter struct {
	// Outcomes restricts to the listed outcome classes (empty: all).
	Outcomes []Outcome
	// FPMs restricts to the listed fault-propagation models (empty: all).
	FPMs []micro.FPM
	// Targets restricts to the listed targets — structure names at the
	// micro layer, FPM names or reg-uniform at the arch layer (empty:
	// all).
	Targets []string
	// BitRange, when true, restricts to BitLo <= Record.Bit <= BitHi.
	BitRange     bool
	BitLo, BitHi int
}

// Empty reports whether the filter matches everything.
func (f Filter) Empty() bool {
	return len(f.Outcomes) == 0 && len(f.FPMs) == 0 && len(f.Targets) == 0 && !f.BitRange
}

// Match is the reference (row-at-a-time) semantics of the filter. The
// columnar cursor must agree with it exactly; tests enforce that.
func (f Filter) Match(r Record) bool {
	if len(f.Outcomes) > 0 && !containsOutcome(f.Outcomes, r.Outcome) {
		return false
	}
	if len(f.FPMs) > 0 && !containsFPM(f.FPMs, r.FPM) {
		return false
	}
	if len(f.Targets) > 0 && !containsString(f.Targets, r.Target) {
		return false
	}
	if f.BitRange && (r.Bit < f.BitLo || r.Bit > f.BitHi) {
		return false
	}
	return true
}

func containsOutcome(s []Outcome, v Outcome) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func containsFPM(s []micro.FPM, v micro.FPM) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func containsString(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// ParseOutcome inverts Outcome.String (the results CLI filter surface).
func ParseOutcome(name string) (Outcome, error) {
	for o := Outcome(0); o < NumOutcomes; o++ {
		if strings.EqualFold(o.String(), name) {
			return o, nil
		}
	}
	return 0, fmt.Errorf("results: unknown outcome %q", name)
}

// ParseFPM inverts micro.FPM.String (the results CLI filter surface).
func ParseFPM(name string) (micro.FPM, error) {
	for m := micro.FPM(0); m < micro.NumFPM; m++ {
		if strings.EqualFold(m.String(), name) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("results: unknown FPM %q", name)
}

// Cursor streams one stored campaign's columnar segment block by block.
// Memory stays bounded by one decoded block (o(campaign)); consumers
// either materialize records (Records) or aggregate in place (Tally),
// and the filter decides which columns ever get decoded.
type Cursor struct {
	rd     *colseg.Reader
	closer io.Closer
	// remaining is how many manifest-promised records are still unread.
	// Bytes past that point are a crashed append's torn tail and are
	// never parsed.
	remaining int
	// want is how many of them are still to be served: a prefix may end
	// inside a block, the manifest count never does.
	want   int
	filter Filter
	id     string
}

// maxCursorBuf caps a cursor's read buffer. The buffer serves frame
// headers (read a byte at a time) and small blocks; a block body longer
// than the buffer is read past it, straight into the block reader.
const maxCursorBuf = 64 << 10

// newCursor wraps a segment stream of size bytes serving exactly n
// records. Its read buffer is no larger than the segment: a warm
// regeneration opens one cursor per campaign, and most segments hold a
// few hundred bytes.
func newCursor(r io.Reader, size int64, closer io.Closer, id string, n int, f Filter) *Cursor {
	buf := bufio.NewReaderSize(r, int(min(size, maxCursorBuf)))
	return &Cursor{rd: colseg.NewReader(buf), closer: closer, id: id, remaining: n, want: n, filter: f}
}

// Close releases the underlying segment file.
func (c *Cursor) Close() error {
	if c.closer == nil {
		return nil
	}
	err := c.closer.Close()
	c.closer = nil
	return err
}

// next returns the next block and the number of its rows to serve
// (prefix-truncated), or ok=false at the end of the wanted records.
// A segment that ends — cleanly or torn — before the manifest count is
// satisfied is corruption.
func (c *Cursor) next() (*colseg.Block, int, bool, error) {
	if c.want <= 0 {
		return nil, 0, false, nil
	}
	blk, err := c.rd.Next()
	if err == io.EOF || errors.Is(err, colseg.ErrTruncated) {
		return nil, 0, false, fmt.Errorf("results: %s segment ends %d records short of manifest", c.id, c.remaining)
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("results: %s: %w", c.id, err)
	}
	rows := blk.Rows()
	if rows > c.remaining {
		// Blocks never straddle the manifest count: appends are whole
		// blocks and the manifest is written after them. A larger block
		// here means the manifest and segment disagree.
		return nil, 0, false, fmt.Errorf("results: %s block of %d rows exceeds manifest remainder %d", c.id, rows, c.remaining)
	}
	c.remaining -= rows
	take := min(rows, c.want)
	c.want -= take
	return blk, take, true, nil
}

// selection computes the filter's per-row match vector for one block,
// decoding only the columns the filter actually constrains. nil means
// every row matches.
func (c *Cursor) selection(blk *colseg.Block, take int) ([]bool, error) {
	if c.filter.Empty() {
		return nil, nil
	}
	var sel []bool
	and := func(match func(i int) bool) {
		if sel == nil {
			sel = make([]bool, take)
			for i := range sel {
				sel[i] = true
			}
		}
		for i := range sel {
			if sel[i] && !match(i) {
				sel[i] = false
			}
		}
	}
	if len(c.filter.Outcomes) > 0 {
		col, err := blk.U8(colOutcome)
		if err != nil {
			return nil, err
		}
		and(func(i int) bool { return containsOutcome(c.filter.Outcomes, Outcome(col[i])) })
	}
	if len(c.filter.FPMs) > 0 {
		col, err := blk.U8(colFPM)
		if err != nil {
			return nil, err
		}
		and(func(i int) bool { return containsFPM(c.filter.FPMs, micro.FPM(col[i])) })
	}
	if len(c.filter.Targets) > 0 {
		col, err := blk.Dict(colTarget)
		if err != nil {
			return nil, err
		}
		and(func(i int) bool { return containsString(c.filter.Targets, col[i]) })
	}
	if c.filter.BitRange {
		col, err := blk.Zigzag(colBit)
		if err != nil {
			return nil, err
		}
		and(func(i int) bool { return int(col[i]) >= c.filter.BitLo && int(col[i]) <= c.filter.BitHi })
	}
	return sel, nil
}

// Tally consumes the cursor into the record-stream aggregate, reading
// only the outcome, visibility and FPM columns (plus whatever the
// filter constrains) — the streaming re-aggregation path. The result is
// bit-identical to TallyOf over the same (filtered) records.
func (c *Cursor) Tally() (Tally, error) {
	var t Tally
	for {
		blk, take, ok, err := c.next()
		if err != nil {
			return Tally{}, err
		}
		if !ok {
			return t, nil
		}
		if err := c.tallyBlock(&t, blk, take); err != nil {
			return Tally{}, fmt.Errorf("results: %s: %w", c.id, err)
		}
	}
}

// tallyBlock adds one block's selected rows to t.
func (c *Cursor) tallyBlock(t *Tally, blk *colseg.Block, take int) error {
	sel, err := c.selection(blk, take)
	if err != nil {
		return err
	}
	outcome, err := enumColumn(blk, colOutcome, int(NumOutcomes), "outcome")
	if err != nil {
		return err
	}
	visible, err := blk.Bits(colVisible)
	if err != nil {
		return err
	}
	fpm, err := enumColumn(blk, colFPM, int(micro.NumFPM), "FPM")
	if err != nil {
		return err
	}
	for i := 0; i < take; i++ {
		if sel != nil && !sel[i] {
			continue
		}
		t.N++
		t.Outcomes[outcome[i]]++
		if visible[i] {
			t.Visible++
			t.FPM[fpm[i]]++
		}
	}
	return nil
}

// Each streams matching records through fn one at a time, holding at
// most one decoded block in memory (the streaming show/export path).
func (c *Cursor) Each(fn func(Record) error) error {
	var scratch []Record
	for {
		blk, take, ok, err := c.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		scratch, err = blockRecords(blk, scratch[:0])
		if err != nil {
			return fmt.Errorf("results: %s: %w", c.id, err)
		}
		for _, r := range scratch[:take] {
			if !c.filter.Match(r) {
				continue
			}
			if err := fn(r); err != nil {
				return err
			}
		}
	}
}

// Records consumes the cursor into fully materialized records (filter
// applied). The bulk-load path; aggregation should use Tally instead.
func (c *Cursor) Records() ([]Record, error) {
	var out []Record
	err := c.Each(func(r Record) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteJSONL writes records in the JSONL interchange/debug format, one
// JSON object per line — the inverse of ReadJSONL.
func WriteJSONL(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		bw.Write(data)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadJSONL parses up to n JSONL records (n < 0: all). Blank lines are
// skipped, and lines beyond n are never parsed.
func ReadJSONL(r io.Reader, n int) ([]Record, error) {
	var recs []Record
	if n > 0 {
		recs = make([]Record, 0, n)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() && (n < 0 || len(recs) < n) {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("results: jsonl record %d: %w", len(recs), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

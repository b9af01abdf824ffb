package results

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vulnstack/internal/colseg"
	"vulnstack/internal/micro"
)

// randomRecords draws a deterministic mixed record set shaped like a
// real campaign (all columns exercised, including negative-free but
// non-contiguous coordinates and every outcome/FPM class).
func randomRecords(n int, seed int64) []Record {
	r := rand.New(rand.NewSource(seed))
	targets := []string{"RF", "LSQ", "L1i", "L1d", "L2", "reg-uniform", ""}
	recs := make([]Record, n)
	coord := uint64(0)
	for i := range recs {
		coord += uint64(r.Intn(3000))
		recs[i] = Record{
			Index:     i,
			Layer:     Layer(r.Intn(int(NumLayers))),
			Target:    targets[r.Intn(len(targets))],
			Coord:     coord,
			Entry:     r.Intn(1 << 20),
			Bit:       r.Intn(64),
			Slot:      r.Intn(4),
			Outcome:   Outcome(r.Intn(int(NumOutcomes))),
			EarlyStop: r.Intn(4) == 0,
		}
		if r.Intn(3) == 0 {
			recs[i].Visible = true
			recs[i].Live = true
			recs[i].FPM = micro.FPM(r.Intn(int(micro.NumFPM)))
			recs[i].Contact = coord + uint64(r.Intn(100))
		}
		// Statically-resolved provenance (schema v3) rides the same
		// round-trip assertions as every other column.
		if r.Intn(5) == 0 {
			recs[i].StaticResolved = true
			recs[i].Outcome = Masked
		}
	}
	return recs
}

func TestColumnarRoundTrip(t *testing.T) {
	// Encode/decode through the column mapping is lossless for every
	// record count shape: empty, single, sub-block, and multi-block.
	for _, n := range []int{0, 1, 513, BlockRows, BlockRows + 7, 2*BlockRows + 3} {
		recs := randomRecords(n, int64(n)+1)
		data := encodeColumnar(recs)
		c := newCursor(bytes.NewReader(data), int64(len(data)), nil, "test", n, Filter{})
		got, err := c.Records()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d", n, len(got))
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("n=%d record %d: %+v != %+v", n, i, got[i], recs[i])
			}
		}
	}
}

func TestColumnarNonContiguousIndex(t *testing.T) {
	// The index column is delta-coded against the previous row; gaps
	// (records filtered upstream, or a block boundary mid-campaign)
	// must survive exactly.
	recs := []Record{{Index: 5}, {Index: 6}, {Index: 100}, {Index: 101}, {Index: 4000}}
	data := encodeColumnar(recs)
	c := newCursor(bytes.NewReader(data), int64(len(data)), nil, "test", len(recs), Filter{})
	got, err := c.Records()
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if got[i].Index != recs[i].Index {
			t.Fatalf("row %d index %d != %d", i, got[i].Index, recs[i].Index)
		}
	}
}

func TestJSONLConverterRoundTrip(t *testing.T) {
	// WriteJSONL -> ReadJSONL is the other half of the lossless
	// two-way converter.
	recs := randomRecords(700, 11)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d of %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestCursorTallyMatchesTallyOf(t *testing.T) {
	// The streaming aggregation path must be bit-identical to the
	// materialize-then-TallyOf path.
	recs := randomRecords(BlockRows+999, 3)
	data := encodeColumnar(recs)
	c := newCursor(bytes.NewReader(data), int64(len(data)), nil, "test", len(recs), Filter{})
	got, err := c.Tally()
	if err != nil {
		t.Fatal(err)
	}
	if want := TallyOf(recs); got != want {
		t.Fatalf("cursor tally %+v != %+v", got, want)
	}
}

// TestTallyUpTo: one call serves the first min(n, stored) records and
// says how many are stored; an absent campaign reads ok=false and a zero
// tally, and touches no file.
func TestTallyUpTo(t *testing.T) {
	s := testStore(t)
	k := Key{Layer: "micro", Target: "upto", Config: "A72", Struct: "RF", Seed: 3}
	if tl, stored, ok, err := s.TallyUpTo(k, 10); err != nil || ok || stored != 0 || tl != (Tally{}) {
		t.Fatalf("absent: tally %+v stored %d ok=%v err=%v", tl, stored, ok, err)
	}
	if files := storeFiles(t, s); len(files) != 0 {
		t.Fatalf("absent lookup wrote %v", files)
	}
	recs := randomRecords(BlockRows+500, 9)
	if err := s.Save(k, recs); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, BlockRows, len(recs), len(recs) + 7} {
		tl, stored, ok, err := s.TallyUpTo(k, n)
		if err != nil || !ok || stored != len(recs) {
			t.Fatalf("n=%d: stored %d ok=%v err=%v", n, stored, ok, err)
		}
		if want := TallyOf(recs[:min(n, len(recs))]); tl != want {
			t.Errorf("n=%d: tally %+v, want %+v", n, tl, want)
		}
	}
}

func TestFilterPushdownMatchesReference(t *testing.T) {
	// The column-wise selection vector must agree with the row-at-a-time
	// Filter.Match reference on every filter shape, for both Tally and
	// Records.
	recs := randomRecords(4000, 5)
	data := encodeColumnar(recs)
	filters := []Filter{
		{},
		{Outcomes: []Outcome{SDC}},
		{Outcomes: []Outcome{SDC, Crash}},
		{FPMs: []micro.FPM{micro.FPMWD}},
		{Targets: []string{"RF", "L2"}},
		{BitRange: true, BitLo: 8, BitHi: 15},
		{Outcomes: []Outcome{Masked}, Targets: []string{"LSQ"}, BitRange: true, BitLo: 0, BitHi: 31},
		{Outcomes: []Outcome{Detected}, FPMs: []micro.FPM{micro.FPMESC}, Targets: []string{"nope"}},
	}
	for fi, f := range filters {
		var want []Record
		for _, r := range recs {
			if f.Match(r) {
				want = append(want, r)
			}
		}
		c := newCursor(bytes.NewReader(data), int64(len(data)), nil, "test", len(recs), f)
		got, err := c.Records()
		if err != nil {
			t.Fatalf("filter %d: %v", fi, err)
		}
		if len(got) != len(want) {
			t.Fatalf("filter %d: %d records, want %d", fi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("filter %d record %d mismatch", fi, i)
			}
		}
		c = newCursor(bytes.NewReader(data), int64(len(data)), nil, "test", len(recs), f)
		tl, err := c.Tally()
		if err != nil {
			t.Fatalf("filter %d: %v", fi, err)
		}
		if wt := TallyOf(want); tl != wt {
			t.Fatalf("filter %d: tally %+v != %+v", fi, tl, wt)
		}
	}
}

func TestStoreTrailingSegmentBytesIgnored(t *testing.T) {
	// Bytes past the manifest-promised rows are a crashed append's torn
	// tail — loads serve the promised prefix, and the next append
	// truncates the debris.
	s := testStore(t)
	k := Key{Layer: "micro", Target: "crash", Config: "A9", Struct: "L2", Seed: 4}
	recs := randomRecords(300, 21)
	if err := s.Save(k, recs[:200]); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(s.Dir(), k.ID()+SegExt)
	// Simulate a crash mid-append: half a block's bytes, no manifest
	// update.
	debris := encodeColumnar(recs[200:260])
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(debris[:len(debris)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, ok, err := s.Load(k)
	if err != nil || !ok || len(got) != 200 {
		t.Fatalf("load with debris: %d ok=%v err=%v", len(got), ok, err)
	}
	// The re-append replays the same tail records and must supersede the
	// debris.
	if err := s.Append(k, recs[200:]); err != nil {
		t.Fatal(err)
	}
	got, _, err = s.Load(k)
	if err != nil || len(got) != 300 {
		t.Fatalf("load after re-append: %d err=%v", len(got), err)
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch after debris truncation", i)
		}
	}
}

func TestStoreSegmentVersionMismatch(t *testing.T) {
	// A segment written by a future block-format version must be
	// rejected loudly, never misdecoded.
	s := testStore(t)
	k := Key{Layer: "soft", Target: "ver", Seed: 6}
	if err := s.Save(k, randomRecords(10, 2)); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(s.Dir(), k.ID()+SegExt)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[4] = colseg.Version + 1 // frame version byte
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(k); !errors.Is(err, colseg.ErrVersion) {
		t.Fatalf("version mismatch err=%v, want ErrVersion", err)
	}
	if _, err := s.TallyPrefix(k, 10); !errors.Is(err, colseg.ErrVersion) {
		t.Fatalf("TallyPrefix version mismatch err=%v, want ErrVersion", err)
	}
}

func TestStoreExportJSONLRoundTrip(t *testing.T) {
	// Export (columnar -> JSONL) then re-read: the two-way converter is
	// lossless end to end through the store surface.
	s := testStore(t)
	k := Key{Layer: "arch", Target: "exp", Struct: "WD", Seed: 8}
	recs := randomRecords(500, 17)
	if err := s.Save(k, recs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.ExportJSONL(k.ID(), &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf, -1)
	if err != nil || len(got) != len(recs) {
		t.Fatalf("reimport: %d err=%v", len(got), err)
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch through export", i)
		}
	}
}

func TestParseOutcomeFPM(t *testing.T) {
	if o, err := ParseOutcome("sdc"); err != nil || o != SDC {
		t.Fatalf("sdc -> %v err=%v", o, err)
	}
	if _, err := ParseOutcome("bogus"); err == nil {
		t.Fatal("bogus outcome must error")
	}
	if m, err := ParseFPM("wd"); err != nil || m != micro.FPMWD {
		t.Fatalf("wd -> %v err=%v", m, err)
	}
	if _, err := ParseFPM("bogus"); err == nil {
		t.Fatal("bogus FPM must error")
	}
}

// TestPreV3BlockReadsStaticFalse pins the end of the legacy-read
// contract: a block written before schema v3 (no colStatic) or before
// v2 (no colStratum either) no longer reads back with zero-valued
// provenance but fails to decode with ErrCorrupt naming the campaign.
// The same columns plus colStatic decode, so the rejection is due to
// the missing column alone.
func TestPreV3BlockReadsStaticFalse(t *testing.T) {
	const n = 3
	b := colseg.NewBuilder(n)
	b.Zigzag(colIndex, []int64{0, 0, 0})
	b.U8(colLayer, make([]uint8, n))
	b.Dict(colTarget, make([]string, n))
	b.Uvarint(colCoord, make([]uint64, n))
	b.Zigzag(colEntry, make([]int64, n))
	b.Zigzag(colBit, make([]int64, n))
	b.Zigzag(colSlot, make([]int64, n))
	b.U8(colOutcome, make([]uint8, n))
	b.Bits(colVisible, make([]bool, n))
	b.U8(colFPM, make([]uint8, n))
	b.Uvarint(colContact, make([]uint64, n))
	b.Bits(colLive, make([]bool, n))
	b.Bits(colEarly, make([]bool, n))
	v1 := b.AppendTo(nil)
	b.Dict(colStratum, make([]string, n))
	v2 := b.AppendTo(nil)
	b.Bits(colStatic, make([]bool, n))
	v3 := b.AppendTo(nil)

	for _, legacy := range []struct {
		name string
		data []byte
	}{{"v1", v1}, {"v2", v2}} {
		_, err := newCursor(bytes.NewReader(legacy.data), int64(len(legacy.data)), nil, "legacy", n, Filter{}).Records()
		if !errors.Is(err, colseg.ErrCorrupt) || !strings.Contains(err.Error(), "legacy") {
			t.Errorf("%s block: err=%v, want ErrCorrupt naming the campaign", legacy.name, err)
		}
	}
	got, err := newCursor(bytes.NewReader(v3), int64(len(v3)), nil, "current", n, Filter{}).Records()
	if err != nil || len(got) != n {
		t.Fatalf("v3 block: %d records, err=%v", len(got), err)
	}
}

// TestCorruptEnumBytesRejected pins that an out-of-range outcome, FPM
// or layer byte (a flipped bit in a stored segment) fails both read
// paths with ErrCorrupt naming the campaign. Taken as is, such a byte
// panics TallyOf and String; folded into range, Tally would count
// outcome 5 as SDC and FPM 7 as WI. Tally reads no layer column, so a
// corrupt layer fails only the record paths.
func TestCorruptEnumBytesRejected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tally bool
		flip  func(*Record)
	}{
		{"outcome", true, func(r *Record) { r.Outcome = NumOutcomes + 1 }},
		{"fpm", true, func(r *Record) { r.FPM = micro.NumFPM + 2 }},
		{"layer", false, func(r *Record) { r.Layer = NumLayers }},
	} {
		s := testStore(t)
		k := Key{Layer: "micro", Target: tc.name, Config: "A72", Struct: "RF", Seed: 1}
		recs := []Record{rec(0, Masked, false, 0), rec(1, SDC, true, micro.FPMWD), rec(2, Crash, false, 0)}
		tc.flip(&recs[1])
		if err := s.Save(k, recs); err != nil {
			t.Fatal(err)
		}
		corrupt := func(op string, err error) {
			t.Helper()
			if !errors.Is(err, colseg.ErrCorrupt) || !strings.Contains(err.Error(), k.ID()) {
				t.Errorf("%s: %s err=%v, want ErrCorrupt naming campaign %s", tc.name, op, err, k.ID())
			}
		}
		_, _, err := s.Load(k)
		corrupt("Load", err)
		var buf bytes.Buffer
		corrupt("ExportJSONL", s.ExportJSONL(k.ID(), &buf))
		tl, err := s.TallyPrefix(k, len(recs))
		if tc.tally {
			corrupt("TallyPrefix", err)
		} else if err != nil || tl.N != len(recs) {
			t.Errorf("%s: TallyPrefix = %+v, err=%v", tc.name, tl, err)
		}
	}
}

// FuzzSegmentCursor feeds arbitrary segment bytes and manifest row
// counts through every cursor path: Tally, a filtered Tally, and
// Records followed by TallyOf and the String methods. Each must return
// a value or an error, never panic. Whatever Records accepts must
// tally identically on both paths and round-trip through
// encodeColumnar.
func FuzzSegmentCursor(f *testing.F) {
	for _, n := range []int{0, 1, 3, 200} {
		f.Add(encodeColumnar(randomRecords(n, int64(n)+1)), n)
	}
	recs := randomRecords(40, 7)
	f.Add(append(encodeColumnar(recs[:25]), encodeColumnar(recs[25:])...), 40)
	f.Add(encodeColumnar(recs), 20)
	sdc := Filter{Outcomes: []Outcome{SDC}, BitRange: true, BitLo: 0, BitHi: 31}
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		cursor := func(fl Filter) *Cursor { return newCursor(bytes.NewReader(data), int64(len(data)), nil, "fuzz", n, fl) }
		tally, tallyErr := cursor(Filter{}).Tally()
		filtered, filteredErr := cursor(sdc).Tally()
		recs, err := cursor(Filter{}).Records()
		if err != nil {
			return
		}
		var matched []Record
		for _, r := range recs {
			_ = r.Layer.String() + r.Outcome.String() + r.FPM.String()
			if sdc.Match(r) {
				matched = append(matched, r)
			}
		}
		if want := TallyOf(recs); tallyErr != nil || tally != want {
			t.Fatalf("Tally = %+v, err=%v; Records gives %+v", tally, tallyErr, want)
		}
		if want := TallyOf(matched); filteredErr != nil || filtered != want {
			t.Fatalf("filtered Tally = %+v, err=%v; Records gives %+v", filtered, filteredErr, want)
		}
		seg := encodeColumnar(recs)
		back, err := newCursor(bytes.NewReader(seg), int64(len(seg)), nil, "fuzz", len(recs), Filter{}).Records()
		if err != nil || !slices.Equal(back, recs) {
			t.Fatalf("re-encoded records do not round-trip: err=%v", err)
		}
	})
}

package results

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vulnstack/internal/micro"
)

func rec(i int, o Outcome, visible bool, fpm micro.FPM) Record {
	return Record{Index: i, Layer: LayerMicro, Target: "RF", Coord: uint64(100 + i),
		Bit: i % 8, Outcome: o, Visible: visible, FPM: fpm, Live: visible}
}

func TestTallyOf(t *testing.T) {
	recs := []Record{
		rec(0, Masked, false, micro.FPMNone),
		rec(1, SDC, true, micro.FPMWD),
		rec(2, Crash, true, micro.FPMWI),
		rec(3, Detected, false, micro.FPMNone),
		rec(4, SDC, true, micro.FPMWD),
	}
	tl := TallyOf(recs)
	if tl.N != 5 || tl.Outcomes[SDC] != 2 || tl.Outcomes[Crash] != 1 ||
		tl.Outcomes[Detected] != 1 || tl.Outcomes[Masked] != 1 {
		t.Fatalf("tally %+v", tl)
	}
	if tl.Visible != 3 || tl.FPM[micro.FPMWD] != 2 || tl.FPM[micro.FPMWI] != 1 {
		t.Fatalf("visibility %+v", tl)
	}
	if got := tl.Failures(); got != tl.Frac(SDC)+tl.Frac(Crash) {
		t.Fatalf("failures %v", got)
	}
	if tl.AVF() != tl.PVF() || tl.PVF() != tl.SVF() {
		t.Fatal("layer views must agree on the failure fraction")
	}
	if got := tl.HVF(); got != 0.6 {
		t.Fatalf("HVF %v", got)
	}
	if got := tl.FPMShare(micro.FPMWD); got != 2.0/3 {
		t.Fatalf("FPMShare %v", got)
	}
	// Streaming Add over the same records agrees with TallyOf.
	var st Tally
	for _, r := range recs {
		st.Add(r)
	}
	if st != tl {
		t.Fatalf("stream %+v != batch %+v", st, tl)
	}
}

func TestTallyEmpty(t *testing.T) {
	var tl Tally
	if tl.Frac(SDC) != 0 || tl.HVF() != 0 || tl.FPMShare(micro.FPMWD) != 0 || tl.Failures() != 0 {
		t.Fatal("empty tally fractions must be 0")
	}
}

func TestKeyID(t *testing.T) {
	k := Key{Layer: "micro", Target: "sha/1/1/false/VSA64", Config: "A72", Struct: "RF", Seed: 2021}
	if k.ID() != k.ID() || len(k.ID()) != 16 {
		t.Fatalf("id %q", k.ID())
	}
	k2 := k
	k2.Seed = 2022
	if k.ID() == k2.ID() {
		t.Fatal("different keys must have different ids")
	}
}

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRoundtrip(t *testing.T) {
	s := testStore(t)
	k := Key{Layer: "micro", Target: "sha", Config: "A72", Struct: "RF", Seed: 7}

	if _, ok, err := s.Load(k); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	recs := []Record{rec(0, Masked, false, 0), rec(1, SDC, true, micro.FPMWD)}
	if err := s.Save(k, recs); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load(k)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("roundtrip %+v", got)
	}
	if TallyOf(got) != TallyOf(recs) {
		t.Fatal("reloaded tally must be bit-identical")
	}
}

func TestStoreAppend(t *testing.T) {
	s := testStore(t)
	k := Key{Layer: "soft", Target: "sha", Seed: 7}
	if err := s.Append(k, []Record{rec(0, SDC, false, 0)}); err == nil {
		t.Fatal("append to unknown campaign must error")
	}
	if err := s.Save(k, []Record{rec(0, Masked, false, 0), rec(1, SDC, false, 0)}); err != nil {
		t.Fatal(err)
	}
	// Non-contiguous append (gap in the pre-drawn sequence) must error.
	if err := s.Append(k, []Record{rec(5, Crash, false, 0)}); err == nil {
		t.Fatal("non-contiguous append must error")
	}
	if err := s.Append(k, []Record{rec(2, Crash, false, 0), rec(3, Detected, false, 0)}); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load(k)
	if err != nil || !ok || len(got) != 4 {
		t.Fatalf("after append: %d records, ok=%v err=%v", len(got), ok, err)
	}
	for i, r := range got {
		if r.Index != i {
			t.Fatalf("record %d has index %d", i, r.Index)
		}
	}
	m, ok, err := s.Manifest(k)
	if err != nil || !ok || m.N != 4 {
		t.Fatalf("manifest %+v ok=%v err=%v", m, ok, err)
	}
}

func TestStoreList(t *testing.T) {
	s := testStore(t)
	ka := Key{Layer: "micro", Target: "a", Config: "A72", Struct: "RF", Seed: 1}
	kb := Key{Layer: "arch", Target: "b", Struct: "WD", Seed: 2}
	if err := s.Save(kb, []Record{rec(0, SDC, false, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(ka, []Record{rec(0, Masked, false, 0)}); err != nil {
		t.Fatal(err)
	}
	ms, err := s.List()
	if err != nil || len(ms) != 2 {
		t.Fatalf("list: %d manifests, err=%v", len(ms), err)
	}
	// Sorted by key string: "arch/..." < "micro/...".
	if ms[0].Key != kb || ms[1].Key != ka {
		t.Fatalf("order %+v", ms)
	}
	m, recs, err := s.LoadID(ka.ID())
	if err != nil || m.Key != ka || len(recs) != 1 {
		t.Fatalf("LoadID: %+v %d err=%v", m, len(recs), err)
	}
	if _, _, err := s.LoadID("nope"); err == nil {
		t.Fatal("unknown id must error")
	}
}

// TestStoreSchemaVersion pins that the store reads exactly schema-3
// columnar campaigns: a manifest of an older or newer schema, or of the
// JSONL format (explicit, or implied by an empty format field in stores
// from before the columnar plane), fails every read and write loudly,
// names the campaign, and leaves the store's files untouched.
func TestStoreSchemaVersion(t *testing.T) {
	for _, tc := range []struct {
		schema int
		format string
	}{
		{1, FormatColumnar},
		{2, FormatColumnar},
		{99, FormatColumnar},
		{SchemaVersion, "jsonl"},
		{SchemaVersion, ""},
	} {
		name := fmt.Sprintf("schema %d format %q", tc.schema, tc.format)
		s := testStore(t)
		k := Key{Layer: "soft", Target: "x", Seed: 1}
		if err := s.Save(k, []Record{rec(0, Masked, false, 0)}); err != nil {
			t.Fatal(err)
		}
		m := Manifest{Schema: tc.schema, Key: k, N: 1, Format: tc.format}
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(s.Dir(), k.ID()+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := storeFiles(t, s)

		fail := func(op string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), k.ID()) {
				t.Errorf("%s: %s err=%v, want an error naming campaign %s", name, op, err, k.ID())
			}
		}
		_, _, err = s.Manifest(k)
		fail("Manifest", err)
		_, _, err = s.Load(k)
		fail("Load", err)
		_, _, err = s.Cursor(k, Filter{})
		fail("Cursor", err)
		_, err = s.TallyPrefix(k, 1)
		fail("TallyPrefix", err)
		fail("Append", s.Append(k, []Record{rec(1, SDC, false, 0)}))
		if after := storeFiles(t, s); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: store files changed:\n before %v\n after  %v", name, before, after)
		}
	}
}

// storeFiles maps every file in the store directory to its contents.
func storeFiles(t *testing.T, s *Store) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(s.Dir(), e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

func TestStoreTruncatedRecords(t *testing.T) {
	s := testStore(t)
	k := Key{Layer: "soft", Target: "y", Seed: 1}
	if err := s.Save(k, []Record{rec(0, Masked, false, 0), rec(1, SDC, false, 0)}); err != nil {
		t.Fatal(err)
	}
	// Truncate the segment below the manifest count: corruption.
	if err := os.WriteFile(filepath.Join(s.Dir(), k.ID()+SegExt), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(k); err == nil {
		t.Fatal("truncated records must error")
	}
}

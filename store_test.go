package vulnstack

import (
	"reflect"
	"strings"
	"testing"

	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
	"vulnstack/internal/vuln"
)

func openStore(t *testing.T) *results.Store {
	t.Helper()
	st, err := results.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// storedSystem builds a fresh sha/VSA64 system attached to the store
// (fresh per call, so campaign caches never leak between phases).
func storedSystem(t *testing.T, st *results.Store) *System {
	t.Helper()
	sys := shaSystem(t)
	sys.Workers = 1
	sys.Store = st
	return sys
}

// TestTopUpDeterminism is the resume guarantee across all three layers:
// a stored n-injection campaign topped up to 2n must produce tallies
// bit-identical to a one-shot 2n campaign, because the fault sequence
// is pre-drawn from the seed and the store holds a strict prefix.
func TestTopUpDeterminism(t *testing.T) {
	cfg := micro.ConfigA72()

	// One-shot references, no store.
	ref := shaSystem(t)
	ref.Workers = 1
	refMicro, err := ref.MicroTally(cfg, micro.StructRF, 40, 2021)
	if err != nil {
		t.Fatal(err)
	}
	refPVF, err := ref.PVF(micro.FPMWD, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	refSVF, err := ref.SVF(60, 7)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: store the first half.
	st := openStore(t)
	a := storedSystem(t, st)
	if _, err := a.MicroTally(cfg, micro.StructRF, 20, 2021); err != nil {
		t.Fatal(err)
	}
	if _, err := a.PVF(micro.FPMWD, 20, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SVF(30, 7); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a fresh system tops up to the full n.
	b := storedSystem(t, st)
	gotMicro, err := b.MicroTally(cfg, micro.StructRF, 40, 2021)
	if err != nil {
		t.Fatal(err)
	}
	if gotMicro != refMicro {
		t.Errorf("micro top-up tally %+v != one-shot %+v", gotMicro, refMicro)
	}
	gotPVF, err := b.PVF(micro.FPMWD, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	if gotPVF != refPVF {
		t.Errorf("arch top-up split %+v != one-shot %+v", gotPVF, refPVF)
	}
	gotSVF, err := b.SVF(60, 7)
	if err != nil {
		t.Fatal(err)
	}
	if gotSVF != refSVF {
		t.Errorf("llfi top-up split %+v != one-shot %+v", gotSVF, refSVF)
	}

	// The stored record sets grew to exactly the one-shot lengths.
	for _, want := range []struct {
		key results.Key
		n   int
	}{
		{b.MicroKey(cfg, micro.StructRF, 2021), 40},
		{b.ArchKey(micro.FPMWD, 7), 40},
		{b.SoftKey(7), 60},
	} {
		m, ok, err := st.Manifest(want.key)
		if err != nil || !ok {
			t.Fatalf("manifest %v: ok=%v err=%v", want.key, ok, err)
		}
		if m.N != want.n {
			t.Errorf("manifest %v has n=%d, want %d", want.key, m.N, want.n)
		}
	}

	// Phase 3: fewer records than stored, from a fresh system: the
	// prefix ends inside the first stored block and matches a one-shot
	// run of that size.
	prefixMicro, err := ref.MicroTally(cfg, micro.StructRF, 10, 2021)
	if err != nil {
		t.Fatal(err)
	}
	prefixPVF, err := ref.PVF(micro.FPMWD, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	prefixSVF, err := ref.SVF(15, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := storedSystem(t, st)
	if got, err := c.MicroTally(cfg, micro.StructRF, 10, 2021); err != nil || got != prefixMicro {
		t.Errorf("micro prefix tally %+v err=%v, want %+v", got, err, prefixMicro)
	}
	if got, err := c.PVF(micro.FPMWD, 10, 7); err != nil || got != prefixPVF {
		t.Errorf("arch prefix split %+v err=%v, want %+v", got, err, prefixPVF)
	}
	if got, err := c.SVF(15, 7); err != nil || got != prefixSVF {
		t.Errorf("llfi prefix split %+v err=%v, want %+v", got, err, prefixSVF)
	}
	if len(c.microC) != 0 || c.archC != nil || c.llfiC != nil {
		t.Error("a stored prefix prepared injectors")
	}
}

// TestStoreReuseNoReinjection: a repeat measurement against a warm
// store must be served entirely from disk — the fresh system never
// prepares an injector (no golden run) and never executes an injection.
func TestStoreReuseNoReinjection(t *testing.T) {
	cfg := micro.ConfigA72()
	st := openStore(t)

	a := storedSystem(t, st)
	wantRes, wantAVF, err := a.AVFAll(cfg, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantPVF, err := a.PVF(micro.FPMWD, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantSVF, err := a.SVF(20, 5)
	if err != nil {
		t.Fatal(err)
	}

	b := storedSystem(t, st)
	gotRes, gotAVF, err := b.AVFAll(cfg, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	gotPVF, err := b.PVF(micro.FPMWD, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	gotSVF, err := b.SVF(20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if gotAVF != wantAVF || gotPVF != wantPVF || gotSVF != wantSVF {
		t.Errorf("store replay differs: AVF %+v/%+v PVF %+v/%+v SVF %+v/%+v",
			gotAVF, wantAVF, gotPVF, wantPVF, gotSVF, wantSVF)
	}
	for i := range wantRes {
		if gotRes[i].Tally != wantRes[i].Tally {
			t.Errorf("%v tally differs on replay", wantRes[i].Struct)
		}
	}
	// The decisive check: the replay system never built an injector.
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.microC) != 0 || b.archC != nil || b.llfiC != nil {
		t.Fatalf("store replay prepared injectors (micro=%d arch=%v llfi=%v): injections were re-executed",
			len(b.microC), b.archC != nil, b.llfiC != nil)
	}
}

// TestExperimentStoreReuse: a second lab over the same store
// regenerates experiments byte-identically without building any
// System: every cell is served from stored records before anything is
// compiled.
func TestExperimentStoreReuse(t *testing.T) {
	o := tinyOpts()
	o.StoreDir = t.TempDir()
	o.Workers = 1

	// fig4 stores every campaign fig1 needs (and the arch ones), so both
	// reports are stamped with the same store state.
	ids := []string{"fig4", "fig1"}
	first := map[string]string{}
	lab1 := NewLab(o)
	for _, id := range ids {
		r, err := lab1.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		first[id] = r.String()
	}
	lab2 := NewLab(o)
	for _, id := range []string{"fig1", "fig4"} {
		r, err := lab2.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		second := r.String()
		if second != first[id] {
			t.Errorf("stored %s rerun differs:\n%s\nvs\n%s", id, first[id], second)
		}
		if !strings.Contains(second, "provenance:") {
			t.Errorf("%s must stamp provenance", id)
		}
		if !strings.Contains(second, "results store:") {
			t.Errorf("%s must stamp the store state", id)
		}
		// fig1 and fig4 run uniform campaigns only; the arch and soft
		// keys' "tb" Mode must not count as stratified.
		if strings.Contains(second, "stratified") {
			t.Errorf("%s stamp counts stratified campaigns:\n%s", id, second)
		}
	}
	lab2.mu.Lock()
	defer lab2.mu.Unlock()
	for key := range lab2.cells {
		if strings.HasPrefix(key, "sys/") {
			t.Errorf("a warm lab built system %s", key)
		}
	}
}

// TestProvenanceIgnoresUnrelatedCampaigns: the results store note
// counts the campaigns behind the artifact's own cells. Campaigns fig4
// never reads — another benchmark's PVF and a stratified PVF of one it
// does read — leave its report byte-identical.
func TestProvenanceIgnoresUnrelatedCampaigns(t *testing.T) {
	o := tinyOpts()
	o.Benches = []string{"sha", "qsort"}
	o.StoreDir = t.TempDir()
	o.Workers = 2 // cells filled and read from several goroutines
	r, err := NewLab(o).Run("fig4")
	if err != nil {
		t.Fatal(err)
	}
	before := r.String()
	st, err := results.OpenStore(o.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := st.List()
	if err != nil {
		t.Fatal(err)
	}

	for _, bench := range []string{"crc32", "sha"} {
		sys, err := Build(Target{Bench: bench, Seed: o.Seed}, isa.VSA64)
		if err != nil {
			t.Fatal(err)
		}
		sys.Workers = 1
		sys.Store = st
		if bench == "sha" {
			opt := stratTestOpts
			opt.MaxNew = 16
			_, err = sys.StratPVF(micro.FPMWD, opt, o.Seed)
		} else {
			_, err = sys.PVF(micro.FPMWD, o.NPVF, o.Seed)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	all, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(stored)+2 {
		t.Fatalf("store holds %d campaigns, want fig4's %d and 2 unrelated", len(all), len(stored))
	}

	if r, err = NewLab(o).Run("fig4"); err != nil {
		t.Fatal(err)
	}
	if after := r.String(); after != before {
		t.Errorf("unrelated campaigns changed fig4:\n%s\nvs\n%s", before, after)
	}
}

// TestLabCellsMatchSystem: the Lab's cells and the System methods are
// one measurement. A Lab over a store the System methods filled returns
// exactly their results and builds nothing; a store-less Lab builds each
// (bench, ISA) System once, from the campaigns that inject.
func TestLabCellsMatchSystem(t *testing.T) {
	o := tinyOpts()
	o.StoreDir = t.TempDir()
	o.Workers = 1
	cfg := micro.ConfigA72()

	sys, err := Build(Target{Bench: "sha", Seed: o.Seed}, cfg.ISA)
	if err != nil {
		t.Fatal(err)
	}
	sys.Workers = 1
	if sys.Store, err = results.OpenStore(o.StoreDir); err != nil {
		t.Fatal(err)
	}
	wantRes, wantAVF, err := sys.AVFAll(cfg, o.NAVF, o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	wantPVF, err := sys.PVF(micro.FPMWD, o.NPVF, o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	wantSVF, err := sys.SVF(o.NSVF, o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	before, err := sys.Store.List()
	if err != nil {
		t.Fatal(err)
	}

	lab := NewLab(o)
	run := newArtifact(lab)
	tgt := Target{Bench: "sha"}
	gotRes, gotAVF, err := run.avf(tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotPVF, err := run.pvf(tgt, cfg.ISA, micro.FPMWD)
	if err != nil {
		t.Fatal(err)
	}
	gotSVF, err := run.svf(tgt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) || gotAVF != wantAVF {
		t.Errorf("Lab.avf = %+v %+v, System.AVFAll = %+v %+v", gotRes, gotAVF, wantRes, wantAVF)
	}
	if gotPVF != wantPVF {
		t.Errorf("Lab.pvf = %+v, System.PVF = %+v", gotPVF, wantPVF)
	}
	if gotSVF != wantSVF {
		t.Errorf("Lab.svf = %+v, System.SVF = %+v", gotSVF, wantSVF)
	}
	after, err := sys.Store.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Errorf("the Lab stored campaigns the System's keys do not name:\n before %v\n after  %v", before, after)
	}
	// The cells carry the campaigns they were served from, with their
	// stored counts: here every campaign in the store.
	want := map[results.Key]int{}
	for _, m := range before {
		want[m.Key] = m.N
	}
	if !reflect.DeepEqual(run.stored, want) {
		t.Errorf("the cells' stored campaigns %v, want the store's %v", run.stored, want)
	}
	for key := range lab.cells {
		if strings.HasPrefix(key, "sys/") {
			t.Errorf("the Lab built system %s for campaigns the store holds", key)
		}
	}

	o.StoreDir = ""
	cold := NewLab(o)
	if _, err := cold.Run("fig4"); err != nil {
		t.Fatal(err)
	}
	built := 0
	for key, c := range cold.cells {
		s, ok := c.val.(*System)
		if !ok {
			continue
		}
		built++
		s.mu.Lock()
		if s.microC[cfg.Name] == nil || s.archC == nil || s.llfiC == nil {
			t.Errorf("system %s was not the one every layer's campaign injected on", key)
		}
		s.mu.Unlock()
	}
	if want := len(o.Benches); built != want {
		t.Errorf("store-less fig4 built %d systems, want one per benchmark (%d)", built, want)
	}
}

// TestStoreRPVFPostHoc: per-FPM re-weighting (the rPVF combination) is
// derivable purely from stored records, after the fact — the
// record-plane property the refactor exists for.
func TestStoreRPVFPostHoc(t *testing.T) {
	cfg := micro.ConfigA72()
	st := openStore(t)
	sys := storedSystem(t, st)

	res, _, err := sys.AVFAll(cfg, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	pvfs := map[micro.FPM]vuln.Split{}
	for _, m := range []micro.FPM{micro.FPMWD, micro.FPMWOI, micro.FPMWI} {
		sp, err := sys.PVF(m, 10, 5)
		if err != nil {
			t.Fatal(err)
		}
		pvfs[m] = sp
	}
	live := vuln.RPVF(pvfs, FPMDist(cfg, res))

	// Recompute everything from disk alone, via a fresh system.
	replay := storedSystem(t, st)
	res2, _, err := replay.AVFAll(cfg, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	pvfs2 := map[micro.FPM]vuln.Split{}
	for _, m := range []micro.FPM{micro.FPMWD, micro.FPMWOI, micro.FPMWI} {
		sp, err := replay.PVF(m, 10, 5)
		if err != nil {
			t.Fatal(err)
		}
		pvfs2[m] = sp
	}
	if got := vuln.RPVF(pvfs2, FPMDist(cfg, res2)); got != live {
		t.Errorf("post-hoc rPVF %+v != live %+v", got, live)
	}
}

func TestSVFISAGuardWithStore(t *testing.T) {
	// The 64-bit-only LLFI restriction must hold even on the
	// store-backed path (before any store lookup).
	sys, err := Build(Target{Bench: "sha", Seed: 1}, isa.VSA32)
	if err != nil {
		t.Fatal(err)
	}
	sys.Store = openStore(t)
	if _, err := sys.SVF(5, 1); err == nil {
		t.Fatal("SVF on VSA32 must error with a store attached")
	}
}

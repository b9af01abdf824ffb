package vulnstack

import (
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
// regenerates an experiment byte-identically without preparing any
// injection campaign in any of its systems.
func TestExperimentStoreReuse(t *testing.T) {
	o := tinyOpts()
	o.StoreDir = t.TempDir()
	o.Workers = 1

	first, err := NewLab(o).Run("fig1")
	if err != nil {
		t.Fatal(err)
	}
	lab2 := NewLab(o)
	second, err := lab2.Run("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("stored rerun differs:\n%s\nvs\n%s", first.String(), second.String())
	}
	if !strings.Contains(second.String(), "provenance:") {
		t.Error("report must stamp provenance")
	}
	if !strings.Contains(second.String(), "results store:") {
		t.Error("report must stamp the store state")
	}
	// fig1 runs uniform campaigns only; the arch and soft keys' "tb"
	// Mode must not count as stratified.
	if strings.Contains(second.String(), "stratified") {
		t.Errorf("fig1 stamp counts stratified campaigns:\n%s", second.String())
	}
	lab2.mu.Lock()
	defer lab2.mu.Unlock()
	for key, c := range lab2.cells {
		s, ok := c.val.(*System)
		if !ok {
			continue
		}
		s.mu.Lock()
		if len(s.microC) != 0 || s.archC != nil || s.llfiC != nil {
			t.Errorf("system %s prepared injectors on a warm store", key)
		}
		s.mu.Unlock()
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

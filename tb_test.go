package vulnstack

import (
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
)

// TestTranslationBlockSMCInvalidation drives the code-corruption path
// that makes translation caching unsound if invalidation misses: WI and
// WOI arch faults flip instruction-word bits in memory, exactly where
// predecoded blocks could go stale. The fast-path campaign runs in
// Paranoid mode — every dispatched op is refetched from memory and
// compared to its predecoded copy, and executing a stale op panics — so
// this test passing means (a) records match the reference engine's and
// (b) no stale block was ever dispatched while the checks were
// demonstrably exercised.
func TestTranslationBlockSMCInvalidation(t *testing.T) {
	const (
		n    = 24
		seed = 99
	)
	for _, fpm := range []micro.FPM{micro.FPMWI, micro.FPMWOI} {
		fpm := fpm
		t.Run(fpm.String(), func(t *testing.T) {
			t.Parallel()
			mk := func(reference bool) *System {
				sys := shaSystem(t)
				sys.Workers = 2
				sys.snapshots = 6
				sys.Reference = reference
				return sys
			}
			fast, oracle := mk(false), mk(true)
			cpRef, err := oracle.ArchCampaign()
			if err != nil {
				t.Fatal(err)
			}
			ref := cpRef.Records(fpm, n, 0, seed, nil)

			var checks atomic.Uint64
			cp, err := fast.ArchCampaign()
			if err != nil {
				t.Fatal(err)
			}
			cp.TBParanoid = &checks
			assertSameRecords(t, fpm.String()+" code corruption", cp.Records(fpm, n, 0, seed, nil), ref)
			if checks.Load() == 0 {
				t.Error("paranoid dispatch verified zero ops: the SMC path never ran through the engine")
			}
		})
	}
}

// TestStoreTBProvenanceKeys pins the fast path's store-key strings:
// micro keys carry no Mode, arch and soft keys the literal "tb" engine
// stamp. Existing stores and the pinned bench digests key on these
// strings, so they must not drift.
func TestStoreTBProvenanceKeys(t *testing.T) {
	sys := shaSystem(t)
	for _, c := range []struct {
		key  results.Key
		want string
	}{
		{sys.MicroKey(micro.ConfigA72(), micro.StructRF, 7), "micro/sha/1/0/false/VSA64/A72/RF/seed=7"},
		{sys.ArchKey(micro.FPMWD, 7), "arch/sha/1/0/false/VSA64//WD/seed=7/mode=tb"},
		{sys.ArchKey(micro.FPMNone, 7), "arch/sha/1/0/false/VSA64//reg-uniform/seed=7/mode=tb"},
		{sys.SoftKey(7), "soft/sha/1/0/false/VSA64///seed=7/mode=tb"},
	} {
		if got := c.key.String(); got != c.want {
			t.Errorf("key %q, want %q", got, c.want)
		}
	}
}

// TestReferenceRejectsStore: the reference engine never reads or
// writes a results store. A reference system with a store attached
// fails at all three layers, uniform and stratified, and leaves the
// store directory empty.
func TestReferenceRejectsStore(t *testing.T) {
	dir := t.TempDir()
	st, err := results.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys := shaSystem(t)
	sys.snapshots = 6
	sys.Reference = true
	sys.Store = st
	for name, run := range map[string]func() error{
		"micro": func() error { _, err := sys.MicroTally(micro.ConfigA72(), micro.StructRF, 4, 7); return err },
		"arch":  func() error { _, err := sys.PVF(micro.FPMWD, 4, 7); return err },
		"soft":  func() error { _, err := sys.SVF(4, 7); return err },
		"strat": func() error { _, err := sys.StratSVF(stratTestOpts, 7); return err },
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "reference") {
			t.Errorf("%s: reference system with a store returned %v, want a reference-engine error", name, err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("reference system wrote %d entries into the store (first %q)", len(ents), ents[0].Name())
	}
}

// TestStaticReferenceExclusive: static resolution is a shortcut, so a
// reference system refuses Static at the soft layer, uniform and
// stratified, with an error naming both, instead of silently resolving
// nothing.
func TestStaticReferenceExclusive(t *testing.T) {
	sys, err := Build(Target{Bench: "crc32", Seed: 1}, isa.VSA64)
	if err != nil {
		t.Fatal(err)
	}
	sys.Static = true
	sys.Reference = true
	_, errSVF := sys.SVF(4, 2021)
	_, errStrat := sys.StratSVF(stratTestOpts, 2021)
	for name, err := range map[string]error{"SVF": errSVF, "StratSVF": errStrat} {
		if err == nil || !strings.Contains(err.Error(), "Static") || !strings.Contains(err.Error(), "Reference") {
			t.Errorf("%s with Static and Reference returned %v, want an error naming both", name, err)
		}
	}
}

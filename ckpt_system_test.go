package vulnstack

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vulnstack/internal/ckpt"
	"vulnstack/internal/inject"
	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
)

// ckptSystem builds a crc32 system over a store in dir, with mut
// applied before any campaign exists.
func ckptSystem(t *testing.T, dir string, mut func(*System)) *System {
	t.Helper()
	sys, err := Build(Target{Bench: "crc32", Seed: 1}, isa.VSA64)
	if err != nil {
		t.Fatal(err)
	}
	sys.snapshots = 32
	st, err := results.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys.Store = st
	if mut != nil {
		mut(sys)
	}
	return sys
}

// TestChainFingerprintGuard: a persisted checkpoint chain must only be
// resumed by a system whose configuration fingerprint matches exactly.
// Any input baked into the golden run or its checkpoints — snapshot
// density, the target seed — must send the campaign down the fresh
// golden-run path, never silently reuse the stale chain.
func TestChainFingerprintGuard(t *testing.T) {
	dir := t.TempDir()
	cfg := micro.ConfigA72()

	cp, err := ckptSystem(t, dir, nil).MicroCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Resumed {
		t.Fatal("first campaign on an empty store claims to have resumed")
	}
	if acp, err := ckptSystem(t, dir, nil).ArchCampaign(); err != nil || acp.Resumed {
		t.Fatalf("arch seeding campaign: resumed=%v err=%v", acp != nil && acp.Resumed, err)
	}

	// An exact match must resume (otherwise the variants below prove
	// nothing).
	if cp, err := ckptSystem(t, dir, nil).MicroCampaign(cfg); err != nil || !cp.Resumed {
		t.Fatalf("identical configuration did not resume (err=%v)", err)
	}

	variants := []struct {
		name string
		mut  func(*System)
	}{
		{"snapshots", func(s *System) { s.snapshots = 33 }},
	}
	for _, v := range variants {
		cp, err := ckptSystem(t, dir, v.mut).MicroCampaign(cfg)
		if err != nil {
			t.Fatalf("%s variant: %v", v.name, err)
		}
		if cp.Resumed {
			t.Errorf("micro campaign with different %s flag reused the persisted chain", v.name)
		}
		acp, err := ckptSystem(t, dir, v.mut).ArchCampaign()
		if err != nil {
			t.Fatalf("%s variant (arch): %v", v.name, err)
		}
		if acp.Resumed {
			t.Errorf("arch campaign with different %s flag reused the persisted chain", v.name)
		}
	}

	// A different workload seed is a different target entirely.
	seedSys, err := Build(Target{Bench: "crc32", Seed: 2}, isa.VSA64)
	if err != nil {
		t.Fatal(err)
	}
	seedSys.snapshots = 32
	st, err := results.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedSys.Store = st
	if cp, err := seedSys.MicroCampaign(cfg); err != nil || cp.Resumed {
		t.Fatalf("campaign for a different target seed reused the persisted chain (err=%v)", err)
	}
}

// TestPreTableChainNotLoaded: a micro chain persisted before golden
// blobs carried the lifetime table is filed under the chain-format-1
// fingerprint, which no system computes any more, so a campaign
// prepares cold instead of resuming without its table.
func TestPreTableChainNotLoaded(t *testing.T) {
	dir := t.TempDir()
	cfg := micro.ConfigA72()
	sys := ckptSystem(t, dir, nil)
	cp, err := sys.MicroCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cur := chainFingerprint(inject.Engine, sys.targetKey(), cfg.Name, sys.snapshots)
	old := ckpt.Fingerprint(inject.Engine, "v1", sys.targetKey(), cfg.Name,
		fmt.Sprintf("snapshots=%d", sys.snapshots), fmt.Sprintf("ram=%d", RAMSize))
	if old == cur {
		t.Fatal("the micro chain fingerprint did not change with the chain format")
	}
	// File the chain under the old fingerprint only.
	if err := os.Remove(filepath.Join(dir, cur+results.ChainExt)); err != nil {
		t.Fatal(err)
	}
	ch, err := ckpt.Decode(cp.Chain().Encode())
	if err != nil {
		t.Fatal(err)
	}
	ch.Meta.Fingerprint = old
	if err := sys.Store.SaveChain(old, ch.Encode()); err != nil {
		t.Fatal(err)
	}
	if cp, err := ckptSystem(t, dir, nil).MicroCampaign(cfg); err != nil || cp.Resumed {
		t.Fatalf("campaign resumed from a chain under the pre-table fingerprint (err=%v)", err)
	}
}

// TestChainCorruptionFallback: a truncated or bit-flipped persisted
// chain file must never crash or skew a campaign — the loader rejects
// it (the codec digest-checks the payload) and Prepare falls back to a
// full golden run with bit-identical tallies.
func TestChainCorruptionFallback(t *testing.T) {
	const (
		n    = 6
		seed = 4242
	)
	dir := t.TempDir()
	cfg := micro.ConfigA72()

	cold, err := ckptSystem(t, dir, nil).MicroCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := results.TallyOf(cold.Records(micro.StructRF, n, 0, seed, nil))

	store, err := results.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fps, err := store.ListChains()
	if err != nil || len(fps) != 1 {
		t.Fatalf("want exactly one persisted chain, got %d (err=%v)", len(fps), err)
	}
	path := filepath.Join(dir, fps[0]+results.ChainExt)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := ckptSystem(t, dir, nil).MicroCampaign(cfg)
		if err != nil {
			t.Fatalf("%s chain: campaign failed instead of falling back: %v", name, err)
		}
		if cp.Resumed {
			t.Fatalf("%s chain was accepted as a resume source", name)
		}
		if got := results.TallyOf(cp.Records(micro.StructRF, n, 0, seed, nil)); got != ref {
			t.Errorf("%s chain fallback tally %+v, want %+v", name, got, ref)
		}
	}

	check("truncated", pristine[:len(pristine)/2])

	flipped := append([]byte(nil), pristine...)
	flipped[len(flipped)*3/4] ^= 0x10
	check("bit-flipped", flipped)

	// And a sanity pass: restoring the pristine bytes resumes again.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := ckptSystem(t, dir, nil).MicroCampaign(cfg)
	if err != nil || !cp.Resumed {
		t.Fatalf("pristine chain no longer resumes (err=%v)", err)
	}
	if got := results.TallyOf(cp.Records(micro.StructRF, n, 0, seed, nil)); got != ref {
		t.Errorf("resumed tally %+v, want %+v", got, ref)
	}
}

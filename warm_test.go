//go:build !race

package vulnstack

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vulnstack/internal/results"
)

// These tests regenerate artifacts from a warm store. Each fills the
// store with a cold run first, which takes seconds without the race
// detector and tens of seconds under it, and the allocation gate needs
// counts the race detector does not change.

// TestWarmRegenerationAlloc: a warm Fig. 4, every cell served from the
// store, allocates at most warmFig4Allocs objects: its cost grows with
// the artifact's cells, not with the store's other contents.
func TestWarmRegenerationAlloc(t *testing.T) {
	o := tinyOpts()
	o.StoreDir = t.TempDir()
	o.Workers = 1
	if _, err := NewLab(o).Run("fig4"); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		_, err = NewLab(o).Run("fig4")
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("warm fig4: %.0f allocations", allocs)
	if allocs > warmFig4Allocs {
		t.Errorf("a warm fig4 allocates %.0f objects, bound %d", allocs, warmFig4Allocs)
	}
}

// warmFig4Allocs bounds a warm tinyOpts fig4 (two benchmarks, 14
// stored campaigns). It read 762 allocations with go1.24 (1,710 when
// every regeneration listed the whole store and zeroed a 64 KiB buffer
// per cursor); the rest is per campaign: a manifest read and decode, a
// segment open and one block's columns.
const warmFig4Allocs = 900

// TestCaseStudyStoreReuse: a second lab regenerates Fig. 10 from a warm
// store byte-identically without building any System: the golden-run
// counts behind its execution-time and kernel-share notes come from the
// persisted micro chains. Without the chains the lab builds both
// Systems and prints the same report.
func TestCaseStudyStoreReuse(t *testing.T) {
	o := tinyOpts()
	o.StoreDir = t.TempDir()
	o.Workers = 1
	r, err := NewLab(o).Run("fig10")
	if err != nil {
		t.Fatal(err)
	}
	first := r.String()
	systems := func(l *Lab) (n int) {
		l.mu.Lock()
		defer l.mu.Unlock()
		for key := range l.cells {
			if strings.HasPrefix(key, "sys/") {
				n++
			}
		}
		return n
	}

	warm := NewLab(o)
	if r, err = warm.Run("fig10"); err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != first {
		t.Errorf("warm fig10 differs:\n%s\nvs\n%s", first, got)
	}
	if n := systems(warm); n != 0 {
		t.Errorf("a warm fig10 built %d systems", n)
	}

	chains, err := filepath.Glob(filepath.Join(o.StoreDir, "*"+results.ChainExt))
	if err != nil || len(chains) == 0 {
		t.Fatalf("no persisted chains (err=%v)", err)
	}
	for _, c := range chains {
		if err := os.Remove(c); err != nil {
			t.Fatal(err)
		}
	}
	chainless := NewLab(o)
	if r, err = chainless.Run("fig10"); err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != first {
		t.Errorf("fig10 without chains differs:\n%s\nvs\n%s", first, got)
	}
	if n := systems(chainless); n != 2 {
		t.Errorf("fig10 without chains built %d systems, want 2 (w/o and w/ protection)", n)
	}
}

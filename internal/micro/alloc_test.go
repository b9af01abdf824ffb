//go:build !race

package micro

import "testing"

// TestStepAllocFree: the core's steady state allocates nothing. On each
// config a core warmed on sha for 20,000 cycles must step 10,000 more
// cycles without a single heap allocation: the completion ring's
// buckets, the fetch queue ring, the issue queue and the caches' refill
// scratch are all reused in place. (Built without -race, which changes
// allocation counts.)
func TestStepAllocFree(t *testing.T) {
	for _, cfg := range Configs() {
		img := shaImage(t, cfg)
		core := New(cfg, img.NewMemory(), img.Entry)
		for core.Cycle < 20000 && core.Step() {
		}
		halted := false
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 10000; i++ {
				halted = halted || !core.Step()
			}
		})
		if halted {
			t.Fatalf("%s: sha halted inside the measured window", cfg.Name)
		}
		if allocs != 0 {
			t.Errorf("%s: 10,000 warm Step calls allocated %v times, want 0", cfg.Name, allocs)
		}
	}
}

// TestEncodeStateAllocOnce: EncodeState into an empty buffer allocates
// exactly once, the whole A72 blob (about 5 MB), at boot and mid-run,
// instead of regrowing and copying it as append fills it.
func TestEncodeStateAllocOnce(t *testing.T) {
	cfg := ConfigA72()
	img := shaImage(t, cfg)
	core := New(cfg, img.NewMemory(), img.Entry)
	for _, cycles := range []uint64{0, 40000} {
		for core.Cycle < cycles && core.Step() {
		}
		var blob []byte
		if allocs := testing.AllocsPerRun(1, func() { blob = core.EncodeState(nil) }); allocs != 1 {
			t.Errorf("cycle %d: EncodeState(nil) allocated %v times, want 1", core.Cycle, allocs)
		}
		if bound := core.tailOff + core.tailBound(); len(blob) > bound {
			t.Errorf("cycle %d: %d-byte blob exceeds its %d-byte bound", core.Cycle, len(blob), bound)
		}
	}
}

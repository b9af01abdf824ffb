//go:build !race

package vulnstack

import (
	"testing"

	"vulnstack/internal/micro"
)

// TestMicroEquivalenceFullBreadth is the full-breadth fast-vs-reference
// gate of the micro layer: every benchmark on all four configs (both
// ISAs), all five structures, workers 1 and 3, with the reference
// engine's record stream required record for record (see
// assertFastMatchesReference). Most of a cache pool is dead, so the
// caches get more faults to reach live ones. Built without -race, like
// the speed floors, so the race run's budget does not grow; CI runs it
// in its own step.
func TestMicroEquivalenceFullBreadth(t *testing.T) {
	n := [micro.NumStructures]int{12, 12, 36, 36, 72}
	var layers []equivLayer
	for _, cfg := range micro.Configs() {
		layers = append(layers, microLayers(cfg, n)...)
	}
	assertFastMatchesReference(t, Benchmarks(), layers...)
}

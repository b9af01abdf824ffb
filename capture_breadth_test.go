//go:build !race

package vulnstack

import (
	"testing"

	"vulnstack/internal/micro"
)

// TestChainCaptureFullBreadth is the full-breadth gate of incremental
// checkpoint capture: on every benchmark, inject.Prepare's chain on all
// four configs and on A9 with small caches (whose golden runs write
// RAM), and arch.Prepare's chain, at a System's and a Lab's checkpoint
// density, and llfi.Prepare's chain at 48 and 12 checkpoints, must
// encode byte for byte like a full capture that re-encodes and compares
// every checkpoint whole. Built without -race,
// like the speed floors, so the race run's budget does not grow; CI
// runs it beside TestMicroEquivalenceFullBreadth.
func TestChainCaptureFullBreadth(t *testing.T) {
	assertCaptureMatchesFull(t, Benchmarks(), append(micro.Configs(), smallCacheA9()))
}

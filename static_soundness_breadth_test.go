//go:build !race

package vulnstack

import "testing"

// TestStaticSoundnessHardened extends the soundness gate to the ten
// hardened builds, whose soft campaigns Figs. 10 and 11 measure: every
// site the demanded-bits pass resolves must be recorded as statically
// resolved and, up to the gate's per-program bound, run to Masked on
// the reference engine. Hardening can leave a program with no resolved
// site, so resolution is required summed over the ten builds. Built
// without -race, like the other full-breadth gates.
func TestStaticSoundnessHardened(t *testing.T) {
	total := 0
	for _, bench := range Benchmarks() {
		t.Run(bench, func(t *testing.T) {
			total += assertStaticSound(t, Target{Bench: bench, Seed: 1, Harden: true})
		})
	}
	if total == 0 {
		t.Errorf("static analysis resolved nothing in the ten hardened %d-site pools", soundnessPool)
	}
}

package llfi

import (
	"math/rand"
	"testing"

	"vulnstack/internal/inject"
	"vulnstack/internal/ir"
	"vulnstack/internal/minic"
	"vulnstack/internal/results"
)

func minicCompile(src string) (*ir.Module, error) {
	return minic.Compile(src, Width)
}

// TestSampleClampNoDefs: a degenerate campaign whose golden run defined
// no values must still sample without panicking (regression for the
// Int63n(0) panic), and the resulting fault — targeting a definition
// that never executes — must classify Masked.
func TestSampleClampNoDefs(t *testing.T) {
	cp := &Campaign{GoldenDefs: 0}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		f := cp.Sample(r)
		if f.Seq != 0 {
			t.Fatalf("degenerate sample seq %d, want 0", f.Seq)
		}
	}
}

// TestDeadFilterEquivalence: the dead-definition filter must not change
// a single record's outcome — only skip the runs it can prove Masked:
// the fast path matches the reference engine record for record.
func TestDeadFilterEquivalence(t *testing.T) {
	const n, seed = 80, 2021
	on := prep(t, "sha").Records(n, 0, seed, nil)
	off := prepWith(t, "sha", true).Records(n, 0, seed, nil)
	if len(on) != len(off) {
		t.Fatalf("record counts differ: %d vs %d", len(on), len(off))
	}
	skipped := 0
	for i := range on {
		if on[i].EarlyStop {
			skipped++
			if on[i].Outcome != inject.Masked {
				t.Fatalf("record %d: early-stopped with outcome %v", i, on[i].Outcome)
			}
		}
		a := on[i]
		a.EarlyStop = false
		if a != off[i] {
			t.Fatalf("record %d differs beyond provenance:\n on: %+v\noff: %+v", i, on[i], off[i])
		}
	}
	if results.TallyOf(on) != results.TallyOf(off) {
		t.Fatal("tallies differ")
	}
	t.Logf("dead-definition filter skipped %d/%d runs", skipped, n)
}

// TestDeadFilterMatchesExecution: every definition the filter calls
// dead must actually classify Masked when executed. The program has a
// guaranteed dynamically dead definition — the accumulator write of
// the final loop iteration, which nothing reads afterward — that
// static dead-code elimination cannot remove (earlier iterations'exact
// same instruction is live).
func TestDeadFilterMatchesExecution(t *testing.T) {
	src := `
func main() int {
	var s int = 0
	var i int
	for i = 0; i < 5; i = i + 1 {
		s = s + i
	}
	return i
}
`
	m, err := minicCompile(src)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Prepare(m, 1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Prepare(m, 1<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	var dead []uint64
	for seq := uint64(0); seq < cp.GoldenDefs; seq++ {
		if cp.deadDef(Fault{Seq: seq}) {
			dead = append(dead, seq)
		}
	}
	if len(dead) == 0 {
		t.Fatal("expected at least one dynamically dead definition (final loop write of s)")
	}
	for _, seq := range dead {
		f := Fault{Seq: seq, Bit: 13}
		if o := ref.Run(f); o != inject.Masked {
			t.Fatalf("dead def seq=%d executed to %v, not Masked", seq, o)
		}
	}
	t.Logf("executed %d filter-claimed-dead faults, all Masked", len(dead))
}

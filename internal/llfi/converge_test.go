package llfi

import (
	"fmt"
	"testing"

	"vulnstack/internal/inject"
	"vulnstack/internal/ir"
	"vulnstack/internal/results"
	"vulnstack/internal/workload"
)

// benchModule compiles a seed benchmark at the tests' seed.
func benchModule(t *testing.T, bench string) *ir.Module {
	t.Helper()
	spec, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	m, err := minicCompile(spec.Gen(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// converged counts the records a run ended by convergence: early-stopped
// runs of definitions the golden run read (the dead-definition filter
// stops only unread ones).
func converged(cp *Campaign, recs []results.Record) int {
	n := 0
	for _, r := range recs {
		if r.EarlyStop && cp.UsedDef(r.Coord) {
			n++
		}
	}
	return n
}

// assertRecordsMatch fails unless the fast path's records equal the
// reference engine's, record for record, with only EarlyStop and
// StaticResolved allowed to differ.
func assertRecordsMatch(t *testing.T, what string, fast, ref []results.Record) {
	t.Helper()
	if len(fast) != len(ref) {
		t.Fatalf("%s: %d records, reference %d", what, len(fast), len(ref))
	}
	for i := range fast {
		a := fast[i]
		a.EarlyStop, a.StaticResolved = false, false
		if ref[i].EarlyStop || ref[i].StaticResolved || a != ref[i] {
			t.Fatalf("%s: record %d differs\n     fast: %+v\nreference: %+v", what, i, fast[i], ref[i])
		}
	}
}

// TestConvergenceMatchesReference is the race-enabled gate of soft-layer
// checkpoint chains: on sha and on qsort (recursive, so runs pause and
// resume with many frames live), the fast path must reproduce the
// reference engine's records at 1, 2, 48 and 192 checkpoints, for one
// and three workers. With one checkpoint every run starts at _start and
// none can converge; with more, some must.
func TestConvergenceMatchesReference(t *testing.T) {
	const n, seed = 60, 2021
	for _, bench := range []string{"sha", "qsort"} {
		m := benchModule(t, bench)
		ref, err := Prepare(m, 1<<21, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Records(n, 0, seed, nil)
		for _, nsnaps := range []int{1, 2, 48, 192} {
			cp, err := Prepare(m, 1<<21, nsnaps, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				cp.Workers = workers
				what := fmt.Sprintf("%s at %d checkpoints, %d workers", bench, nsnaps, workers)
				got := cp.Records(n, 0, seed, nil)
				assertRecordsMatch(t, what, got, want)
				c := converged(cp, got)
				switch {
				case nsnaps == 1 && c != 0:
					t.Errorf("%s: %d runs converged with no later checkpoint", what, c)
				case nsnaps > 1 && c == 0:
					t.Errorf("%s: no run converged", what)
				}
				t.Logf("%s: %d of %d runs converged", what, c, n)
			}
		}
	}
}

// exhaustive injects every definition of m's golden run at bits 0 and
// 2 on the fast path at nsnaps checkpoints and on the reference engine,
// requires the records to match, and returns the fast records.
func exhaustive(t *testing.T, src string, nsnaps int) []results.Record {
	t.Helper()
	m, err := minicCompile(src)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Prepare(m, 1<<20, nsnaps, false)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Prepare(m, 1<<20, nsnaps, true)
	if err != nil {
		t.Fatal(err)
	}
	var faults []Fault
	for seq := uint64(0); seq < cp.GoldenDefs; seq++ {
		faults = append(faults, Fault{Seq: seq, Bit: 0}, Fault{Seq: seq, Bit: 2})
	}
	got := cp.RecordsAt(faults, 0, nil)
	assertRecordsMatch(t, "exhaustive", got, ref.RecordsAt(faults, 0, nil))
	return got
}

// spin is a loop that keeps a program running, through several
// checkpoints, with no trace of what came before it.
const spin = `
func spin(n int) int {
	var s int = 0
	var i int
	for i = 0; i < n; i = i + 1 {
		s = s + i
	}
	return s
}
`

// TestConvergenceComparesRAM: a flip in a value setg stores to a global
// lives on only in RAM once setg returns; main prints the global after
// spin has passed several checkpoints. Such runs match golden there in
// every register and frame, so only the RAM compare keeps them from
// converging: they must end SDC, as on the reference engine.
func TestConvergenceComparesRAM(t *testing.T) {
	recs := exhaustive(t, `
var g int
func setg(k int) {
	g = k * 3 + 1
}
`+spin+`
func main() int {
	setg(5)
	var s int = spin(300)
	out(g)
	return 0
}
`, 8)
	if tl := results.TallyOf(recs); tl.Outcomes[inject.SDC] == 0 {
		t.Fatalf("no flip reached the output: %+v", tl)
	}
}

// TestConvergenceComparesOutput: emit prints a byte it computes and
// then clears the buffer, so a flip in the byte lives on only in the
// output already written; spin then passes several checkpoints. Only
// the output compare keeps such runs from converging: they must end
// SDC, as on the reference engine.
func TestConvergenceComparesOutput(t *testing.T) {
	recs := exhaustive(t, `
var b [8]byte
func emit(k int) {
	b[0] = k * 3 + 1
	__syscall(2, b, 1)
	b[0] = 0
}
`+spin+`
func main() int {
	emit(5)
	var s int = spin(300)
	return 0
}
`, 8)
	if tl := results.TallyOf(recs); tl.Outcomes[inject.SDC] == 0 {
		t.Fatalf("no flip reached the output: %+v", tl)
	}
}

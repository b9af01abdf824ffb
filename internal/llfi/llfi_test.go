package llfi

import (
	"math/rand"
	"testing"

	"vulnstack/internal/inject"
	"vulnstack/internal/minic"
	"vulnstack/internal/workload"
)

func prep(t *testing.T, bench string) *Campaign {
	t.Helper()
	return prepWith(t, bench, false)
}

func prepWith(t *testing.T, bench string, reference bool) *Campaign {
	t.Helper()
	spec, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	m, err := minic.Compile(spec.Gen(3, 1), Width)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Prepare(m, 1<<21, reference)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestGolden(t *testing.T) {
	cp := prep(t, "sha")
	if len(cp.GoldenOut) != 20 {
		t.Fatalf("sha output %d", len(cp.GoldenOut))
	}
	if cp.GoldenDefs == 0 || cp.GoldenDefs > cp.GoldenSteps {
		t.Fatal("definition stream size")
	}
}

func TestInjectionOutcomes(t *testing.T) {
	cp := prep(t, "sha")
	tl := cp.RunCampaign(120, 1, nil)
	if tl.N != 120 {
		t.Fatal("count")
	}
	if tl.Outcomes[inject.Masked] == 0 {
		t.Error("some IR faults must mask")
	}
	if tl.Outcomes[inject.SDC] == 0 {
		t.Error("sha at IR level should show SDCs (dataflow corruption)")
	}
	if tl.Outcomes[inject.Detected] != 0 {
		t.Error("unhardened module cannot detect")
	}
	svf := tl.SVF()
	if svf <= 0 || svf >= 1 {
		t.Errorf("degenerate SVF %.2f", svf)
	}
	t.Logf("sha SVF=%.2f (sdc=%.2f crash=%.2f masked=%.2f)",
		svf, tl.Frac(inject.SDC), tl.Frac(inject.Crash), tl.Frac(inject.Masked))
}

func TestDeterministicGivenSeed(t *testing.T) {
	cp := prep(t, "crc32")
	a := cp.RunCampaign(40, 9, nil)
	b := cp.RunCampaign(40, 9, nil)
	if a != b {
		t.Fatal("same seed must reproduce identical tallies")
	}
	c := cp.RunCampaign(40, 10, nil)
	if a == c {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestSingleFaultIsFlippedOnce(t *testing.T) {
	cp := prep(t, "crc32")
	// A fault injected past the end of the def stream behaves as
	// fault-free (never fires): must be Masked.
	if got := cp.Run(Fault{Seq: cp.GoldenDefs + 1000, Bit: 3}); got != inject.Masked {
		t.Fatalf("out-of-stream fault: %v", got)
	}
}

// TestCampaignWorkerInvariance: the SVF tally must be bit-identical for
// any worker count.
func TestCampaignWorkerInvariance(t *testing.T) {
	cp := prep(t, "sha")
	cp.Workers = 1
	serial := cp.RunCampaign(60, 7, nil)
	cp.Workers = 8
	parallel := cp.RunCampaign(60, 7, nil)
	if serial != parallel {
		t.Fatalf("workers=1 %+v != workers=8 %+v", serial, parallel)
	}
}

// TestResetMatchesFreshInterp: the per-worker Reset path must classify
// every fault exactly like a fresh interpreter.
func TestResetMatchesFreshInterp(t *testing.T) {
	cp := prep(t, "sha")
	r := rand.New(rand.NewSource(7))
	faults := make([]Fault, 30)
	for i := range faults {
		faults[i] = cp.Sample(r)
	}
	var want Tally
	for _, f := range faults {
		want.AddOutcome(cp.Run(f))
	}
	cp.Workers = 1
	got := cp.RunCampaign(30, 7, nil)
	if got != want {
		t.Fatalf("reset path %+v != fresh-interp path %+v", got, want)
	}
}

package vulnstack

import (
	"testing"

	"vulnstack/internal/arch"
	"vulnstack/internal/inject"
	"vulnstack/internal/isa"
	"vulnstack/internal/llfi"
	"vulnstack/internal/micro"
)

// shaSystem builds the sha/A72 system the determinism tests share.
func shaSystem(t *testing.T) *System {
	t.Helper()
	sys, err := Build(Target{Bench: "sha", Seed: 1}, isa.VSA64)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestCampaignRegression pins the exact tallies the serial, pre-parallel
// engine produced for each layer. A change here means injection results
// moved — not just performance — and must be deliberate.
func TestCampaignRegression(t *testing.T) {
	sys := shaSystem(t)
	sys.Workers = 1
	mc, err := sys.MicroCampaign(micro.ConfigA72())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mc.RunCampaign(micro.StructRF, 30, 2021, nil), (inject.Tally{
		N: 30, Outcomes: [inject.NumOutcomes]int{29, 0, 1, 0},
		FPM: [micro.NumFPM]int{0, 2, 0, 0, 0}, Visible: 2,
	}); got != want {
		t.Errorf("micro RF tally %+v, want pre-change %+v", got, want)
	}
	if got, want := mc.RunCampaign(micro.StructL1D, 30, 2021, nil), (inject.Tally{
		N: 30, Outcomes: [inject.NumOutcomes]int{29, 1, 0, 0},
		FPM: [micro.NumFPM]int{0, 1, 0, 0, 0}, Visible: 1,
	}); got != want {
		t.Errorf("micro L1D tally %+v, want pre-change %+v", got, want)
	}

	ac, err := sys.ArchCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ac.RunCampaign(micro.FPMWD, 30, 7, nil), (arch.Tally{
		N: 30, Outcomes: [inject.NumOutcomes]int{15, 5, 10, 0},
	}); got != want {
		t.Errorf("arch WD tally %+v, want pre-change %+v", got, want)
	}
	if got, want := ac.RunCampaign(micro.FPMNone, 60, 7, nil), (arch.Tally{
		N: 60, Outcomes: [inject.NumOutcomes]int{57, 2, 1, 0},
	}); got != want {
		t.Errorf("arch register-uniform tally %+v, want pre-change %+v", got, want)
	}

	lc, err := sys.LLFICampaign()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lc.RunCampaign(60, 7, nil), (llfi.Tally{
		N: 60, Outcomes: [inject.NumOutcomes]int{31, 21, 8, 0},
	}); got != want {
		t.Errorf("llfi tally %+v, want pre-change %+v", got, want)
	}
}

// TestWorkerCountInvariance runs every layer at several worker counts
// and demands bit-identical tallies: the engine's core guarantee.
func TestWorkerCountInvariance(t *testing.T) {
	sys := shaSystem(t)
	mc, err := sys.MicroCampaign(micro.ConfigA72())
	if err != nil {
		t.Fatal(err)
	}
	ac, err := sys.ArchCampaign()
	if err != nil {
		t.Fatal(err)
	}
	lc, err := sys.LLFICampaign()
	if err != nil {
		t.Fatal(err)
	}
	mc.Workers, ac.Workers, lc.Workers = 1, 1, 1
	rf := mc.RunCampaign(micro.StructRF, 30, 2021, nil)
	wd := ac.RunCampaign(micro.FPMWD, 30, 7, nil)
	sv := lc.RunCampaign(60, 7, nil)
	for _, workers := range []int{2, 8} {
		mc.Workers, ac.Workers, lc.Workers = workers, workers, workers
		if got := mc.RunCampaign(micro.StructRF, 30, 2021, nil); got != rf {
			t.Errorf("micro: workers=%d tally %+v != workers=1 %+v", workers, got, rf)
		}
		if got := ac.RunCampaign(micro.FPMWD, 30, 7, nil); got != wd {
			t.Errorf("arch: workers=%d tally %+v != workers=1 %+v", workers, got, wd)
		}
		if got := lc.RunCampaign(60, 7, nil); got != sv {
			t.Errorf("llfi: workers=%d tally %+v != workers=1 %+v", workers, got, sv)
		}
	}
}

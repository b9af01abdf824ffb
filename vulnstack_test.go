package vulnstack

import (
	"strings"
	"sync"
	"testing"

	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
)

// tinyOpts keeps facade tests fast; statistical assertions stay loose.
func tinyOpts() Options {
	return Options{NAVF: 8, NPVF: 12, NSVF: 25, Seed: 5,
		Benches: []string{"sha", "qsort"}}
}

func TestBuildSystem(t *testing.T) {
	s, err := Build(Target{Bench: "sha", Seed: 1}, isa.VSA64)
	if err != nil {
		t.Fatal(err)
	}
	if s.IR == nil || s.Image == nil {
		t.Fatal("incomplete system")
	}
	if _, err := Build(Target{Bench: "nosuch"}, isa.VSA64); err == nil {
		t.Fatal("unknown bench must error")
	}
	// ISA mismatch paths.
	if _, err := s.MicroCampaign(micro.ConfigA9()); err == nil {
		t.Fatal("A9 (VSA32) campaign on a VSA64 system must error")
	}
	s32, err := Build(Target{Bench: "sha", Seed: 1}, isa.VSA32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s32.SVF(5, 1); err == nil {
		t.Fatal("SVF on VSA32 must error (LLFI is 64-bit only)")
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(Experiments()) != 12 {
		t.Fatalf("experiment count %d", len(Experiments()))
	}
	if _, err := RunExperiment("fig99", tinyOpts()); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestTable2Static(t *testing.T) {
	r, err := RunExperiment("table2", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"A9", "A72", "ROB", "L2", "VSA32", "VSA64"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestFig1Smoke(t *testing.T) {
	lab := NewLab(tinyOpts())
	r, err := lab.Run("fig1")
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	if !strings.Contains(out, "sha") || !strings.Contains(out, "qsort") {
		t.Fatalf("fig1 output:\n%s", out)
	}
	if !strings.Contains(out, "margins") {
		t.Error("fig1 must report sampling margins")
	}
	t.Logf("\n%s", out)
}

func TestCaseStudySmoke(t *testing.T) {
	o := tinyOpts()
	o.Benches = nil
	lab := NewLab(o)
	r, err := lab.Run("fig10")
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"(a)", "(b)", "(c)", "(d)", "execution time", "kernel share"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig10 missing %q\n%s", want, out)
		}
	}
	t.Logf("\n%s", out)
}

func TestLabCaching(t *testing.T) {
	lab := NewLab(tinyOpts())
	s1, err := lab.System(Target{Bench: "sha"}, isa.VSA64)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := lab.System(Target{Bench: "sha"}, isa.VSA64)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("lab must cache systems")
	}

	// Single flight: concurrent callers of one key share one fill, a
	// failed one included.
	lab = NewLab(tinyOpts())
	const callers = 8
	var wg sync.WaitGroup
	systems := make([]*System, callers)
	errs := make([]error, callers)
	for i := range callers {
		wg.Add(2)
		go func() {
			defer wg.Done()
			systems[i], _ = lab.System(Target{Bench: "sha"}, isa.VSA64)
		}()
		go func() {
			defer wg.Done()
			_, errs[i] = lab.System(Target{Bench: "nosuch"}, isa.VSA64)
		}()
	}
	wg.Wait()
	for i := range callers {
		if systems[i] == nil || systems[i] != systems[0] {
			t.Errorf("caller %d got system %p, caller 0 got %p", i, systems[i], systems[0])
		}
		if errs[i] == nil || errs[i] != errs[0] {
			t.Errorf("caller %d got error %v, caller 0 got %v", i, errs[i], errs[0])
		}
	}
	lab.mu.Lock()
	defer lab.mu.Unlock()
	unknown := 0
	for key := range lab.cells {
		if strings.Contains(key, "nosuch") {
			unknown++
		}
	}
	if unknown != 1 {
		t.Errorf("unknown benchmark left %d memo cells, want 1", unknown)
	}
}

func TestFPMDistSums(t *testing.T) {
	lab := NewLab(tinyOpts())
	s, err := lab.System(Target{Bench: "sha"}, isa.VSA64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := micro.ConfigA72()
	res, weighted, err := s.AVFAll(cfg, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != int(micro.NumStructures) {
		t.Fatal("structure count")
	}
	total := weighted.SDC + weighted.Crash + weighted.Detected + weighted.Masked
	if total < 0.999 || total > 1.001 {
		t.Fatalf("weighted split must sum to 1: %f", total)
	}
	dist := FPMDist(cfg, res)
	var sum float64
	for _, v := range dist {
		sum += v
	}
	if sum != 0 && (sum < 0.999 || sum > 1.001) {
		t.Fatalf("FPM distribution must sum to 1: %f", sum)
	}
}

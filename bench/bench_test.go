package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"vulnstack"
	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
)

// shortParams size each workload to one benchmark and a handful of
// injections.
var shortParams = map[string]params{
	"fig4-store": {Benches: []string{"sha"}, NAVF: 2, NPVF: 4, NSVF: 8, Warm: 2, Setups: 1, MinPasses: 2},
	"avf-micro":  {Pairs: []pair{{"sha", "A72"}}, N: 2, Setups: 1, MinPasses: 2},
	"pvf-svf":    {Benches: []string{"sha"}, N: 5, NSoft: 5, Setups: 1, MinPasses: 2},
	"strat-ci":   {Benches: []string{"sha"}, CI: 0.15, Pool: 400, Setups: 1, MinPasses: 2},
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSON checks BENCHMARK.json against the metric and workload
// tables the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics", len(b.EndToEnd), len(b.PerLayer))
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, program has %d", len(b.Workloads), len(workloadDefs))
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	workloads := map[string]bool{}
	for i, w := range b.Workloads {
		use(w.Name)
		workloads[w.Name] = true
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d is %q (%q), program has %q (%q)", i, w.Name, w.Why, workloadDefs[i].name, workloadDefs[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, program %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	e2e := map[string]bool{}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		use(m.Name)
		e2e[m.Name] = true
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound || !unit.MatchString(m.Unit) {
			t.Errorf("end-to-end %d is %+v, program has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower-is-better, with the largest bound: %+v", m)
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}
	for i, m := range b.PerLayer {
		use(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer %d is %+v, program has %+v", i, m, d)
		}
		if len(d.moves) == 0 {
			t.Errorf("%s names no end-to-end metric it moves", d.name)
		}
		for e, ws := range d.moves {
			if !e2e[e] {
				t.Errorf("%s moves unknown end-to-end metric %q", d.name, e)
			}
			for _, w := range ws {
				if !workloads[w] {
					t.Errorf("%s moves %s on unknown workload %q", d.name, e, w)
				}
			}
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
}

// TestWorkloadsShort runs every workload at a tiny size, untraced and
// traced: each must report every metric BENCHMARK.json names with its
// unit, the end-to-end ones nonzero, and the traced tallies must equal
// the untraced ones.
func TestWorkloadsShort(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloadDefs {
		t.Run(w.name, func(t *testing.T) {
			p := shortParams[w.name]
			plain, _ := runWorkload(w, p, 2021, 0, false, t.TempDir())
			traced, spans := runWorkload(w, p, 2021, 0, true, t.TempDir())
			for _, r := range []result{plain, traced} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("trace=%v: correct %v, %d of %d failed: %v", r.Trace, r.Correct, r.Failed, r.Attempted, r.Errors)
				}
			}
			if plain.Digest != traced.Digest {
				t.Errorf("traced digest %s, untraced %s", traced.Digest, plain.Digest)
			}
			for _, m := range b.EndToEnd {
				got, ok := plain.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range b.PerLayer {
				if got, ok := traced.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestWorkerInvariance: the pass digest is the same at one and two
// campaign workers.
func TestWorkerInvariance(t *testing.T) {
	for _, name := range []string{"avf-micro", "pvf-svf"} {
		w, _ := workloadByName(name)
		var digests []string
		for _, workers := range []int{1, 2} {
			p := shortParams[name]
			p.Workers, p.MinPasses = workers, 1
			r, _ := runWorkload(w, p, 7, 0, false, t.TempDir())
			if !r.Correct {
				t.Fatalf("%s at %d workers: %v", name, workers, r.Errors)
			}
			digests = append(digests, r.Digest)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s at 1 worker, %s at 2", name, digests[0], digests[1])
		}
	}
}

// TestRecordsMatchAVFAll: avf-micro's Records-driven campaigns are
// exactly System.AVFAll's draws.
func TestRecordsMatchAVFAll(t *testing.T) {
	p := shortParams["avf-micro"]
	w := &avfMicro{p: p, seed: 2021}
	if err := w.setup(nil, 0); err != nil {
		t.Fatal(err)
	}
	s, err := vulnstack.Build(vulnstack.Target{Bench: "sha", Seed: 2021}, isa.VSA64)
	if err != nil {
		t.Fatal(err)
	}
	srs, _, err := s.AVFAll(micro.ConfigA72(), p.N, faultSeed)
	if err != nil {
		t.Fatal(err)
	}
	reqs := w.requests()
	if len(reqs) != len(srs) {
		t.Fatalf("%d requests, %d structures", len(reqs), len(srs))
	}
	for i, rq := range reqs {
		got, err := rq.do(nil, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%+v", srs[i].Tally); got != want {
			t.Errorf("%v: Records tally %s, AVFAll %s", srs[i].Struct, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{name: "wall_s", better: "lower", bound: 0.1}
	higher := metricDef{name: "rate", better: "higher", bound: 0.1}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}
	cases := []struct {
		name       string
		d          metricDef
		base, head []float64
		want       string
	}{
		{"faster", lower, base, scale(base, 0.95), "improved"},
		{"much slower", lower, base, scale(base, 1.2), "regressed"},
		{"slower within bound", lower, base, scale(base, 1.05), "unchanged"},
		{"same", lower, base, base, "unchanged"},
		{"noisy", lower, noisy, noisy, "unresolved"},
		{"higher is better", higher, base, scale(base, 1.05), "improved"},
		{"higher dropped", higher, base, scale(base, 0.8), "regressed"},
		{"no bound", metricDef{better: "lower"}, base, scale(base, 2), "-"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.d, c.base, c.head); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	write := func(dir string, rs ...result) string {
		for i, r := range rs {
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("r%d.json", i)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	mk := func(seed int64, wall float64, digest string, nproc int) result {
		m := map[string]metric{}
		for _, d := range endToEnd {
			m[d.name] = metric{Value: wall, Unit: d.unit}
		}
		return result{Workload: "avf-micro", Seed: seed, Correct: true, Digest: digest,
			Env: env{NumCPU: nproc, CPU: "x"}, Params: shortParams["avf-micro"], Metrics: m}
	}
	base := write(t.TempDir(), mk(1, 1.0, "a", 2), mk(2, 1.0, "b", 2))
	cases := []struct {
		name  string
		head  []result
		force bool
		want  int
	}{
		{"same", []result{mk(1, 1.0, "a", 2), mk(2, 1.01, "b", 2)}, false, 0},
		{"regressed", []result{mk(1, 2.0, "a", 2), mk(2, 2.0, "b", 2)}, false, 1},
		{"digest mismatch", []result{mk(1, 1.0, "a", 2), mk(2, 1.0, "c", 2)}, false, 1},
		{"other machine", []result{mk(1, 1.0, "a", 4), mk(2, 1.0, "b", 4)}, false, 2},
		{"other machine forced", []result{mk(1, 1.0, "a", 4), mk(2, 1.0, "b", 4)}, true, 0},
	}
	for _, c := range cases {
		var out, errs bytes.Buffer
		if got := runCompare(base, write(t.TempDir(), c.head...), c.force, &out, &errs); got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, got, c.want, out.String(), errs.String())
		}
	}
}

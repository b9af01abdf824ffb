// Command bench is vulnstack's end-to-end and per-layer benchmark. It
// runs named fault-injection workloads through the paths users run,
// prints every metric with its unit, and checks every workload's tallies.
//
//	bash bench/run.sh --workload avf-micro --seed 2021 --seconds 20 --trace 0
//	bash bench/run.sh --trace 1 -spans trace.json   # all workloads, traced
//	bash bench/run.sh -compare -base DIR -head DIR
//
// See README.md for the workloads, the metric glossary and how to
// compare two commits.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 2021, "seed for the benchmarks' generated inputs")
	seconds := fs.Float64("seconds", 20, "timed phase length per workload")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	spans := fs.String("spans", "", "traced run: write every span as JSON to this file")
	out := fs.String("out", "", "write each result with its environment stamp into this directory")
	scratch := fs.String("scratch", ".bench_build", "directory for temporary stores")
	compare := fs.Bool("compare", false, "compare the result files of -base and -head")
	base := fs.String("base", "", "-compare: directory of the parent's result files")
	head := fs.String("head", "", "-compare: directory of the change's result files")
	force := fs.Bool("force", false, "-compare: pair results from different machines or params")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(*base, *head, *force, stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *spans != "" && *trace == 0 {
		fmt.Fprintln(stderr, "bench: -spans needs --trace 1")
		return 2
	}
	defs := workloadDefs
	if *workload != "all" {
		w, ok := workloadByName(*workload)
		if !ok {
			var names []string
			for _, w := range workloadDefs {
				names = append(names, w.name)
			}
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(names, ", "))
			return 2
		}
		defs = []*workloadDef{w}
	}
	var allSpans []span
	code := 0
	for _, w := range defs {
		if len(defs) > 1 {
			// Peak RSS is per workload: start each from a clean mark.
			debug.FreeOSMemory()
			resetPeakRSS()
		}
		t0 := time.Now()
		res, sp := runWorkload(w, w.full, *seed, *seconds, *trace == 1, *scratch)
		res.Env = stamp()
		res.Env.Seconds = time.Since(t0).Seconds()
		allSpans = append(allSpans, sp...)
		printResult(stdout, res)
		if *out != "" {
			if err := saveResult(*out, res); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				code = 1
			}
		}
		if !res.Correct {
			for _, e := range res.Errors {
				fmt.Fprintln(stderr, "bench:", w.name+":", e)
			}
			code = 1
		}
	}
	if *spans != "" {
		if err := writeSpans(*spans, allSpans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
	}
	return code
}

// result is one workload run: what the last output line reports, plus
// the environment stamp, digest and deterministic counts kept in result
// files.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     bool   `json:"trace"`
	Params    params `json:"params"`
	Env       env    `json:"env"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Digest    string `json:"digest"`
	// Counts are deterministic: equal seeds and params give equal counts.
	Counts map[string]int `json:"counts"`
	// PassSeconds are the timed passes wall_s summarizes.
	PassSeconds []float64         `json:"pass_seconds,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	Errors      []string          `json:"errors,omitempty"`
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// runWorkload runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics), returning the traced run's spans.
func runWorkload(w *workloadDef, p params, seed int64, seconds float64, traced bool, scratch string) (result, []span) {
	res := result{Workload: w.name, Seed: seed, Trace: traced, Params: p, Correct: true, Counts: map[string]int{}}
	inst := w.build(p, seed, scratch)
	defer inst.close()
	m := metrics{}
	var sp []span
	var err error
	if traced {
		res.Digest, sp, err = tracedRun(w, inst, p, &res, m)
		res.Metrics = m.report(perLayer)
	} else {
		res.Digest, err = timedRun(inst, p, seconds, &res, m)
		res.Metrics = m.report(endToEnd)
	}
	if err != nil {
		res.fail("%v", err)
	}
	if res.Digest != "" && seed == 2021 && reflect.DeepEqual(p, w.full) && res.Digest != w.pinned {
		res.fail("digest %s differs from the pinned %s", res.Digest, w.pinned)
	}
	return res, sp
}

// pass runs every request once at the given fan-out and returns the
// digest of their tallies, in request order.
func pass(reqs []request, workers int, res *result, lat *[]float64) string {
	h := sha256.New()
	for i, rq := range reqs {
		t0 := time.Now()
		text, err := rq.do(nil, 0, workers)
		if lat != nil {
			*lat = append(*lat, ms(time.Since(t0)))
		}
		res.Attempted++
		if err != nil {
			res.fail("request %d (%s %+v): %v", i, rq.span, rq.attrs, err)
		}
		hashCall(h, rq, text)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashCall adds one call's tallies to a pass digest.
func hashCall(h io.Writer, rq request, text string) {
	fmt.Fprintf(h, "%s %+v\n%s\n", rq.span, rq.attrs, text)
}

// timedRun measures the end-to-end metrics: set-up repeated p.Setups
// times, then the same pass of requests until the time budget is spent
// (and at least p.MinPasses times). Every pass must reproduce the first
// pass's digest.
func timedRun(inst instance, p params, seconds float64, res *result, m metrics) (string, error) {
	var setups []float64
	for i := 0; i < p.Setups; i++ {
		// Collect the previous repetition's garbage outside the timer.
		runtime.GC()
		t0 := time.Now()
		err := inst.setup(nil, 0)
		setups = append(setups, time.Since(t0).Seconds())
		res.Attempted++
		if err != nil {
			return "", fmt.Errorf("set-up: %w", err)
		}
	}
	reqs := inst.requests()
	var walls, calls []float64
	digest := ""
	start := time.Now()
	for k := 0; k < p.MinPasses || time.Since(start).Seconds() < seconds; k++ {
		t0 := time.Now()
		d := pass(reqs, p.workers(), res, &calls)
		walls = append(walls, time.Since(t0).Seconds())
		if digest == "" {
			digest = d
		} else if d != digest {
			res.fail("pass %d digest %s differs from pass 0's %s", k, d, digest)
		}
	}
	// Slow spells of the shared host stretch whole passes by 20-40%; the
	// fastest tenth of the passes filters them. Over ten seeds its spread
	// was 0.04-0.15 of the median, against 0.09-0.20 for the median pass.
	m["wall_s"] = pct(walls, 10)
	m["call_p50_ms"] = pct(calls, 50)
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = peakRSSMiB()
	res.PassSeconds = walls
	res.Counts["requests_per_pass"] = len(reqs)
	return digest, nil
}

// tracedRun measures the per-layer metrics: one traced set-up, then each
// request twice in a row, untraced and traced, at the traced fan-out.
// Pairing per request keeps slow drift of the machine out of
// trace.overhead_frac; the two digests must agree.
func tracedRun(w *workloadDef, inst instance, p params, res *result, m metrics) (string, []span, error) {
	t := newTracer("traced")
	root := t.begin(0, "run", attrs{})
	setupID := t.begin(root, "setup", attrs{})
	err := inst.setup(t, setupID)
	t.end(setupID)
	res.Attempted++
	if err != nil {
		t.end(root)
		return "", t.spans, fmt.Errorf("set-up: %w", err)
	}
	workers := p.workers()
	if w.serialTrace {
		workers = 1
	}
	reqs := inst.requests()
	hU, hT := sha256.New(), sha256.New()
	var untraced, traced int64
	for i, rq := range reqs {
		var textU, textT string
		var errU, errT error
		plain := func() {
			t0 := time.Now()
			textU, errU = rq.do(nil, 0, workers)
			untraced += int64(time.Since(t0))
		}
		withSpans := func() {
			id := t.begin(root, rq.span, rq.attrs)
			textT, errT = rq.do(t, id, workers)
			t.end(id)
			traced += t.spans[id-1].dur()
		}
		// Alternate which goes first, so that neither half is always
		// the one collecting the other's garbage.
		if i%2 == 0 {
			plain()
			withSpans()
		} else {
			withSpans()
			plain()
		}
		res.Attempted += 2
		if err := errors.Join(errU, errT); err != nil {
			res.fail("request %d (%s %+v): %v", i, rq.span, rq.attrs, err)
		}
		hashCall(hU, rq, textU)
		hashCall(hT, rq, textT)
	}
	t.end(root)
	digest, dT := hex.EncodeToString(hU.Sum(nil)), hex.EncodeToString(hT.Sum(nil))
	if digest != dT {
		res.fail("traced digest %s differs from untraced %s", dT, digest)
	}
	m["trace.overhead_frac"] = float64(traced)/float64(untraced) - 1

	if w.serialTrace {
		// Injection plus Prepare self time over the traced wall time:
		// set-up and the traced requests, without the interleaved
		// untraced calls.
		self := selfTimes(t.spans)
		var covered, busy int64
		for i, s := range t.spans {
			if isInjection(s.Name) {
				busy += s.dur()
			}
			if isInjection(s.Name) || strings.HasPrefix(s.Name, "prepare.") {
				covered += self[i]
			}
		}
		m["trace.covered_frac"] = float64(covered) / float64(t.spans[setupID-1].dur()+traced)

		t0 := time.Now()
		if d := pass(reqs, p.workers(), res, nil); d != digest {
			res.fail("digest at %d workers %s differs from serial %s", p.workers(), d, digest)
		}
		m["campaign.parallel_eff"] = float64(busy) / (float64(time.Since(t0)) * float64(p.workers()))
	}
	if err := inst.probe(t, m); err != nil {
		return digest, t.spans, fmt.Errorf("probe: %w", err)
	}
	layerMetrics(t.spans, m, res.Counts)
	return digest, t.spans, nil
}

func isInjection(name string) bool { _, ok := injectionLayers[name]; return ok }

// injectionLayers maps injection span names to their metric prefix.
var injectionLayers = map[string]string{"inject.micro": "inject", "inject.arch": "arch", "inject.llfi": "llfi"}

// prepareMetrics maps Prepare span names to the metric summing them.
var prepareMetrics = map[string]string{"prepare.micro": "inject.prepare_ms", "prepare.arch": "arch.prepare_ms", "prepare.llfi": "llfi.prepare_ms"}

// layerMetrics derives the span-based per-layer metrics and the counts
// -compare requires to match exactly.
func layerMetrics(spans []span, m metrics, counts map[string]int) {
	type sample struct {
		all, live, dead []float64
		early           int
	}
	inj := map[string]*sample{}
	byFPM := map[string][]float64{}
	lab := map[string][]float64{}
	for _, s := range spans {
		d := float64(s.dur())
		switch s.Name {
		case "build":
			m["build.ms"] += d / 1e6
			m["build.calls"]++
		case "strat.micro", "strat.pvf", "strat.svf":
			m[s.Name+"_ms"] += d / 1e6
		case "lab.cold", "lab.topup", "lab.warm":
			lab[s.Name] = append(lab[s.Name], d/1e6)
		}
		if name, ok := prepareMetrics[s.Name]; ok {
			m[name] += d / 1e6
		}
		layer, ok := injectionLayers[s.Name]
		if !ok {
			continue
		}
		sm := inj[layer]
		if sm == nil {
			sm = &sample{}
			inj[layer] = sm
		}
		sm.all = append(sm.all, d)
		if s.Attrs.Live {
			sm.live = append(sm.live, d)
		} else {
			sm.dead = append(sm.dead, d)
		}
		if s.Attrs.Early {
			sm.early++
		}
		if layer == "arch" {
			byFPM[s.Attrs.Target] = append(byFPM[s.Attrs.Target], d)
		}
	}
	for layer, sm := range inj {
		n := len(sm.all)
		counts[layer+".injections"] = n
		m[layer+".injections"] = float64(n)
		sum := 0.0
		for _, d := range sm.all {
			sum += d
		}
		m[layer+".busy_ms"] = sum / 1e6
		m[layer+".ns_p50"] = pct(sm.all, 50)
		m[layer+".ns_p99"] = pct(sm.all, 99)
		m[layer+".early_stop_ratio"] = float64(sm.early) / float64(n)
		if layer == "inject" {
			m["inject.dead_ns_p50"] = pct(sm.dead, 50)
			m["inject.live_ns_p50"] = pct(sm.live, 50)
			m["inject.live_ns_p99"] = pct(sm.live, 99)
			m["inject.live_ratio"] = float64(len(sm.live)) / float64(n)
		}
	}
	for fpm, ds := range byFPM {
		m["arch."+strings.ToLower(fpm)+"_ns_p50"] = pct(ds, 50)
	}
	for name, ds := range lab {
		m[name+"_ms"] = median(ds)
	}
	for _, name := range []string{"strat.injections", "results.rows", "results.campaigns", "ckpt.checkpoints"} {
		counts[name] = int(m[name])
	}
}

func printResult(w io.Writer, r result) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := r.Metrics[d.name]
		fmt.Fprintf(w, "%-10s %-24s %14.6g %s\n", r.Workload, d.name, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "%-10s digest %s attempted %d failed %d correct %v\n", r.Workload, r.Digest, r.Attempted, r.Failed, r.Correct)
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

func saveResult(dir string, r result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("saving result: %w", err)
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-t%d-s%d-%d.json", r.Workload, trace, r.Seed, time.Now().UnixNano())
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("saving result: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("saving result: %w", err)
	}
	return nil
}

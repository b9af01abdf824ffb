package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
)

// loadResults reads every result file (*.json) in dir, ordered by name.
func loadResults(dir string) ([]result, error) {
	if dir == "" {
		return nil, fmt.Errorf("a result directory is required")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var rs []result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		rs = append(rs, r)
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return rs, nil
}

// group is the base and head runs of one workload in one mode, paired:
// base[i] and head[i] ran with the same seed.
type group struct {
	workload   string
	trace      bool
	base, head []result
}

// pairUp groups results by workload and mode and pairs base with head
// runs of equal seed, in file order within a seed.
func pairUp(base, head []result) []group {
	type key struct {
		workload string
		trace    bool
	}
	bySeed := func(rs []result) map[key]map[int64][]result {
		m := map[key]map[int64][]result{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			if m[k] == nil {
				m[k] = map[int64][]result{}
			}
			m[k][r.Seed] = append(m[k][r.Seed], r)
		}
		return m
	}
	b, h := bySeed(base), bySeed(head)
	var gs []group
	for k, bs := range b {
		g := group{workload: k.workload, trace: k.trace}
		var seeds []int64
		for s := range bs {
			seeds = append(seeds, s)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, s := range seeds {
			hs := h[k][s]
			for i := 0; i < len(bs[s]) && i < len(hs); i++ {
				g.base = append(g.base, bs[s][i])
				g.head = append(g.head, hs[i])
			}
		}
		if len(g.base) > 0 {
			gs = append(gs, g)
		}
	}
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].trace != gs[j].trace {
			return !gs[i].trace
		}
		return gs[i].workload < gs[j].workload
	})
	return gs
}

// mismatch reports why two runs may not be compared, or "" if they may.
func mismatch(a, b result) string {
	switch {
	case a.Env.NumCPU != b.Env.NumCPU:
		return fmt.Sprintf("nproc %d vs %d", a.Env.NumCPU, b.Env.NumCPU)
	case a.Env.CPU != b.Env.CPU:
		return fmt.Sprintf("CPU %q vs %q", a.Env.CPU, b.Env.CPU)
	case !reflect.DeepEqual(a.Params, b.Params):
		return fmt.Sprintf("params %+v vs %+v", a.Params, b.Params)
	}
	return ""
}

// verdict judges one workload × metric from paired runs (base[i] and
// head[i] form pair i) by the rule the benchmark fixes:
//   - regressed: the head's median is worse than the base's by more
//     than the metric's bound;
//   - improved: the head wins at least 9 of 10 pairs, ties counting for
//     neither, and the medians differ by more than the base's
//     interquartile range;
//   - unresolved: either side's spread (IQR over median) is wider than
//     the bound, unless every head run beats every base run;
//   - otherwise unchanged.
//
// A metric without a bound (per-layer) gets "-".
func verdict(d metricDef, base, head []float64) (string, int) {
	better := func(a, b float64) bool {
		if d.better == "higher" {
			return a > b
		}
		return a < b
	}
	wins := 0
	for i := range base {
		if better(head[i], base[i]) {
			wins++
		}
	}
	if d.bound == 0 {
		return "-", wins
	}
	bq1, bm, bq3 := quartiles(base)
	hq1, hm, hq3 := quartiles(head)
	worse := (hm - bm) / math.Abs(bm)
	if d.better == "higher" {
		worse = -worse
	}
	if worse > d.bound {
		return "regressed", wins
	}
	if 10*wins >= 9*len(base) && better(hm, bm) && math.Abs(hm-bm) > bq3-bq1 {
		return "improved", wins
	}
	spread := func(q1, m, q3 float64) float64 { return (q3 - q1) / math.Abs(m) }
	if spread(bq1, bm, bq3) > d.bound || spread(hq1, hm, hq3) > d.bound {
		all := true
		for _, h := range head {
			for _, b := range base {
				all = all && better(h, b)
			}
		}
		if !all {
			return "unresolved", wins
		}
	}
	return "unchanged", wins
}

func runCompare(baseDir, headDir string, force bool, stdout, stderr io.Writer) int {
	base, err := loadResults(baseDir)
	if err != nil {
		fmt.Fprintln(stderr, "bench -compare: base:", err)
		return 2
	}
	head, err := loadResults(headDir)
	if err != nil {
		fmt.Fprintln(stderr, "bench -compare: head:", err)
		return 2
	}
	groups := pairUp(base, head)
	if len(groups) == 0 {
		fmt.Fprintln(stderr, "bench -compare: no base and head runs share a workload, mode and seed")
		return 2
	}
	for _, g := range groups {
		for _, r := range append(g.base[1:], g.head...) {
			if why := mismatch(g.base[0], r); why != "" && !force {
				fmt.Fprintf(stderr, "bench -compare: %s results differ in %s (pass -force to compare anyway)\n", g.workload, why)
				return 2
			}
		}
	}
	code := 0
	for _, g := range groups {
		for i := range g.base {
			b, h := g.base[i], g.head[i]
			if b.Digest != h.Digest || !reflect.DeepEqual(b.Counts, h.Counts) {
				fmt.Fprintf(stdout, "MISMATCH %s seed %d: digest %s vs %s, counts %v vs %v\n", g.workload, b.Seed, b.Digest, h.Digest, b.Counts, h.Counts)
				code = 1
			}
			if !b.Correct || !h.Correct {
				fmt.Fprintf(stdout, "FAILED %s seed %d: base correct %v, head correct %v\n", g.workload, b.Seed, b.Correct, h.Correct)
				code = 1
			}
		}
	}
	for _, mode := range []bool{false, true} {
		defs := endToEnd
		if mode {
			defs = perLayer
		}
		for _, d := range defs {
			header := false
			for _, g := range groups {
				if g.trace != mode {
					continue
				}
				if !header {
					bound := "no bound"
					if d.bound > 0 {
						bound = fmt.Sprintf("bound %.0f%%", d.bound*100)
					}
					fmt.Fprintf(stdout, "\n%s (%s, %s is better, %s)\n", d.name, d.unit, d.better, bound)
					fmt.Fprintf(stdout, "  %-10s %-32s %-32s %5s  %s\n", "workload", "base q1 / median / q3", "head q1 / median / q3", "wins", "verdict")
					header = true
				}
				var bv, hv []float64
				for i := range g.base {
					bv = append(bv, g.base[i].Metrics[d.name].Value)
					hv = append(hv, g.head[i].Metrics[d.name].Value)
				}
				v, wins := verdict(d, bv, hv)
				if v == "regressed" {
					code = 1
				}
				bq1, bm, bq3 := quartiles(bv)
				hq1, hm, hq3 := quartiles(hv)
				fmt.Fprintf(stdout, "  %-10s %-32s %-32s %2d/%-2d  %s\n", g.workload,
					fmt.Sprintf("%.4g / %.4g / %.4g", bq1, bm, bq3), fmt.Sprintf("%.4g / %.4g / %.4g", hq1, hm, hq3),
					wins, len(bv), v)
			}
		}
	}
	return code
}

package main

import (
	"math"
	"sort"
)

// metricDef is one reported metric. moves names, for a per-layer
// metric, the end-to-end metrics it should move and on which workloads;
// it is written down before any measurement so that a change claiming a
// gain on one layer can be checked against it.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	moves  moves
}

// moves maps an end-to-end metric to the workloads it is expected to
// move on.
type moves map[string][]string

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports all of them.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "call_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15},
}

var (
	campaigns = []string{"avf-micro", "pvf-svf", "strat-ci"}
	onAVF     = []string{"avf-micro"}
	onPVF     = []string{"pvf-svf"}
	onStrat   = []string{"strat-ci"}
	onFig4    = []string{"fig4-store"}
)

// perLayer are the traced run's metrics, named by package. A metric a
// workload's layers never exercise reads 0 there.
var perLayer = []metricDef{
	{name: "build.ms", unit: "ms", better: "lower", moves: moves{"setup_s": campaigns, "call_p50_ms": onFig4}},
	{name: "build.calls", unit: "count", better: "lower", moves: moves{"setup_s": campaigns, "call_p50_ms": onFig4}},

	{name: "inject.prepare_ms", unit: "ms", better: "lower", moves: moves{"setup_s": []string{"avf-micro", "strat-ci", "fig4-store"}}},
	{name: "inject.golden_cycles", unit: "count", better: "lower", moves: moves{"setup_s": []string{"avf-micro", "strat-ci", "fig4-store"}}},
	{name: "inject.injections", unit: "count", better: "lower", moves: moves{"wall_s": onAVF}},
	{name: "inject.busy_ms", unit: "ms", better: "lower", moves: moves{"wall_s": onAVF, "call_p50_ms": onAVF}},
	{name: "inject.ns_p50", unit: "ns", better: "lower", moves: moves{"wall_s": onAVF, "call_p50_ms": onAVF}},
	{name: "inject.ns_p99", unit: "ns", better: "lower", moves: moves{"wall_s": onAVF}},
	{name: "inject.dead_ns_p50", unit: "ns", better: "lower", moves: moves{"wall_s": onAVF}},
	{name: "inject.live_ns_p50", unit: "ns", better: "lower", moves: moves{"wall_s": onAVF}},
	{name: "inject.live_ns_p99", unit: "ns", better: "lower", moves: moves{"wall_s": onAVF}},
	{name: "inject.live_ratio", unit: "ratio", better: "lower", moves: moves{"wall_s": onAVF}},
	{name: "inject.early_stop_ratio", unit: "ratio", better: "higher", moves: moves{"wall_s": onAVF}},

	{name: "arch.prepare_ms", unit: "ms", better: "lower", moves: moves{"setup_s": []string{"pvf-svf", "strat-ci"}}},
	{name: "arch.injections", unit: "count", better: "lower", moves: moves{"wall_s": onPVF}},
	{name: "arch.busy_ms", unit: "ms", better: "lower", moves: moves{"wall_s": onPVF}},
	{name: "arch.ns_p50", unit: "ns", better: "lower", moves: moves{"wall_s": onPVF, "call_p50_ms": onPVF}},
	{name: "arch.ns_p99", unit: "ns", better: "lower", moves: moves{"wall_s": onPVF}},
	{name: "arch.wd_ns_p50", unit: "ns", better: "lower", moves: moves{"wall_s": onPVF}},
	{name: "arch.woi_ns_p50", unit: "ns", better: "lower", moves: moves{"wall_s": onPVF}},
	{name: "arch.wi_ns_p50", unit: "ns", better: "lower", moves: moves{"wall_s": onPVF}},
	{name: "arch.early_stop_ratio", unit: "ratio", better: "higher", moves: moves{"wall_s": onPVF}},

	{name: "llfi.prepare_ms", unit: "ms", better: "lower", moves: moves{"setup_s": []string{"pvf-svf", "strat-ci"}}},
	{name: "llfi.injections", unit: "count", better: "lower", moves: moves{"wall_s": onPVF}},
	{name: "llfi.busy_ms", unit: "ms", better: "lower", moves: moves{"wall_s": onPVF}},
	{name: "llfi.ns_p50", unit: "ns", better: "lower", moves: moves{"wall_s": onPVF, "call_p50_ms": onPVF}},
	{name: "llfi.ns_p99", unit: "ns", better: "lower", moves: moves{"wall_s": onPVF}},
	{name: "llfi.early_stop_ratio", unit: "ratio", better: "higher", moves: moves{"wall_s": onPVF}},

	{name: "ckpt.chain_mb", unit: "MiB", better: "lower", moves: moves{"peak_rss_mb": onAVF, "setup_s": onFig4}},
	{name: "ckpt.checkpoints", unit: "count", better: "lower", moves: moves{"peak_rss_mb": onAVF, "setup_s": onFig4}},
	{name: "ckpt.decode_ms", unit: "ms", better: "lower", moves: moves{"setup_s": onFig4}},

	{name: "results.campaigns", unit: "count", better: "lower", moves: moves{"call_p50_ms": onFig4}},
	{name: "results.rows", unit: "count", better: "lower", moves: moves{"setup_s": onFig4}},
	{name: "results.seg_mb", unit: "MiB", better: "lower", moves: moves{"setup_s": onFig4}},
	{name: "results.tally_ms", unit: "ms", better: "lower", moves: moves{"call_p50_ms": onFig4, "wall_s": onFig4}},
	{name: "results.rows_per_s", unit: "1/s", better: "higher", moves: moves{"call_p50_ms": onFig4, "wall_s": onFig4}},

	{name: "lab.cold_ms", unit: "ms", better: "lower", moves: moves{"setup_s": onFig4}},
	{name: "lab.topup_ms", unit: "ms", better: "lower", moves: moves{"setup_s": onFig4}},
	{name: "lab.warm_ms", unit: "ms", better: "lower", moves: moves{"call_p50_ms": onFig4, "wall_s": onFig4}},

	{name: "strat.micro_ms", unit: "ms", better: "lower", moves: moves{"wall_s": onStrat}},
	{name: "strat.pvf_ms", unit: "ms", better: "lower", moves: moves{"wall_s": onStrat}},
	{name: "strat.svf_ms", unit: "ms", better: "lower", moves: moves{"wall_s": onStrat}},
	{name: "strat.injections", unit: "count", better: "lower", moves: moves{"wall_s": onStrat}},
	{name: "strat.strata", unit: "count", better: "lower", moves: moves{"wall_s": onStrat}},
	{name: "strat.reduction", unit: "ratio", better: "higher", moves: moves{"wall_s": onStrat}},
	{name: "strat.resolved_frac", unit: "ratio", better: "higher", moves: moves{"wall_s": onStrat}},

	{name: "static.cfg_ms", unit: "ms", better: "lower", moves: moves{"setup_s": onStrat}},
	{name: "static.bits_ms", unit: "ms", better: "lower", moves: moves{"setup_s": onStrat}},
	{name: "static.irbits_ms", unit: "ms", better: "lower", moves: moves{"setup_s": onStrat}},

	{name: "campaign.parallel_eff", unit: "ratio", better: "higher", moves: moves{"wall_s": []string{"avf-micro", "pvf-svf"}}},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: moves{"wall_s": onPVF}},
	{name: "trace.covered_frac", unit: "ratio", better: "higher", moves: moves{"wall_s": onAVF}},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects one run's values by name.
type metrics map[string]float64

// report returns the values of defs with their units; a metric nobody
// set reads 0.
func (m metrics) report(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	return out
}

// pct returns the p-th percentile (0..100) of xs by nearest rank, or 0
// for an empty sample.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them (exclusive
// method), which is how the benchmark's spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		m := float64(len(s) + 1)
		pos := float64(j) * m / 4
		i := int(pos)
		if i < 1 {
			i = 1
		}
		if i > len(s)-1 {
			i = len(s) - 1
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(1), at(2), at(3)
}

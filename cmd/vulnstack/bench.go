package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"vulnstack"
	"vulnstack/internal/inject"
	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
)

// LayerBench is the per-injection cost of one layer on one benchmark,
// on the fast path and on the reference engine (every shortcut off:
// step engines, no early-stop, no dead-definition filter, no decode
// memo). Tallies are bit-identical in both modes — the benchmark
// asserts it on every attempt — so Speedup is pure cost, not a
// tradeoff.
type LayerBench struct {
	// NsPerInjection is the fast path's per-injection cost.
	NsPerInjection int64 `json:"ns_per_injection"`
	// NsPerInjectionBase is the reference engine's per-injection cost.
	NsPerInjectionBase int64 `json:"ns_per_injection_base"`
	// Speedup is Base/NsPerInjection.
	Speedup float64 `json:"speedup"`
	// EarlyStopRate is the fraction of injections classified by
	// convergence (or, at the soft layer, by the dead-definition
	// filter) instead of running to completion.
	EarlyStopRate float64 `json:"early_stop_rate"`
}

// AggBench is the re-aggregation throughput benchmark: one synthetic
// stored campaign tallied through the JSONL re-parse baseline and
// through the streaming columnar cursor. Tallies are bit-identical —
// the benchmark asserts it — so Speedup is pure cost.
type AggBench struct {
	Rows       int   `json:"rows"`
	JSONLBytes int64 `json:"jsonl_bytes"`
	SegBytes   int64 `json:"seg_bytes"`
	// NsJSONL / NsColumnar are full-campaign tally times (best of 3).
	NsJSONL    int64 `json:"ns_jsonl"`
	NsColumnar int64 `json:"ns_columnar"`
	// NsColumnarFiltered tallies only SDC records through the pushed-down
	// filter (still a full scan of the filter columns).
	NsColumnarFiltered int64   `json:"ns_columnar_filtered"`
	RowsPerSecJSONL    float64 `json:"rows_per_sec_jsonl"`
	RowsPerSecColumnar float64 `json:"rows_per_sec_columnar"`
	// Speedup is NsJSONL/NsColumnar.
	Speedup float64 `json:"speedup"`
}

// CkptBench is the delta-checkpoint benchmark: one benchmark's campaign
// prepared cold (golden run + chain capture) and warm (decode of the
// persisted chain, zero golden instructions), plus per-injection cost
// with a boot-only full snapshot (every injection restores from reset)
// against the dense delta chain (delta-walk restore to the nearest
// checkpoint). All four paths must produce bit-identical tallies — the
// benchmark asserts it — so every ratio is pure cost.
type CkptBench struct {
	Bench       string `json:"bench"`
	Snapshots   int    `json:"snapshots"`
	Checkpoints int    `json:"checkpoints"`
	// ChainBytes is the chain's stored size (base + deltas + aux);
	// FullSnapshotBytes one full snapshot (RAM image + machine-state
	// blob) under the old scheme.
	ChainBytes        int64 `json:"chain_bytes"`
	FullSnapshotBytes int64 `json:"full_snapshot_bytes"`
	// MemoryVsTwelveFull is ChainBytes over twelve full snapshots (the
	// old default); < 1 means the dense chain undercuts the old memory
	// footprint.
	MemoryVsTwelveFull float64 `json:"memory_vs_twelve_full"`
	NsPrepareCold      int64   `json:"ns_prepare_cold"`
	NsPrepareWarm      int64   `json:"ns_prepare_warm"`
	// PrepareSpeedup is cold/warm.
	PrepareSpeedup float64 `json:"prepare_speedup"`
	// NsPerInjectionFullRestore runs each injection from a boot-only
	// snapshot; NsPerInjectionDeltaWalk from the dense chain.
	NsPerInjectionFullRestore int64 `json:"ns_per_injection_full_restore"`
	NsPerInjectionDeltaWalk   int64 `json:"ns_per_injection_delta_walk"`
	// RestoreSpeedup is full-restore/delta-walk.
	RestoreSpeedup float64 `json:"restore_speedup"`
}

// StratRow is one benchmark's stratified-vs-uniform comparison at the
// micro layer: the injections each sampling regime needs to promise the
// same CI half-width. The uniform side is the fixed worst-case budget
// (it cannot adapt — its margin claim assumes p = 0.5); the stratified
// side is what the adaptive allocator actually spent before its
// reweighted CI met the same target. WithinCI is the unbiasedness
// check: the stratified estimate must land inside the uniform run's CI.
type StratRow struct {
	Bench    string `json:"bench"`
	NUniform int    `json:"n_uniform"`
	NStrat   int    `json:"n_strat"`
	Strata   int    `json:"strata"`
	// Reduction is NUniform/NStrat — injections saved to the same bound.
	Reduction  float64 `json:"reduction"`
	EstUniform float64 `json:"est_uniform"`
	EstStrat   float64 `json:"est_strat"`
	HalfWidth  float64 `json:"half_width"`
	WithinCI   bool    `json:"within_ci"`
	NsUniform  int64   `json:"ns_uniform"`
	NsStrat    int64   `json:"ns_strat"`
}

// StratBench is the stratified-sampling benchmark section: per-bench
// rows plus the aggregate the Makefile gates on.
type StratBench struct {
	CI         float64 `json:"ci"`
	Confidence float64 `json:"confidence"`
	Pool       int     `json:"pool"`
	Struct     string  `json:"struct"`
	// ReductionFloor is the gate: a majority of benchmarks must reach
	// this many times fewer injections than uniform.
	ReductionFloor  float64    `json:"reduction_floor"`
	Rows            []StratRow `json:"rows"`
	MedianReduction float64    `json:"median_reduction"`
}

// StaticRow is one benchmark's static-resolution comparison at the soft
// layer: the live injections a stratified campaign needs to promise the
// same CI bound with and without the bit-precise demanded-bits pass.
// Fewer is the per-benchmark gate (strictly fewer live injections);
// WithinCI is the unbiasedness check (the two reweighted estimates must
// agree within their combined half-widths).
type StaticRow struct {
	Bench string `json:"bench"`
	// NBase / NStatic are the live (actually executed) injections of the
	// stratified baseline and the static-resolution run.
	NBase   int `json:"n_base"`
	NStatic int `json:"n_static"`
	// Resolved is the pool sites the static analysis classified without
	// injection; ResolvedFrac its share of the pool.
	Resolved     int     `json:"resolved"`
	ResolvedFrac float64 `json:"resolved_frac"`
	EstBase      float64 `json:"est_base"`
	EstStatic    float64 `json:"est_static"`
	HWBase       float64 `json:"half_width_base"`
	HWStatic     float64 `json:"half_width_static"`
	Fewer        bool    `json:"fewer"`
	WithinCI     bool    `json:"within_ci"`
	NsBase       int64   `json:"ns_base"`
	NsStatic     int64   `json:"ns_static"`
}

// StaticBench is the static-resolution benchmark section (the schema of
// BENCH_static.json): per-benchmark rows plus the majority gate.
type StaticBench struct {
	CI         float64     `json:"ci"`
	Confidence float64     `json:"confidence"`
	Pool       int         `json:"pool"`
	Rows       []StaticRow `json:"rows"`
	// FewerCount benchmarks performed strictly fewer live injections
	// than the stratified baseline; the gate requires a majority.
	FewerCount      int     `json:"fewer_count"`
	MedianReduction float64 `json:"median_reduction"`
}

// BenchReport is the schema of BENCH_<date>.json.
type BenchReport struct {
	Date       string                           `json:"date"`
	Config     string                           `json:"config"`
	Struct     string                           `json:"struct"`
	N          int                              `json:"n"`
	Seed       int64                            `json:"seed"`
	Benchmarks map[string]map[string]LayerBench `json:"benchmarks"`
	// MedianMicroSpeedup, MedianArchSpeedup and MedianSoftSpeedup are
	// the medians across benchmarks of each layer's per-injection
	// speedup over the reference engine. The arch and soft medians are
	// gated by ArchFloor and SoftFloor. All five are present when the
	// run measured per-layer costs.
	MedianMicroSpeedup float64 `json:"median_micro_speedup,omitempty"`
	MedianArchSpeedup  float64 `json:"median_arch_speedup,omitempty"`
	MedianSoftSpeedup  float64 `json:"median_soft_speedup,omitempty"`
	ArchFloor          float64 `json:"arch_floor,omitempty"`
	SoftFloor          float64 `json:"soft_floor,omitempty"`
	// Aggregation is present when the run included -agg.
	Aggregation *AggBench `json:"aggregation,omitempty"`
	// Checkpoint is present when the run included -ckpt.
	Checkpoint *CkptBench `json:"checkpoint,omitempty"`
	// Stratified is present when the run included -strat.
	Stratified *StratBench `json:"stratified,omitempty"`
	// Static is present when the run included -static.
	Static *StaticBench `json:"static,omitempty"`
}

// Median per-injection speedup floors of the fast path over the
// reference engine, and the per-benchmark soft-layer floor. The soft
// floor guards against real regressions: the fast soft path can never
// legitimately cost more than the reference, so a persistent dip below
// ~1.0 is an actual slowdown worth failing on.
const (
	archSpeedupFloor      = 2.0
	softSpeedupFloor      = 1.5
	softBenchSpeedupFloor = 0.98
)

// cmdBench measures per-injection cost per layer per benchmark, on the
// fast path and on the reference engine, and writes the result as JSON.
// It also verifies, on every benchmark and layer it touches, that the
// two engines produce bit-identical tallies (the equivalence gate).
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	benches := fs.String("bench", "", "comma-separated benchmark subset (default: all)")
	cfgName := fs.String("config", "A72", "microarchitecture for the micro layer")
	stName := fs.String("struct", "RF", "micro-layer structure to inject into")
	n := fs.Int("n", 150, "injections per layer per benchmark per mode")
	seed := fs.Int64("seed", 2021, "sampling seed")
	short := fs.Bool("short", false, "CI mode: three benchmarks, small n")
	agg := fs.Bool("agg", false, "run the re-aggregation benchmark (JSONL vs columnar); alone, skips the per-layer benches")
	aggRows := fs.Int("aggrows", 1_000_000, "synthetic campaign size for -agg")
	ckpt := fs.Bool("ckpt", false, "run the delta-checkpoint benchmark (cold vs warm Prepare, full-restore vs delta-walk); alone, skips the per-layer benches")
	stratB := fs.Bool("strat", false, "run the stratified-sampling benchmark (injections to target CI, stratified vs uniform, every benchmark); alone, skips the per-layer benches")
	staticB := fs.Bool("static", false, "run the static-resolution benchmark (soft-layer stratified live injections to target CI, demanded-bits on vs off, every benchmark) -> BENCH_static.json; alone, skips the per-layer benches")
	stratCI := fs.Float64("stratci", 0, "target CI half-width for -strat/-static (0 = the paper's 2.88% margin, or 9% in -short)")
	var out string
	fs.StringVar(&out, "out", "", "output file (default BENCH_<date>.json)")
	fs.StringVar(&out, "o", "", "alias for -out")
	force := fs.Bool("force", false, "overwrite an existing output file instead of refusing")
	fs.Parse(args)

	cfg, err := micro.ConfigByName(*cfgName)
	if err != nil {
		return err
	}
	st, err := micro.ParseStructure(*stName)
	if err != nil {
		return err
	}
	names := vulnstack.Benchmarks()
	switch {
	case *benches == "all":
	case *benches != "":
		names = strings.Split(*benches, ",")
	case *agg, *ckpt, *stratB, *staticB:
		// -agg/-ckpt/-strat/-static with no explicit benchmark list
		// measure only their own subject (-strat and -static iterate
		// benchmarks on their own).
		names = nil
	}
	stratNames := vulnstack.Benchmarks()
	if *benches != "" && *benches != "all" {
		stratNames = strings.Split(*benches, ",")
	}
	if *short {
		if (*benches == "" || *benches == "all") && len(names) > 3 {
			names = names[:3]
		}
		if (*benches == "" || *benches == "all") && len(stratNames) > 3 {
			stratNames = stratNames[:3]
		}
		if *n > 30 {
			*n = 30
		}
		if *aggRows > 150_000 {
			*aggRows = 150_000
		}
	}
	file := out
	if file == "" {
		file = "BENCH_" + time.Now().Format("2006-01-02") + ".json"
		if *staticB && len(names) == 0 && !*agg && !*ckpt && !*stratB {
			file = "BENCH_static.json"
		}
	}
	if !*force {
		// Refuse to clobber an existing report: a dated default collides
		// with a same-day run, a fixed -out with any earlier one.
		if _, err := os.Stat(file); err == nil {
			return fmt.Errorf("bench: output file %s already exists (pass -force to overwrite, or -o FILE for a different name)", file)
		}
	}

	rep := BenchReport{
		Date:       time.Now().Format(time.RFC3339),
		Config:     cfg.Name,
		Struct:     st.String(),
		N:          *n,
		Seed:       *seed,
		Benchmarks: make(map[string]map[string]LayerBench),
	}
	var microSpeedups, archSpeedups, softSpeedups []float64
	for _, bench := range names {
		lb, err := benchOne(bench, cfg, st, *n, *seed)
		if err != nil {
			return fmt.Errorf("bench %s: %w", bench, err)
		}
		rep.Benchmarks[bench] = lb
		microSpeedups = append(microSpeedups, lb["micro"].Speedup)
		archSpeedups = append(archSpeedups, lb["arch"].Speedup)
		softSpeedups = append(softSpeedups, lb["soft"].Speedup)
		fmt.Printf("%-10s micro %7.2fus -> %7.2fus (%4.2fx, es %3.0f%%)  arch %7.2fus -> %7.2fus (%4.2fx)  soft %7.2fus -> %7.2fus (%4.2fx)\n",
			bench,
			float64(lb["micro"].NsPerInjectionBase)/1e3, float64(lb["micro"].NsPerInjection)/1e3,
			lb["micro"].Speedup, 100*lb["micro"].EarlyStopRate,
			float64(lb["arch"].NsPerInjectionBase)/1e3, float64(lb["arch"].NsPerInjection)/1e3, lb["arch"].Speedup,
			float64(lb["soft"].NsPerInjectionBase)/1e3, float64(lb["soft"].NsPerInjection)/1e3, lb["soft"].Speedup)
	}
	if len(names) > 0 {
		rep.MedianMicroSpeedup = median(microSpeedups)
		rep.MedianArchSpeedup = median(archSpeedups)
		rep.MedianSoftSpeedup = median(softSpeedups)
		rep.ArchFloor, rep.SoftFloor = archSpeedupFloor, softSpeedupFloor
		if rep.MedianArchSpeedup < archSpeedupFloor {
			return fmt.Errorf("bench: median arch-layer speedup %.2fx is below the %.1fx floor", rep.MedianArchSpeedup, archSpeedupFloor)
		}
		if rep.MedianSoftSpeedup < softSpeedupFloor {
			return fmt.Errorf("bench: median soft-layer speedup %.2fx is below the %.1fx floor", rep.MedianSoftSpeedup, softSpeedupFloor)
		}
	}

	if *agg {
		ab, err := benchAgg(*aggRows, *seed)
		if err != nil {
			return fmt.Errorf("bench agg: %w", err)
		}
		rep.Aggregation = ab
		fmt.Printf("aggregation %d rows: jsonl %.1f Mrows/s (%d bytes) -> columnar %.1f Mrows/s (%d bytes), %.0fx; filtered %.2fms\n",
			ab.Rows, ab.RowsPerSecJSONL/1e6, ab.JSONLBytes, ab.RowsPerSecColumnar/1e6, ab.SegBytes,
			ab.Speedup, float64(ab.NsColumnarFiltered)/1e6)
	}

	if *ckpt {
		cb, err := benchCkpt(cfg, st, *n, *seed)
		if err != nil {
			return fmt.Errorf("bench ckpt: %w", err)
		}
		rep.Checkpoint = cb
		fmt.Printf("checkpoint %s: prepare cold %.1fms -> warm %.2fms (%.0fx); per-injection full-restore %.2fus -> delta-walk %.2fus (%.2fx); %d ckpts in %d bytes = %.2fx of 12 full snapshots\n",
			cb.Bench, float64(cb.NsPrepareCold)/1e6, float64(cb.NsPrepareWarm)/1e6, cb.PrepareSpeedup,
			float64(cb.NsPerInjectionFullRestore)/1e3, float64(cb.NsPerInjectionDeltaWalk)/1e3, cb.RestoreSpeedup,
			cb.Checkpoints, cb.ChainBytes, cb.MemoryVsTwelveFull)
	}

	if *stratB {
		sb, err := benchStrat(stratNames, cfg, st, *stratCI, *seed, *short)
		if err != nil {
			return fmt.Errorf("bench strat: %w", err)
		}
		rep.Stratified = sb
		fmt.Printf("stratified (±%.2f%% at %.0f%%): median %.1fx fewer injections than the uniform worst case across %d benchmarks\n",
			100*sb.CI, 100*sb.Confidence, sb.MedianReduction, len(sb.Rows))
	}

	if *staticB {
		sb, err := benchStatic(stratNames, *stratCI, *seed, *short)
		if err != nil {
			return fmt.Errorf("bench static: %w", err)
		}
		rep.Static = sb
		fmt.Printf("static resolution (±%.2f%% at %.0f%%): %d/%d benchmarks strictly fewer live injections than the stratified baseline (median %.2fx)\n",
			100*sb.CI, 100*sb.Confidence, sb.FewerCount, len(sb.Rows), sb.MedianReduction)
	}

	blob, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(file, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	if len(names) > 0 {
		fmt.Printf("median speedup over the reference engine: micro %.2fx, arch %.2fx (floor %.1fx), soft %.2fx (floor %.1fx); ",
			rep.MedianMicroSpeedup, rep.MedianArchSpeedup, archSpeedupFloor, rep.MedianSoftSpeedup, softSpeedupFloor)
	}
	fmt.Printf("wrote %s\n", file)
	return nil
}

// benchAgg measures re-aggregation throughput over one synthetic stored
// campaign: the JSONL re-parse baseline (what every load paid before
// the columnar plane) against the streaming columnar cursor. Both paths
// must produce the exact same Tally, and the columnar path must clear a
// speedup floor — 20x at full scale (>= 10^6 rows), 5x on the small CI
// sizes where constant costs weigh more.
func benchAgg(rows int, seed int64) (*AggBench, error) {
	dir, err := os.MkdirTemp("", "vulnstack-agg")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := results.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	recs := syntheticRecords(rows, seed)
	k := results.Key{Layer: "micro", Target: "synthetic/agg", Config: "A72", Struct: "mix", Seed: seed}

	// JSONL baseline: re-parse the interchange file and tally, exactly
	// the pre-columnar load path.
	if err := store.SaveJSONL(k, recs); err != nil {
		return nil, err
	}
	jsonlFile := filepath.Join(dir, k.ID()+results.JSONLExt)
	jst, err := os.Stat(jsonlFile)
	if err != nil {
		return nil, err
	}
	var jsonlTally results.Tally
	nsJSONL, err := bestOf(3, func() error {
		f, err := os.Open(jsonlFile)
		if err != nil {
			return err
		}
		defer f.Close()
		got, err := results.ReadJSONL(f, rows)
		if err != nil {
			return err
		}
		jsonlTally = results.TallyOf(got)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Columnar path: native segment, streaming cursor tally.
	if err := store.Save(k, recs); err != nil {
		return nil, err
	}
	sst, err := os.Stat(filepath.Join(dir, k.ID()+results.SegExt))
	if err != nil {
		return nil, err
	}
	var colTally results.Tally
	nsCol, err := bestOf(3, func() error {
		t, err := store.TallyPrefix(k, rows)
		if err != nil {
			return err
		}
		colTally = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	if colTally != jsonlTally {
		return nil, fmt.Errorf("columnar tally differs from JSONL tally — losslessness violated")
	}

	// Filtered query: pushed-down outcome filter, SDC only.
	var filteredTally results.Tally
	nsFiltered, err := bestOf(3, func() error {
		c, ok, err := store.Cursor(k, results.Filter{Outcomes: []results.Outcome{results.SDC}})
		if err != nil || !ok {
			return fmt.Errorf("filtered cursor: ok=%v err=%v", ok, err)
		}
		defer c.Close()
		filteredTally, err = c.Tally()
		return err
	})
	if err != nil {
		return nil, err
	}
	if filteredTally.N != jsonlTally.Outcomes[results.SDC] {
		return nil, fmt.Errorf("filtered tally has %d records, want %d SDC", filteredTally.N, jsonlTally.Outcomes[results.SDC])
	}

	ab := &AggBench{
		Rows:               rows,
		JSONLBytes:         jst.Size(),
		SegBytes:           sst.Size(),
		NsJSONL:            nsJSONL,
		NsColumnar:         nsCol,
		NsColumnarFiltered: nsFiltered,
		RowsPerSecJSONL:    float64(rows) / (float64(nsJSONL) / 1e9),
		RowsPerSecColumnar: float64(rows) / (float64(nsCol) / 1e9),
	}
	if nsCol > 0 {
		ab.Speedup = float64(nsJSONL) / float64(nsCol)
	}
	floor := 5.0
	if rows >= 1_000_000 {
		floor = 20.0
	}
	if ab.Speedup < floor {
		return nil, fmt.Errorf("columnar re-aggregation speedup %.1fx is below the %.0fx floor", ab.Speedup, floor)
	}
	return ab, nil
}

// benchCkpt measures what the delta-checkpoint chain buys on one
// representative benchmark: Prepare cost cold (golden run, chain
// capture, persist) against warm (decode the persisted chain — zero
// golden instructions), and per-injection cost with a boot-only full
// snapshot against the dense delta chain. All paths must produce
// bit-identical tallies.
func benchCkpt(cfg micro.Config, st micro.Structure, n int, seed int64) (*CkptBench, error) {
	const bench = "sha"
	dir, err := os.MkdirTemp("", "vulnstack-ckpt")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	mk := func(snapshots int, withStore bool) (*vulnstack.System, error) {
		sys, err := vulnstack.Build(vulnstack.Target{Bench: bench, Seed: 1}, isa.VSA64)
		if err != nil {
			return nil, err
		}
		sys.Workers = 1
		if snapshots > 0 {
			sys.Snapshots = snapshots
		}
		if withStore {
			store, err := results.OpenStore(dir)
			if err != nil {
				return nil, err
			}
			sys.Store = store
		}
		return sys, nil
	}
	prepare := func(snapshots int, withStore bool) (*inject.Campaign, int64, error) {
		sys, err := mk(snapshots, withStore)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		cp, err := sys.MicroCampaign(cfg)
		return cp, time.Since(start).Nanoseconds(), err
	}

	cold, nsCold, err := prepare(0, true)
	if err != nil {
		return nil, err
	}
	if cold.Resumed {
		return nil, fmt.Errorf("cold Prepare on an empty store claims to have resumed")
	}
	warm, nsWarm, err := prepare(0, true)
	if err != nil {
		return nil, err
	}
	if !warm.Resumed {
		return nil, fmt.Errorf("warm Prepare did not resume from the persisted chain")
	}
	full, _, err := prepare(1, false)
	if err != nil {
		return nil, err
	}

	run := func(cp *inject.Campaign) (results.Tally, int64) {
		start := time.Now()
		recs := cp.Records(st, n, 0, seed, nil)
		return results.TallyOf(recs), time.Since(start).Nanoseconds()
	}
	deltaTally, nsDelta := run(cold)
	warmTally, _ := run(warm)
	fullTally, nsFull := run(full)
	if deltaTally != fullTally || warmTally != fullTally {
		return nil, fmt.Errorf("checkpoint paths disagree: full %+v, delta %+v, warm %+v — equivalence violated",
			fullTally, deltaTally, warmTally)
	}

	stats := cold.Chain().Stats()
	chainBytes := int64(stats.BaseBytes + stats.DeltaBytes + stats.AuxBytes)
	fullBytes := int64(vulnstack.RAMSize + len(cold.Chain().StateAt(stats.Checkpoints-1, nil, -1)))
	cb := &CkptBench{
		Bench:                     bench,
		Snapshots:                 vulnstack.DefaultSnapshots,
		Checkpoints:               stats.Checkpoints,
		ChainBytes:                chainBytes,
		FullSnapshotBytes:         fullBytes,
		MemoryVsTwelveFull:        float64(chainBytes) / float64(12*fullBytes),
		NsPrepareCold:             nsCold,
		NsPrepareWarm:             nsWarm,
		NsPerInjectionFullRestore: nsFull / int64(n),
		NsPerInjectionDeltaWalk:   nsDelta / int64(n),
	}
	if nsWarm > 0 {
		cb.PrepareSpeedup = float64(nsCold) / float64(nsWarm)
	}
	if nsDelta > 0 {
		cb.RestoreSpeedup = float64(nsFull) / float64(nsDelta)
	}
	return cb, nil
}

// benchStrat compares injections-to-target-CI for stratified against
// uniform sampling at the micro layer on every benchmark. The micro
// layer is where adaptive stratification pays: its outcomes are
// masked-heavy (far from the p = 0.5 the uniform worst-case budget
// assumes), so the per-stratum variance estimates let the allocator
// stop early while promising the same bound. Two gates are asserted:
// every stratified estimate must land inside the uniform run's CI
// (unbiasedness), and a majority of benchmarks must clear the reduction
// floor — 3x at the paper's full-scale margin, 1.5x at the small -short
// scale where the per-stratum pilot is a larger share of the budget.
func benchStrat(names []string, cfg micro.Config, st micro.Structure, ci float64, seed int64, short bool) (*StratBench, error) {
	opt := vulnstack.StratOptions{CI: ci}
	floor := 3.0
	if short {
		floor = 1.5
		if opt.CI <= 0 {
			opt.CI = 0.09
		}
		opt.Pool = 2000
		opt.N0 = 8
	}
	if opt.CI <= 0 {
		opt.CI = vulnstack.DefaultStratCI
	}
	sb := &StratBench{
		CI:             opt.CI,
		Confidence:     0.99,
		Pool:           vulnstack.DefaultStratPool,
		Struct:         st.String(),
		ReductionFloor: floor,
	}
	if opt.Pool > 0 {
		sb.Pool = opt.Pool
	}
	nUniform := vulnstack.UniformSamplesFor(opt.CI, sb.Confidence)
	margin := vulnstack.Margin(nUniform)

	var reductions []float64
	cleared := 0
	for _, bench := range names {
		sys, err := vulnstack.Build(vulnstack.Target{Bench: bench, Seed: 1}, isa.VSA64)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		tally, err := sys.MicroTally(cfg, st, nUniform, seed)
		if err != nil {
			return nil, fmt.Errorf("%s uniform: %w", bench, err)
		}
		nsUniform := time.Since(start).Nanoseconds()
		start = time.Now()
		res, err := sys.StratMicro(cfg, st, opt, seed)
		if err != nil {
			return nil, fmt.Errorf("%s stratified: %w", bench, err)
		}
		nsStrat := time.Since(start).Nanoseconds()

		row := StratRow{
			Bench:      bench,
			NUniform:   nUniform,
			NStrat:     res.N,
			Strata:     len(res.Strata),
			Reduction:  float64(nUniform) / float64(res.N),
			EstUniform: tally.AVF(),
			EstStrat:   res.Split.Total(),
			HalfWidth:  res.HalfWidth,
			NsUniform:  nsUniform,
			NsStrat:    nsStrat,
		}
		d := row.EstStrat - row.EstUniform
		row.WithinCI = d >= -margin && d <= margin
		if !row.WithinCI {
			return nil, fmt.Errorf("%s: stratified estimate %.4f outside the uniform CI %.4f ± %.4f — unbiasedness violated",
				bench, row.EstStrat, row.EstUniform, margin)
		}
		if row.Reduction >= floor {
			cleared++
		}
		reductions = append(reductions, row.Reduction)
		sb.Rows = append(sb.Rows, row)
		fmt.Printf("stratified %-10s uniform %4d -> strat %4d (%4.1fx, %2d strata)  est %5.2f%% vs %5.2f%% (hw ±%.2f%%)  %.1fs -> %.1fs\n",
			bench, nUniform, res.N, row.Reduction, row.Strata,
			100*row.EstUniform, 100*row.EstStrat, 100*row.HalfWidth,
			float64(nsUniform)/1e9, float64(nsStrat)/1e9)
	}
	sb.MedianReduction = median(reductions)
	if len(sb.Rows) > 0 && cleared*2 <= len(sb.Rows) {
		return nil, fmt.Errorf("only %d/%d benchmarks reached the %.1fx injection-reduction floor (median %.1fx)",
			cleared, len(sb.Rows), floor, sb.MedianReduction)
	}
	return sb, nil
}

// benchStatic compares live-injections-to-target-CI for a soft-layer
// stratified campaign with and without the bit-precise demanded-bits
// pass on every benchmark. The soft layer is the one with a sound
// per-site verdict (the IR definition a fault targets is static), so
// every provably-Masked stratum contributes its whole mass to the
// estimate with zero injections. Two gates are asserted: the two
// reweighted estimates must agree within their combined CI half-widths
// (unbiasedness — the resolved mass replaces sampling, it must not move
// the estimate), and a strict majority of benchmarks must perform
// strictly fewer live injections than the stratified baseline at the
// same bound.
func benchStatic(names []string, ci float64, seed int64, short bool) (*StaticBench, error) {
	opt := vulnstack.StratOptions{CI: ci}
	if short {
		if opt.CI <= 0 {
			opt.CI = 0.09
		}
		opt.Pool = 2000
		opt.N0 = 8
	}
	if opt.CI <= 0 {
		opt.CI = vulnstack.DefaultStratCI
	}
	sb := &StaticBench{
		CI:         opt.CI,
		Confidence: 0.99,
		Pool:       vulnstack.DefaultStratPool,
	}
	if opt.Pool > 0 {
		sb.Pool = opt.Pool
	}

	run := func(bench string, static bool) (vulnstack.StratResult, int64, error) {
		// Two systems per benchmark: the static flag is baked into the
		// cached soft campaign at first use, so the modes cannot share one.
		sys, err := vulnstack.Build(vulnstack.Target{Bench: bench, Seed: 1}, isa.VSA64)
		if err != nil {
			return vulnstack.StratResult{}, 0, err
		}
		sys.Static = static
		start := time.Now()
		res, err := sys.StratSVF(opt, seed)
		return res, time.Since(start).Nanoseconds(), err
	}

	var reductions []float64
	for _, bench := range names {
		base, nsBase, err := run(bench, false)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", bench, err)
		}
		stat, nsStatic, err := run(bench, true)
		if err != nil {
			return nil, fmt.Errorf("%s static: %w", bench, err)
		}
		row := StaticRow{
			Bench:        bench,
			NBase:        base.N,
			NStatic:      stat.N,
			Resolved:     stat.Resolved,
			ResolvedFrac: float64(stat.Resolved) / float64(stat.Pool),
			EstBase:      base.Split.Total(),
			EstStatic:    stat.Split.Total(),
			HWBase:       base.HalfWidth,
			HWStatic:     stat.HalfWidth,
			Fewer:        stat.N < base.N,
			NsBase:       nsBase,
			NsStatic:     nsStatic,
		}
		d := row.EstStatic - row.EstBase
		bound := row.HWBase + row.HWStatic
		row.WithinCI = d >= -bound && d <= bound
		if !row.WithinCI {
			return nil, fmt.Errorf("%s: static estimate %.4f differs from baseline %.4f by more than the combined half-widths ±%.4f — unbiasedness violated",
				bench, row.EstStatic, row.EstBase, bound)
		}
		if row.Fewer {
			sb.FewerCount++
		}
		if stat.N > 0 {
			reductions = append(reductions, float64(base.N)/float64(stat.N))
		}
		sb.Rows = append(sb.Rows, row)
		fmt.Printf("static %-10s live %4d -> %4d (%4.2fx, %4.1f%% resolved)  est %5.2f%% vs %5.2f%% (hw ±%.2f%% / ±%.2f%%)  %.1fs -> %.1fs\n",
			bench, base.N, stat.N, float64(base.N)/float64(stat.N), 100*row.ResolvedFrac,
			100*row.EstBase, 100*row.EstStatic, 100*row.HWBase, 100*row.HWStatic,
			float64(nsBase)/1e9, float64(nsStatic)/1e9)
	}
	sb.MedianReduction = median(reductions)
	if len(sb.Rows) > 0 && sb.FewerCount*2 <= len(sb.Rows) {
		return nil, fmt.Errorf("only %d/%d benchmarks performed strictly fewer live injections with static resolution (median %.2fx)",
			sb.FewerCount, len(sb.Rows), sb.MedianReduction)
	}
	return sb, nil
}

// syntheticRecords draws a deterministic mixed campaign shaped like a
// real micro-layer store: skewed outcomes, ~30%% visibility, rotating
// structure targets.
func syntheticRecords(rows int, seed int64) []results.Record {
	r := rand.New(rand.NewSource(seed))
	targets := []string{"RF", "LSQ", "L1i", "L1d", "L2"}
	recs := make([]results.Record, rows)
	coord := uint64(0)
	for i := range recs {
		coord += uint64(1 + r.Intn(2000))
		rec := results.Record{
			Index:  i,
			Layer:  results.LayerMicro,
			Target: targets[r.Intn(len(targets))],
			Coord:  coord,
			Entry:  r.Intn(4096),
			Bit:    r.Intn(64),
			Slot:   r.Intn(4),
		}
		switch p := r.Intn(100); {
		case p < 62:
			rec.Outcome = results.Masked
		case p < 80:
			rec.Outcome = results.SDC
		case p < 94:
			rec.Outcome = results.Crash
		default:
			rec.Outcome = results.Detected
		}
		if r.Intn(100) < 30 {
			rec.Visible = true
			rec.Live = true
			rec.FPM = micro.FPM(1 + r.Intn(int(micro.NumFPM)-1))
			rec.Contact = rec.Coord + uint64(r.Intn(500))
		}
		rec.EarlyStop = r.Intn(100) < 20
		recs[i] = rec
	}
	return recs
}

// bestOf runs f reps times and returns the fastest wall-clock run.
func bestOf(reps int, f func() error) (int64, error) {
	best := int64(-1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ns := time.Since(start).Nanoseconds()
		if best < 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// benchOne times one benchmark across the three layers on the fast
// path and on the reference engine. Each engine gets its own system
// and golden run, and preparation happens before the clock starts: the
// measured quantity is per-injection cost only. Every attempt asserts
// bit-identical tallies. The arch and soft layers keep the per-mode
// minimum of three attempts — their two modes share every other cost,
// so one descheduled slice would otherwise flip the ratio; the micro
// layer's reference runs are long enough to be measured once.
func benchOne(bench string, cfg micro.Config, st micro.Structure, n int, seed int64) (map[string]LayerBench, error) {
	mk := func(reference bool) (*vulnstack.System, error) {
		sys, err := vulnstack.Build(vulnstack.Target{Bench: bench, Seed: 1}, isa.VSA64)
		if err != nil {
			return nil, err
		}
		sys.Workers = 1 // single-threaded: stable per-injection cost
		sys.Reference = reference
		return sys, nil
	}
	fast, err := mk(false)
	if err != nil {
		return nil, err
	}
	ref, err := mk(true)
	if err != nil {
		return nil, err
	}

	run := func(sys *vulnstack.System, layer string) ([]results.Record, int64, error) {
		var recs []results.Record
		switch layer {
		case "micro":
			cp, err := sys.MicroCampaign(cfg)
			if err != nil {
				return nil, 0, err
			}
			start := time.Now()
			recs = cp.Records(st, n, 0, seed, nil)
			return recs, time.Since(start).Nanoseconds(), nil
		case "arch":
			cp, err := sys.ArchCampaign()
			if err != nil {
				return nil, 0, err
			}
			start := time.Now()
			recs = cp.Records(micro.FPMWD, n, 0, seed, nil)
			return recs, time.Since(start).Nanoseconds(), nil
		default:
			cp, err := sys.LLFICampaign()
			if err != nil {
				return nil, 0, err
			}
			start := time.Now()
			recs = cp.Records(n, 0, seed, nil)
			return recs, time.Since(start).Nanoseconds(), nil
		}
	}

	out := make(map[string]LayerBench)
	for _, layer := range []string{"micro", "arch", "soft"} {
		attempts := 3
		if layer == "micro" {
			attempts = 1
		}
		var fastNs, refNs int64
		var es int
		for try := 0; try < attempts; try++ {
			f, fNs, err := run(fast, layer)
			if err != nil {
				return nil, err
			}
			r, rNs, err := run(ref, layer)
			if err != nil {
				return nil, err
			}
			if results.TallyOf(f) != results.TallyOf(r) {
				return nil, fmt.Errorf("%s layer: fast-path tally differs from the reference engine's — equivalence violated", layer)
			}
			if fastNs == 0 || fNs < fastNs {
				fastNs = fNs
			}
			if refNs == 0 || rNs < refNs {
				refNs = rNs
			}
			es = 0
			for _, rec := range f {
				if rec.EarlyStop {
					es++
				}
			}
		}
		lb := LayerBench{
			NsPerInjection:     fastNs / int64(n),
			NsPerInjectionBase: refNs / int64(n),
			EarlyStopRate:      float64(es) / float64(n),
		}
		if fastNs > 0 {
			lb.Speedup = float64(refNs) / float64(fastNs)
		}
		if layer == "soft" && lb.Speedup < softBenchSpeedupFloor {
			return nil, fmt.Errorf("soft layer speedup %.2fx persists below the %.2fx floor — the fast path has regressed", lb.Speedup, softBenchSpeedupFloor)
		}
		out[layer] = lb
	}
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Command vulnstack regenerates the paper's tables and figures and runs
// ad-hoc vulnerability measurements.
//
// Usage:
//
//	vulnstack list
//	vulnstack experiment fig4 [-navf N] [-npvf N] [-nsvf N] [-bench a,b] [-seed S] [-store DIR]
//	vulnstack analyze [-bench a,b] [-seed S] [-store DIR] [-ace=false] [-bits]
//	vulnstack run -bench sha [-config A72] [-harden]
//	vulnstack campaign -bench sha -config A72 -struct L2 -n 200 [-store DIR | -reference] [-cpuprofile F] [-memprofile F]
//	vulnstack campaign -layer uniform|soft -bench sha -n 200 [-store DIR]
//	vulnstack campaign -strat [-layer micro|arch|soft] [-ci 0.0288] [-conf 0.99] [-pool 20000] [-n0 N] [-maxnew N] [-store DIR]
//	vulnstack results [list|show|export] -store DIR [-id ID] [filters]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"vulnstack"
	"vulnstack/internal/ckpt"
	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
	"vulnstack/internal/report"
	"vulnstack/internal/results"
	"vulnstack/internal/vuln"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "experiment", "exp":
		err = cmdExperiment(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "campaign":
		err = cmdCampaign(os.Args[2:])
	case "results":
		err = cmdResults(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vulnstack:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  vulnstack list                          benchmarks, configs, experiments
  vulnstack experiment <id> [flags]       regenerate a paper table/figure
  vulnstack analyze [flags]               static no-execution analysis report
  vulnstack run [flags]                   run one benchmark on a core model
  vulnstack campaign [flags]              one fault-injection campaign
  vulnstack results <verb> [flags]        list / show / export stored campaigns`)
}

func cmdList() error {
	fmt.Println("benchmarks:")
	for _, b := range vulnstack.Benchmarks() {
		fmt.Printf("  %s\n", b)
	}
	fmt.Println("microarchitectures:")
	for _, c := range vulnstack.Configs() {
		fmt.Printf("  %-4s (%v)\n", c.Name, c.ISA)
	}
	fmt.Println("experiments:")
	fmt.Printf("  %s\n", strings.Join(vulnstack.Experiments(), " "))
	return nil
}

func expFlags(args []string) (*flag.FlagSet, *vulnstack.Options) {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	o := vulnstack.DefaultOptions()
	fs.IntVar(&o.NAVF, "navf", o.NAVF, "microarchitectural injections per structure")
	fs.IntVar(&o.NPVF, "npvf", o.NPVF, "architecture-level injections per FPM")
	fs.IntVar(&o.NSVF, "nsvf", o.NSVF, "software-level injections")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "input and sampling seed")
	fs.IntVar(&o.Workers, "workers", o.Workers, "campaign worker goroutines (0 = all CPUs; tallies are identical for any value)")
	fs.StringVar(&o.StoreDir, "store", o.StoreDir, "persistent results store directory (reuse + top-up of stored records)")
	benches := fs.String("bench", "", "comma-separated benchmark subset")
	fs.Parse(args)
	if *benches != "" {
		o.Benches = strings.Split(*benches, ",")
	}
	return fs, &o
}

func cmdExperiment(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("experiment id required (one of %s)", strings.Join(vulnstack.Experiments(), ", "))
	}
	id := args[0]
	_, o := expFlags(args[1:])
	start := time.Now()
	r, err := vulnstack.RunExperiment(id, *o)
	if err != nil {
		return err
	}
	fmt.Print(r.String())
	fmt.Printf("\n[%s regenerated in %v]\n", id, time.Since(start).Round(time.Millisecond))
	return nil
}

// cmdAnalyze emits the static-analysis report: no-execution PVF/FPM
// bounds, hardening-coverage verification, and — when a store is
// attached — the diff against stored injection campaigns. It performs
// zero fault injections.
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	o := vulnstack.DefaultOptions()
	fs.Int64Var(&o.Seed, "seed", o.Seed, "input and sampling seed (also selects stored campaigns)")
	fs.IntVar(&o.Workers, "workers", o.Workers, "analysis fan-out across benchmarks (0 = all CPUs)")
	fs.StringVar(&o.StoreDir, "store", o.StoreDir, "results store to diff static bounds against stored injection campaigns")
	benches := fs.String("bench", "", "comma-separated benchmark subset")
	withACE := fs.Bool("ace", true, "include the dynamic-trace ACE column (runs a golden execution, still no injections)")
	bitsRep := fs.Bool("bits", false, "bit-precise resolution report: per-benchmark statically-resolved fault-site fractions at every layer")
	fs.Parse(args)
	if *benches != "" {
		o.Benches = strings.Split(*benches, ",")
	}
	// A store named on the command line must exist and hold campaigns:
	// silently rendering an all-dash diff table against a store that was
	// mistyped or never populated looks like a real (empty) result.
	if o.StoreDir != "" {
		if err := checkStore(o.StoreDir); err != nil {
			return fmt.Errorf("analyze: %w", err)
		}
	}
	start := time.Now()
	lab := vulnstack.NewLab(o)
	var r *report.Report
	var err error
	if *bitsRep {
		r, err = lab.AnalyzeBits()
	} else {
		r, err = lab.Analyze(vulnstack.AnalyzeOptions{WithACE: *withACE})
	}
	if err != nil {
		return err
	}
	fmt.Print(r.String())
	fmt.Printf("\n[static analysis in %v]\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// checkStore rejects a -store argument naming a missing directory or a
// store with no campaigns in it, so analyze fails loudly instead of
// printing a zero-row diff.
func checkStore(dir string) error {
	fi, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("store directory %q does not exist (run a campaign or experiment with -store %s first)", dir, dir)
	}
	if !fi.IsDir() {
		return fmt.Errorf("store path %q is not a directory", dir)
	}
	store, err := results.OpenStore(dir)
	if err != nil {
		return err
	}
	ms, err := store.List()
	if err != nil {
		return err
	}
	if len(ms) == 0 {
		return fmt.Errorf("store %q holds no campaigns (run a campaign or experiment with -store %s first)", dir, dir)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	bench := fs.String("bench", "sha", "benchmark name")
	cfgName := fs.String("config", "A72", "microarchitecture (A9, A15, A57, A72)")
	seed := fs.Int64("seed", 1, "input seed")
	hard := fs.Bool("harden", false, "apply the fault-tolerance transform")
	fs.Parse(args)

	cfg, err := micro.ConfigByName(*cfgName)
	if err != nil {
		return err
	}
	sys, err := vulnstack.Build(vulnstack.Target{Bench: *bench, Seed: *seed, Harden: *hard}, cfg.ISA)
	if err != nil {
		return err
	}
	core := micro.New(cfg, sys.Image.NewMemory(), sys.Image.Entry)
	start := time.Now()
	if !core.Run(1 << 30) {
		return fmt.Errorf("did not halt: %v", core)
	}
	fmt.Printf("benchmark  %s (seed %d, harden=%v) on %s (%v)\n", *bench, *seed, *hard, cfg.Name, cfg.ISA)
	fmt.Printf("halt       %v (exit %d)\n", core.Bus.Halt, core.Bus.ExitCode)
	fmt.Printf("instrs     %d (kernel %d, %.2f%%)\n", core.Instret, core.KInstr,
		100*float64(core.KInstr)/float64(core.Instret))
	fmt.Printf("cycles     %d (IPC %.2f)\n", core.Cycle, float64(core.Instret)/float64(core.Cycle))
	fmt.Printf("output     %d bytes\n", len(core.Bus.Out))
	fmt.Printf("simulated in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	bench := fs.String("bench", "sha", "benchmark name")
	cfgName := fs.String("config", "A72", "microarchitecture")
	stName := fs.String("struct", "RF", "structure (RF, LSQ, L1i, L1d, L2)")
	layer := fs.String("layer", "micro", "injection layer: micro (structure faults), uniform (register-uniform PVF: the arch layer's FPM-none target, the quantity the static/ACE bounds dominate) or soft (software-level IR faults); with -strat: micro, arch or soft")
	n := fs.Int("n", 200, "number of injections")
	strat := fs.Bool("strat", false, "two-level stratified campaign: adaptive per-stratum injection until the reweighted CI meets -ci (replaces -n)")
	ci := fs.Float64("ci", vulnstack.DefaultStratCI, "stratified target CI half-width (default: the paper's 2.88% margin for 2000 uniform samples)")
	conf := fs.Float64("conf", 0.99, "stratified CI confidence level")
	pool := fs.Int("pool", vulnstack.DefaultStratPool, "stratified fault-site pool size")
	n0 := fs.Int("n0", 0, "stratified pilot injections per stratum (0 = default)")
	maxNew := fs.Int("maxnew", 0, "stratified fresh-injection budget for this invocation (0 = unbounded; a truncated run resumes from -store bit-identically)")
	fpmName := fs.String("fpm", "WD", "arch-layer fault model for -strat -layer arch (WD, WI, WOI)")
	seed := fs.Int64("seed", 1, "sampling seed")
	hard := fs.Bool("harden", false, "apply the fault-tolerance transform")
	workers := fs.Int("workers", 0, "campaign worker goroutines (0 = all CPUs; tallies are identical for any value)")
	storeDir := fs.String("store", "", "persistent results store directory (reuse + top-up of stored records)")
	reference := fs.Bool("reference", false, "run the reference engine: every shortcut off (step engines, no lifetime tables, no early-stop, no dead-def filter, no static resolution, no decode memo); tallies are identical, records differ only in early-stop and static-resolution provenance; never uses -store")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (runtime/pprof) to this file")
	fs.Parse(args)

	layers := []string{"micro", "uniform", "soft"}
	if *strat {
		layers = []string{"micro", "arch", "soft"}
	}
	if !slices.Contains(layers, *layer) {
		return fmt.Errorf("campaign: unknown -layer %q (%s)", *layer, strings.Join(layers, ", "))
	}
	stopProf, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProf()

	cfg, err := micro.ConfigByName(*cfgName)
	if err != nil {
		return err
	}
	// The arch and soft injectors run the 64-bit ISA exclusively. Uniform
	// and soft campaigns use the sampling seed as the input seed too,
	// matching the lab's convention so `analyze -seed S -store DIR` finds
	// their records.
	t := vulnstack.Target{Bench: *bench, Seed: 1, Harden: *hard}
	is := isa.VSA64
	if *layer == "micro" {
		is = cfg.ISA
	} else if !*strat {
		t.Seed = *seed
	}
	sys, err := campaignSystem(t, is, *workers, *storeDir, *reference)
	if err != nil {
		return err
	}
	switch {
	case *strat:
		opt := vulnstack.StratOptions{CI: *ci, Confidence: *conf, Pool: *pool, N0: *n0, MaxNew: *maxNew}
		return stratCampaign(sys, *layer, cfg, *stName, *fpmName, *seed, opt)
	case *layer != "micro":
		return splitCampaign(sys, *layer, *n, *seed)
	}
	return microCampaign(sys, cfg, *stName, *n, *seed)
}

// campaignSystem builds the System behind every campaign path (micro,
// uniform, soft and strat) from the shared flags. A reference run
// refuses -store before the directory is opened, so nothing is written
// into it.
func campaignSystem(t vulnstack.Target, is isa.ISA, workers int, storeDir string, reference bool) (*vulnstack.System, error) {
	if reference && storeDir != "" {
		return nil, fmt.Errorf("campaign: -reference never reads or writes a results store; drop -store")
	}
	sys, err := vulnstack.Build(t, is)
	if err != nil {
		return nil, err
	}
	sys.Workers = workers
	sys.Reference = reference
	if storeDir != "" {
		if sys.Store, err = results.OpenStore(storeDir); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// storedN is how many records the store already holds under key k (0
// without a store).
func storedN(sys *vulnstack.System, k results.Key) (int, error) {
	if sys.Store == nil {
		return 0, nil
	}
	m, ok, err := sys.Store.Manifest(k)
	if err != nil || !ok {
		return 0, err
	}
	return m.N, nil
}

// microCampaign runs one structure's microarchitectural AVF/HVF
// campaign.
func microCampaign(sys *vulnstack.System, cfg micro.Config, stName string, n int, seed int64) error {
	st, err := micro.ParseStructure(stName)
	if err != nil {
		return err
	}
	stored, err := storedN(sys, sys.MicroKey(cfg, st, seed))
	if err != nil {
		return err
	}
	start := time.Now()
	tally, err := sys.MicroTally(cfg, st, n, seed)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("%s on %s, %d faults into %s\n", sys.Target.Bench, cfg.Name, tally.N, st)
	fmt.Printf("  Masked   %6.2f%%\n", 100*tally.Frac(0))
	fmt.Printf("  SDC      %6.2f%%\n", 100*tally.Frac(1))
	fmt.Printf("  Crash    %6.2f%%\n", 100*tally.Frac(2))
	fmt.Printf("  Detected %6.2f%%\n", 100*tally.Frac(3))
	fmt.Printf("  AVF %.2f%%  HVF %.2f%%  (±%.2f%% at 99%%)\n",
		100*tally.AVF(), 100*tally.HVF(), 100*vulnstackMargin(tally.N))
	fmt.Printf("  FPM of visible: WD %.0f%% WI %.0f%% WOI %.0f%% ESC %.0f%%\n",
		100*tally.FPMShare(micro.FPMWD), 100*tally.FPMShare(micro.FPMWI),
		100*tally.FPMShare(micro.FPMWOI), 100*tally.FPMShare(micro.FPMESC))
	if sys.Store != nil {
		reused := min(stored, n)
		fmt.Printf("  store: reused %d records, ran %d new (id %s)\n",
			reused, n-reused, sys.MicroKey(cfg, st, seed).ID())
	}
	fmt.Printf("  %d injections in %v (%.1f/s)\n", tally.N, elapsed.Round(time.Millisecond),
		float64(tally.N)/elapsed.Seconds())
	return nil
}

// splitCampaign runs one uniform-sampled arch or soft campaign and
// prints its split. -layer uniform is the arch layer's register-uniform
// target (micro.FPMNone): bit flips uniform over (register, bit, dynamic
// instant), whose failure rate is the measured quantity that the
// dynamic ACE bound — and transitively the static bound of `vulnstack
// analyze` — provably dominates. -layer soft is the software-level
// (LLFI-style) campaign; on the fast path, faults the demanded-bits
// analysis proves masked are classified without running, with tallies
// bit-identical to the reference engine's.
func splitCampaign(sys *vulnstack.System, layer string, n int, seed int64) error {
	k := sys.SoftKey(seed)
	what := "software-level IR injections"
	metric := "SVF"
	measure := func() (vuln.Split, error) { return sys.SVF(n, seed) }
	if layer == "uniform" {
		k = sys.ArchKey(micro.FPMNone, seed)
		what, metric = "register-uniform injections", "uniform PVF"
		measure = func() (vuln.Split, error) { return sys.PVF(micro.FPMNone, n, seed) }
	}
	stored, err := storedN(sys, k)
	if err != nil {
		return err
	}
	start := time.Now()
	sp, err := measure()
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("%s (harden=%v), %d %s\n", sys.Target.Bench, sys.Target.Harden, n, what)
	fmt.Printf("  SDC      %6.2f%%\n", 100*sp.SDC)
	fmt.Printf("  Crash    %6.2f%%\n", 100*sp.Crash)
	fmt.Printf("  Detected %6.2f%%\n", 100*sp.Detected)
	fmt.Printf("  %s %.2f%%  (±%.2f%% at 99%%)\n", metric, 100*sp.Total(), 100*vulnstackMargin(n))
	if sys.Store != nil {
		reused := min(stored, n)
		fmt.Printf("  store: reused %d records, ran %d new (id %s)\n",
			reused, n-reused, k.ID())
	}
	fmt.Printf("  %d injections in %v (%.1f/s)\n", n, elapsed.Round(time.Millisecond),
		float64(n)/elapsed.Seconds())
	return nil
}

// stratCampaign runs one adaptive two-level stratified campaign at the
// requested layer and prints the unbiased reweighted estimate with the
// per-stratum breakdown and the provenance stamp (plan parameters +
// partition fingerprint) that identifies the record stream in a store.
func stratCampaign(sys *vulnstack.System, layer string, cfg micro.Config, stName, fpmName string, seed int64, opt vulnstack.StratOptions) error {
	start := time.Now()
	var res vulnstack.StratResult
	var what string
	var err error
	switch layer {
	case "micro":
		st, perr := micro.ParseStructure(stName)
		if perr != nil {
			return perr
		}
		what = fmt.Sprintf("%s structure faults on %s", st, cfg.Name)
		res, err = sys.StratMicro(cfg, st, opt, seed)
	case "arch":
		fpm, perr := results.ParseFPM(fpmName)
		if perr != nil {
			return perr
		}
		what = fmt.Sprintf("architectural %s faults", fpm)
		res, err = sys.StratPVF(fpm, opt, seed)
	default:
		what = "software-level IR faults"
		res, err = sys.StratSVF(opt, seed)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	target := opt.CI
	level := opt.Confidence
	nUniform := vulnstack.UniformSamplesFor(target, level)
	fmt.Printf("%s, stratified: %s\n", sys.Target.Bench, what)
	fmt.Printf("  failures (SDC+Crash) %6.2f%%  ±%.2f%% achieved at %.0f%% (target ±%.2f%%)\n",
		100*res.Split.Total(), 100*res.HalfWidth, 100*level, 100*target)
	fmt.Printf("  SDC %5.2f%%  Crash %5.2f%%  Detected %5.2f%%  Masked %5.2f%%\n",
		100*res.Split.SDC, 100*res.Split.Crash, 100*res.Split.Detected, 100*res.Split.Masked)
	ratio := "more"
	if res.N <= nUniform {
		ratio = "fewer"
	}
	fmt.Printf("  injections %d (%d fresh) from a %d-site pool; uniform worst case %d (%.1fx %s)\n",
		res.N, res.Fresh, res.Pool, nUniform,
		max(float64(nUniform)/float64(res.N), float64(res.N)/float64(nUniform)), ratio)
	if res.Resolved > 0 {
		fmt.Printf("  statically resolved %d of %d pool sites (%.1f%%): zero-injection certain mass\n",
			res.Resolved, res.Pool, 100*float64(res.Resolved)/float64(res.Pool))
	}
	fmt.Printf("  %-28s %7s %6s %7s %6s %6s %6s\n", "STRATUM", "SIZE", "N", "MASK", "SDC", "CRASH", "DET")
	for _, sr := range res.Strata {
		t := sr.Tally
		mark := ""
		if sr.Resolved {
			mark = " *static"
		}
		fmt.Printf("  %-28s %7d %6d %7d %6d %6d %6d%s\n", sr.Label, sr.Size, t.N,
			t.Outcomes[0], t.Outcomes[1], t.Outcomes[2], t.Outcomes[3], mark)
	}
	fmt.Printf("  provenance %s\n", res.Key)
	if sys.Store != nil {
		fmt.Printf("  store: served %d stored records, ran %d new (id %s)\n",
			res.N-res.Fresh, res.Fresh, res.Key.ID())
	}
	fmt.Printf("  %d fresh injections in %v (%.1f/s)\n", res.Fresh, elapsed.Round(time.Millisecond),
		float64(res.Fresh)/elapsed.Seconds())
	return nil
}

// cmdResults lists, inspects or exports the campaigns of a persistent
// store. Tallies are re-aggregated through the streaming
// columnar cursor with filters pushed down, so a show touches only the
// columns it reads. Verbs:
//
//	list     every stored campaign manifest (the default)
//	show     one campaign's tally, filterable (default with -id)
//	export   one campaign's records as JSONL on stdout, filterable
func cmdResults(args []string) error {
	verb := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		verb, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("results", flag.ExitOnError)
	storeDir := fs.String("store", "", "persistent results store directory")
	id := fs.String("id", "", "campaign id to inspect (default: list all)")
	outcomes := fs.String("outcome", "", "comma-separated outcome filter (Masked,SDC,Crash,Detected)")
	fpms := fs.String("fpm", "", "comma-separated FPM filter (WD,WOI,WI,ESC)")
	targets := fs.String("target", "", "comma-separated record-target filter (structure or FPM names)")
	bits := fs.String("bits", "", "bit-range filter LO:HI (inclusive)")
	fs.Parse(args)
	if *storeDir == "" {
		return fmt.Errorf("results: -store DIR is required")
	}
	store, err := results.OpenStore(*storeDir)
	if err != nil {
		return err
	}
	filter, err := parseFilter(*outcomes, *fpms, *targets, *bits)
	if err != nil {
		return err
	}
	if verb == "" {
		verb = "list"
		if *id != "" {
			verb = "show"
		}
	}
	switch verb {
	case "list":
		return listCampaigns(store)
	case "show":
		if *id == "" {
			return fmt.Errorf("results show: -id ID is required")
		}
		return showCampaign(store, *id, filter)
	case "export":
		if *id == "" {
			return fmt.Errorf("results export: -id ID is required")
		}
		return exportCampaign(store, *id, filter)
	default:
		return fmt.Errorf("results: unknown verb %q (list, show, export)", verb)
	}
}

// parseFilter builds the pushed-down record filter from the CLI flags.
func parseFilter(outcomes, fpms, targets, bits string) (results.Filter, error) {
	var f results.Filter
	if outcomes != "" {
		for _, s := range strings.Split(outcomes, ",") {
			o, err := results.ParseOutcome(strings.TrimSpace(s))
			if err != nil {
				return f, err
			}
			f.Outcomes = append(f.Outcomes, o)
		}
	}
	if fpms != "" {
		for _, s := range strings.Split(fpms, ",") {
			m, err := results.ParseFPM(strings.TrimSpace(s))
			if err != nil {
				return f, err
			}
			f.FPMs = append(f.FPMs, m)
		}
	}
	if targets != "" {
		for _, s := range strings.Split(targets, ",") {
			f.Targets = append(f.Targets, strings.TrimSpace(s))
		}
	}
	if bits != "" {
		lo, hi, ok := strings.Cut(bits, ":")
		if !ok {
			return f, fmt.Errorf("results: -bits wants LO:HI, got %q", bits)
		}
		if _, err := fmt.Sscanf(lo+" "+hi, "%d %d", &f.BitLo, &f.BitHi); err != nil {
			return f, fmt.Errorf("results: -bits wants LO:HI, got %q", bits)
		}
		f.BitRange = true
	}
	return f, nil
}

func listCampaigns(store *results.Store) error {
	ms, err := store.List()
	if err != nil {
		return err
	}
	chains := loadChains(store)
	if len(ms) == 0 && len(chains) == 0 {
		fmt.Println("store is empty")
		return nil
	}
	if len(ms) > 0 {
		fmt.Printf("%-16s  %-5s  %-6s  %-5s  %6s  %8s  %-5s  %s\n",
			"ID", "LAYER", "CONFIG", "WHERE", "N", "MARGIN", "CHAIN", "TARGET/SEED")
		for _, m := range ms {
			chain := "-"
			if chainFor(chains, m.Key) != nil {
				chain = "yes"
			}
			fmt.Printf("%-16s  %-5s  %-6s  %-5s  %6d  ±%6.2f%%  %-5s  %s seed=%d\n",
				m.Key.ID(), m.Key.Layer, orDash(m.Key.Config), orDash(m.Key.Struct),
				m.N, 100*vulnstackMargin(m.N), chain, m.Key.Target, m.Key.Seed)
		}
		fmt.Printf("%d campaigns; inspect one with -id ID\n", len(ms))
	}
	if len(chains) > 0 {
		fmt.Printf("\npersisted checkpoint chains (campaign Prepare skips the golden run):\n")
		fmt.Printf("%-32s  %-5s  %-6s  %6s  %10s  %s\n",
			"FINGERPRINT", "LAYER", "CONFIG", "CKPTS", "BYTES", "TARGET")
		for _, ci := range chains {
			st := ci.chain.Stats()
			fmt.Printf("%-32s  %-5s  %-6s  %6d  %10d  %s\n",
				ci.fp, ci.chain.Meta.Engine, orDash(ci.chain.Meta.Config),
				st.Checkpoints, ci.size, ci.chain.Meta.Target)
		}
	}
	return nil
}

// chainInfo pairs a decoded persisted chain with its store identity.
type chainInfo struct {
	fp    string
	size  int
	chain *ckpt.Chain
}

// loadChains decodes every persisted chain in the store, silently
// skipping unusable ones (exactly as campaign loading does).
func loadChains(store *results.Store) []chainInfo {
	fps, err := store.ListChains()
	if err != nil {
		return nil
	}
	var cis []chainInfo
	for _, fp := range fps {
		data, ok, err := store.LoadChain(fp)
		if err != nil || !ok {
			continue
		}
		ch, err := ckpt.Decode(data)
		if err != nil {
			continue
		}
		cis = append(cis, chainInfo{fp: fp, size: len(data), chain: ch})
	}
	return cis
}

// chainFor matches a persisted chain to a campaign key: same injector,
// same program target, same microarchitecture config.
func chainFor(chains []chainInfo, k results.Key) *ckpt.Chain {
	for _, ci := range chains {
		if ci.chain.Meta.Engine == k.Layer && ci.chain.Meta.Target == k.Target &&
			ci.chain.Meta.Config == k.Config {
			return ci.chain
		}
	}
	return nil
}

func showCampaign(store *results.Store, id string, f results.Filter) error {
	m, c, err := store.CursorID(id, f)
	if err != nil {
		return err
	}
	defer c.Close()
	tally, err := c.Tally()
	if err != nil {
		return err
	}
	fmt.Printf("campaign %s (schema v%d)\n", id, m.Schema)
	fmt.Printf("  key     %s\n", m.Key)
	if f.Empty() {
		fmt.Printf("  records %d (±%.2f%% at 99%%)\n", m.N, 100*vulnstackMargin(m.N))
	} else {
		fmt.Printf("  records %d of %d matching the filter\n", tally.N, m.N)
	}
	for o := results.Outcome(0); o < results.NumOutcomes; o++ {
		fmt.Printf("  %-8s %6.2f%%  (%d)\n", o, 100*tally.Frac(o), tally.Outcomes[o])
	}
	fmt.Printf("  failures (SDC+Crash) %.2f%%\n", 100*tally.Failures())
	if tally.Visible > 0 {
		fmt.Printf("  HVF %.2f%%  FPM of visible: WD %.0f%% WI %.0f%% WOI %.0f%% ESC %.0f%%\n",
			100*tally.HVF(), 100*tally.FPMShare(micro.FPMWD), 100*tally.FPMShare(micro.FPMWI),
			100*tally.FPMShare(micro.FPMWOI), 100*tally.FPMShare(micro.FPMESC))
	}
	if tallies, labels := stratumTallies(store, id, f); len(labels) > 0 {
		fmt.Printf("  strata (%d, label = class/bit-bucket/liveness-bucket):\n", len(labels))
		fmt.Printf("    %-28s %6s %7s %6s %6s %6s\n", "STRATUM", "N", "MASK", "SDC", "CRASH", "DET")
		for _, l := range labels {
			t := tallies[l]
			fmt.Printf("    %-28s %6d %7d %6d %6d %6d\n", l, t.N,
				t.Outcomes[0], t.Outcomes[1], t.Outcomes[2], t.Outcomes[3])
		}
	}
	if ch := chainFor(loadChains(store), m.Key); ch != nil {
		st := ch.Stats()
		coordName := "instrs"
		if ch.Meta.Engine == results.LayerMicro.String() {
			coordName = "cycles"
		}
		fmt.Printf("  checkpoint chain: %d checkpoints over %s %d..%d\n",
			st.Checkpoints, coordName, st.FirstCoord, st.LastCoord)
		fmt.Printf("    base %d bytes, deltas %d bytes, aux %d bytes (RAM image %d bytes)\n",
			st.BaseBytes, st.DeltaBytes, st.AuxBytes, ch.Meta.RAMBytes)
	}
	return nil
}

// stratumTallies re-reads a campaign grouping its records by their
// stored stratum label (the provenance column of stratified
// campaigns). Uniform campaigns carry no labels and yield nothing.
func stratumTallies(store *results.Store, id string, f results.Filter) (map[string]results.Tally, []string) {
	_, c, err := store.CursorID(id, f)
	if err != nil {
		return nil, nil
	}
	defer c.Close()
	tallies := map[string]results.Tally{}
	var labels []string
	err = c.Each(func(r results.Record) error {
		if r.Stratum == "" {
			return nil
		}
		t, seen := tallies[r.Stratum]
		if !seen {
			labels = append(labels, r.Stratum)
		}
		t.Add(r)
		tallies[r.Stratum] = t
		return nil
	})
	if err != nil {
		return nil, nil
	}
	sort.Strings(labels)
	return tallies, labels
}

// exportCampaign streams a campaign's (filtered) records to stdout in
// the JSONL interchange format, one block in memory at a time.
func exportCampaign(store *results.Store, id string, f results.Filter) error {
	if f.Empty() {
		return store.ExportJSONL(id, os.Stdout)
	}
	_, c, err := store.CursorID(id, f)
	if err != nil {
		return err
	}
	defer c.Close()
	w := bufio.NewWriter(os.Stdout)
	err = c.Each(func(r results.Record) error {
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		w.Write(data)
		return w.WriteByte('\n')
	})
	if err != nil {
		return err
	}
	return w.Flush()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func vulnstackMargin(n int) float64 { return vulnstack.Margin(n) }

// startProfiles turns on the requested runtime/pprof collectors and
// returns the function that finalizes them: CPU sampling stops and the
// heap is snapshotted (after a GC, so only live allocations show) when
// the profiled command finishes.
func startProfiles(cpuFile, memFile string) (stop func(), err error) {
	var cpu *os.File
	if cpuFile != "" {
		cpu, err = os.Create(cpuFile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if memFile != "" {
			f, err := os.Create(memFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vulnstack: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "vulnstack: memprofile:", err)
			}
		}
	}, nil
}

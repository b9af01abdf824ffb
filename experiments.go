package vulnstack

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"vulnstack/internal/inject"
	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
	"vulnstack/internal/report"
	"vulnstack/internal/results"
	"vulnstack/internal/vuln"
)

// Options scales the experiment campaigns. The paper uses 2,000
// injections per cell (2.88% margin); the defaults here are sized for a
// single-core host — every report prints the margin actually achieved.
type Options struct {
	// NAVF is the microarchitectural injection count per structure.
	NAVF int
	// NPVF is the architecture-level injection count per FPM.
	NPVF int
	// NSVF is the software-level injection count.
	NSVF int
	// Seed drives both workload generation and fault sampling.
	Seed int64
	// Benches restricts the workload set (nil = all ten).
	Benches []string
	// Workers is the campaign fan-out: 0 (the default) uses all CPUs,
	// 1 forces the serial path. Every tally is bit-identical for every
	// worker count, so this trades wall clock only. It also gates
	// cross-benchmark parallelism inside the lab.
	Workers int
	// StoreDir, when non-empty, persists per-injection records under
	// this directory and serves repeat runs from them: fully stored
	// campaigns re-run as cache hits (no golden run, no injections),
	// and larger n values top up only the missing tail.
	StoreDir string
}

// DefaultOptions returns the scaled-down study defaults.
func DefaultOptions() Options {
	return Options{NAVF: 30, NPVF: 60, NSVF: 120, Seed: 2021}
}

func (o Options) benches() []string {
	if len(o.Benches) > 0 {
		return o.Benches
	}
	return Benchmarks()
}

// labSnapshots is the golden-run checkpoint count of every System a Lab
// builds, sparser than a bare System's defaultSnapshots because a Lab
// keeps every System, campaign and chain alive for the whole study.
// Moving the Lab to 192 measured worse on bench/run.sh's fig4-store
// (2-vCPU host, four runs per side, medians): peak_rss_mb 221 → 324 MiB
// (+47%, bound 15%) and setup_s 1.72 → 2.22 s (+29%), from
// inject.prepare_ms 444 → 1,704 and ckpt.chain_mb 4.9 → 46.7.
const labSnapshots = 12

// Lab caches built systems and measurement results across experiments,
// so regenerating several figures shares golden runs and campaigns.
type Lab struct {
	Opts Options

	mu sync.Mutex
	// cells holds every system and measurement the lab has produced, by
	// memo key (see memo).
	cells map[string]*cell

	// store backs memo fills with on-disk records when
	// Options.StoreDir is set (opened lazily, once).
	storeOnce sync.Once
	store     *results.Store
	storeErr  error
}

// cell is one memo entry: done closes once val and err are set.
type cell struct {
	done chan struct{}
	val  any
	err  error
}

// memo returns the value cached under key, running fill on the key's
// first use. Concurrent callers of one key share one fill (single
// flight), so cross-bench parallel figure generation never builds a
// system or runs a campaign twice. A failed fill stays cached.
func memo[T any](l *Lab, key string, fill func() (T, error)) (T, error) {
	l.mu.Lock()
	c, ok := l.cells[key]
	if !ok {
		c = &cell{done: make(chan struct{})}
		l.cells[key] = c
	}
	l.mu.Unlock()
	if ok {
		<-c.done
	} else {
		c.val, c.err = fill()
		close(c.done)
	}
	v, _ := c.val.(T)
	return v, c.err
}

// fill runs the given memo-filling closures, fanning them out when the
// lab is parallel (Options.Workers != 1). Campaign results are
// memoized and deterministic, so parallel filling never changes any
// figure — it only overlaps golden runs and campaigns across
// benchmarks. The first error wins; all closures finish either way.
func (l *Lab) fill(fns ...func() error) error {
	if len(fns) <= 1 || l.Opts.Workers == 1 {
		for _, fn := range fns {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func(i int, fn func() error) {
			defer wg.Done()
			errs[i] = fn()
		}(i, fn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// NewLab creates a lab with the given options.
func NewLab(o Options) *Lab {
	if o.NAVF <= 0 || o.NPVF <= 0 || o.NSVF <= 0 {
		d := DefaultOptions()
		if o.NAVF <= 0 {
			o.NAVF = d.NAVF
		}
		if o.NPVF <= 0 {
			o.NPVF = d.NPVF
		}
		if o.NSVF <= 0 {
			o.NSVF = d.NSVF
		}
	}
	return &Lab{Opts: o, cells: make(map[string]*cell)}
}

// Store returns the lab's persistent record store (nil when
// Options.StoreDir is unset), opening it on first use.
func (l *Lab) Store() (*results.Store, error) {
	if l.Opts.StoreDir == "" {
		return nil, nil
	}
	l.storeOnce.Do(func() {
		l.store, l.storeErr = results.OpenStore(l.Opts.StoreDir)
	})
	return l.store, l.storeErr
}

// System builds (or returns cached) a target for an ISA. Concurrent
// callers for the same target share one build; the lab lock is never
// held across compilation.
func (l *Lab) System(t Target, is isa.ISA) (*System, error) {
	if t.Seed == 0 {
		t.Seed = l.Opts.Seed
	}
	return memo(l, "sys/"+t.key()+"/"+is.String(), func() (*System, error) {
		st, err := l.Store()
		if err != nil {
			return nil, err
		}
		s, err := Build(t, is)
		if err != nil {
			return nil, err
		}
		s.snapshots = labSnapshots
		s.Workers = l.Opts.Workers
		s.Store = st
		return s, nil
	})
}

// source returns the measurement source of t on is. Its store key needs
// no System, so a campaign the store holds is served without compiling
// anything; the System is built (once, through the memo) only when a
// campaign must inject. served collects the stored campaigns behind the
// cell being filled.
func (l *Lab) source(t Target, is isa.ISA, served *[]storedCampaign) (source, error) {
	st, err := l.Store()
	return source{
		target: targetKey(t, is),
		store:  st,
		system: func() (*System, error) { return l.System(t, is) },
		served: served,
	}, err
}

// avfMemo is an AVF cell: per-structure results, the bit-weighted split
// and the stored campaigns they were tallied from.
type avfMemo struct {
	results  []StructResult
	weighted vuln.Split
	stored   []storedCampaign
}

// splitMemo is a PVF or SVF cell: the split and the stored campaign it
// was tallied from.
type splitMemo struct {
	split  vuln.Split
	stored []storedCampaign
}

func (l *Lab) avfCell(t Target, cfg micro.Config) (avfMemo, error) {
	if t.Seed == 0 {
		t.Seed = l.Opts.Seed
	}
	return memo(l, fmt.Sprintf("avf/%s/%s/%d", t.key(), cfg.Name, l.Opts.NAVF), func() (avfMemo, error) {
		var m avfMemo
		src, err := l.source(t, cfg.ISA, &m.stored)
		if err != nil {
			return m, err
		}
		m.results, m.weighted, err = src.avfAll(cfg, l.Opts.NAVF, l.Opts.Seed)
		return m, err
	})
}

func (l *Lab) pvfCell(t Target, is isa.ISA, fpm micro.FPM) (splitMemo, error) {
	if t.Seed == 0 {
		t.Seed = l.Opts.Seed
	}
	return memo(l, fmt.Sprintf("pvf/%s/%v/%v/%d", t.key(), is, fpm, l.Opts.NPVF), func() (splitMemo, error) {
		var m splitMemo
		src, err := l.source(t, is, &m.stored)
		if err != nil {
			return m, err
		}
		m.split, err = src.pvf(fpm, l.Opts.NPVF, l.Opts.Seed)
		return m, err
	})
}

func (l *Lab) svfCell(t Target) (splitMemo, error) {
	if t.Seed == 0 {
		t.Seed = l.Opts.Seed
	}
	return memo(l, fmt.Sprintf("svf/%s/%d", t.key(), l.Opts.NSVF), func() (splitMemo, error) {
		var m splitMemo
		src, err := l.source(t, isa.VSA64, &m.stored)
		if err != nil {
			return m, err
		}
		m.split, err = src.svf(l.Opts.NSVF, l.Opts.Seed)
		return m, err
	})
}

// golden returns the fault-free micro run of t on cfg, which the case
// study's notes read. A persisted micro chain carries it, so on a warm
// store the System is built (and its campaign prepared) only when no
// chain of the Lab's density decodes under the expected fingerprint.
func (l *Lab) golden(t Target, cfg micro.Config) (inject.Golden, error) {
	if t.Seed == 0 {
		t.Seed = l.Opts.Seed
	}
	return memo(l, "golden/"+t.key()+"/"+cfg.Name, func() (inject.Golden, error) {
		st, err := l.Store()
		if err != nil {
			return inject.Golden{}, err
		}
		fp := chainFingerprint(inject.Engine, targetKey(t, cfg.ISA), cfg.Name, labSnapshots)
		if ch := loadChain(st, fp); ch != nil {
			if g, err := inject.ChainGolden(ch); err == nil {
				return g, nil
			}
		}
		s, err := l.System(t, cfg.ISA)
		if err != nil {
			return inject.Golden{}, err
		}
		cp, err := s.MicroCampaign(cfg)
		if err != nil {
			return inject.Golden{}, err
		}
		return cp.Golden, nil
	})
}

// artifact is one Run of a Lab: it reads the lab's cells, whichever Run
// filled them, and collects the stored campaigns behind each cell it
// reads, so its provenance note counts its own campaigns only.
type artifact struct {
	*Lab

	mu sync.Mutex
	// stored maps each campaign behind the artifact's cells to its
	// stored record count.
	stored map[results.Key]int
}

func newArtifact(l *Lab) *artifact {
	return &artifact{Lab: l, stored: make(map[results.Key]int)}
}

// read notes the stored campaigns behind one cell.
func (a *artifact) read(cs []storedCampaign) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range cs {
		a.stored[c.key] = c.n
	}
}

func (a *artifact) avf(t Target, cfg micro.Config) ([]StructResult, vuln.Split, error) {
	m, err := a.avfCell(t, cfg)
	a.read(m.stored)
	return m.results, m.weighted, err
}

func (a *artifact) pvf(t Target, is isa.ISA, fpm micro.FPM) (vuln.Split, error) {
	m, err := a.pvfCell(t, is, fpm)
	a.read(m.stored)
	return m.split, err
}

func (a *artifact) svf(t Target) (vuln.Split, error) {
	m, err := a.svfCell(t)
	a.read(m.stored)
	return m.split, err
}

// Experiments lists the reproducible artifacts. "static" is the
// no-execution analysis report (vulnstack analyze).
func Experiments() []string {
	return []string{"table2", "fig1", "fig4", "table3", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11", "static"}
}

// RunExperiment regenerates one paper artifact with fresh campaigns.
func RunExperiment(id string, o Options) (*report.Report, error) {
	return NewLab(o).Run(id)
}

// Run regenerates one paper artifact, reusing this lab's caches, and
// stamps its provenance (seed, per-cell n, margins, store campaigns).
func (l *Lab) Run(id string) (*report.Report, error) {
	a := newArtifact(l)
	r, err := a.run(id)
	if err != nil {
		return nil, err
	}
	a.stamp(r)
	return r, nil
}

// stamp appends the provenance note: everything needed to reproduce
// the artifact's campaigns, pulled from the options and — when a store
// is attached — the stored campaigns its cells were served from or
// stored into, whatever else the store holds.
func (a *artifact) stamp(r *report.Report) {
	if r.ID == "Table II" || r.ID == "Static" {
		return // no campaigns behind these (hardware parameters / no-execution analysis)
	}
	o := a.Opts
	r.Notef("provenance: seed %d; injections per cell AVF=%d PVF=%d SVF=%d; margins at 99%%: ±%s / ±%s / ±%s",
		o.Seed, o.NAVF, o.NPVF, o.NSVF,
		report.Pct(Margin(o.NAVF)), report.Pct(Margin(o.NPVF)), report.Pct(Margin(o.NSVF)))
	st, err := a.Store()
	if err != nil || st == nil {
		return
	}
	var records, strat int
	//lint:ordered integer sums and a count; order-free
	for k, n := range a.stored {
		records += n
		if strings.HasPrefix(k.Mode, "strat,") {
			strat++
		}
	}
	note := fmt.Sprintf("results store: %s — %d campaigns, %d records", st.Dir(), len(a.stored), records)
	if strat > 0 {
		// Stratified streams carry their full sampling provenance
		// (plan parameters + partition fingerprint) in the key's
		// mode component, so the stamp needs only the count.
		note += fmt.Sprintf(", %d stratified (plan + partition fingerprint in each key's mode)", strat)
	}
	r.Notef("%s (inspect with: vulnstack results -store %s)", note, st.Dir())
}

func (a *artifact) run(id string) (*report.Report, error) {
	switch strings.ToLower(id) {
	case "table2", "tab2":
		return a.table2()
	case "fig1":
		return a.fig1()
	case "fig4":
		return a.fig4()
	case "table3", "tab3":
		return a.table3()
	case "fig5":
		return a.fig5()
	case "fig6":
		return a.fig6()
	case "fig7":
		return a.fig7()
	case "fig8":
		return a.fig8()
	case "fig9":
		return a.fig9()
	case "fig10":
		return a.caseStudy("fig10", "sha")
	case "fig11":
		return a.caseStudy("fig11", "smooth")
	case "static", "analyze":
		return a.Analyze(DefaultAnalyzeOptions())
	}
	return nil, fmt.Errorf("vulnstack: unknown experiment %q (have %s)", id, strings.Join(Experiments(), ", "))
}

// --- Table II ---

func (a *artifact) table2() (*report.Report, error) {
	r := &report.Report{ID: "Table II", Title: "Simulated microarchitecture parameters"}
	t := r.NewTable("", "Parameter", "A9", "A15", "A57", "A72")
	cfgs := Configs()
	row := func(name string, f func(c micro.Config) string) {
		cells := []string{name}
		for _, c := range cfgs {
			cells = append(cells, f(c))
		}
		t.AddRow(cells...)
	}
	row("ISA", func(c micro.Config) string { return c.ISA.String() })
	row("Issue width", func(c micro.Config) string { return fmt.Sprint(c.IssueWidth) })
	row("Front-end depth", func(c micro.Config) string { return fmt.Sprint(c.FrontLatency) })
	row("ROB", func(c micro.Config) string { return fmt.Sprint(c.ROBSize) })
	row("IQ", func(c micro.Config) string { return fmt.Sprint(c.IQSize) })
	row("LQ/SQ", func(c micro.Config) string { return fmt.Sprintf("%d/%d", c.LQSize, c.SQSize) })
	row("Phys regs", func(c micro.Config) string { return fmt.Sprint(c.PhysRegs) })
	row("L1I", func(c micro.Config) string { return fmt.Sprintf("%dKB", c.L1I.SizeBytes>>10) })
	row("L1D", func(c micro.Config) string { return fmt.Sprintf("%dKB", c.L1D.SizeBytes>>10) })
	row("L2", func(c micro.Config) string { return fmt.Sprintf("%dKB", c.L2.SizeBytes>>10) })
	row("Injectable bits", func(c micro.Config) string { return fmt.Sprint(c.TotalBits()) })
	return r, nil
}

// --- Fig. 1 ---

func (a *artifact) fig1() (*report.Report, error) {
	r := &report.Report{ID: "Fig. 1", Title: "Software-level (SVF) vs cross-layer (AVF) vulnerability: sha and qsort"}
	cfg := micro.ConfigA72()
	t := r.NewTable("", "Benchmark", "SVF SDC", "SVF Crash", "SVF total",
		"AVF SDC", "AVF Crash", "AVF total")
	benches := []string{"sha", "qsort"}
	var fns []func() error
	for _, b := range benches {
		tgt := Target{Bench: b}
		fns = append(fns,
			func() error { _, err := a.svf(tgt); return err },
			func() error { _, _, err := a.avf(tgt, cfg); return err })
	}
	if err := a.fill(fns...); err != nil {
		return nil, err
	}
	var svfT, avfT []float64
	for _, b := range benches {
		tgt := Target{Bench: b}
		sv, err := a.svf(tgt)
		if err != nil {
			return nil, err
		}
		_, av, err := a.avf(tgt, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(b, report.Pct(sv.SDC), report.Pct(sv.Crash), report.Pct(sv.Total()),
			report.Pct(av.SDC), report.Pct(av.Crash), report.Pct(av.Total()))
		svfT = append(svfT, sv.Total())
		avfT = append(avfT, av.Total())
	}
	if len(svfT) == 2 && svfT[1] > 0 && avfT[1] > 0 {
		r.Notef("relative vulnerability sha/qsort: SVF %.2fx, AVF %.2fx (the paper finds these on opposite sides of 1)",
			svfT[0]/svfT[1], avfT[0]/avfT[1])
	}
	r.Notef("margins at 99%% confidence: SVF ±%s (n=%d), AVF ±%s per structure (n=%d)",
		report.Pct(Margin(a.Opts.NSVF)), a.Opts.NSVF, report.Pct(Margin(a.Opts.NAVF)), a.Opts.NAVF)
	r.Notef("note the scale difference: full-system AVF values are far below software-only SVF values (Fig. 1's dual axes)")
	return r, nil
}

// --- Fig. 4 ---

type layerRow struct {
	bench string
	pvf   vuln.Split
	svf   vuln.Split
	avf   vuln.Split
}

func (a *artifact) layerData(benches []string, cfg micro.Config) ([]layerRow, error) {
	rows := make([]layerRow, len(benches))
	fns := make([]func() error, len(benches))
	for i, b := range benches {
		fns[i] = func() error {
			tgt := Target{Bench: b}
			pv, err := a.pvf(tgt, cfg.ISA, micro.FPMWD)
			if err != nil {
				return err
			}
			sv, err := a.svf(tgt)
			if err != nil {
				return err
			}
			_, av, err := a.avf(tgt, cfg)
			if err != nil {
				return err
			}
			rows[i] = layerRow{b, pv, sv, av}
			return nil
		}
	}
	if err := a.fill(fns...); err != nil {
		return nil, err
	}
	return rows, nil
}

func (a *artifact) fig4() (*report.Report, error) {
	r := &report.Report{ID: "Fig. 4", Title: "PVF, SVF and weighted AVF per benchmark (A72-like, VSA64)"}
	rows, err := a.layerData(a.Opts.benches(), micro.ConfigA72())
	if err != nil {
		return nil, err
	}
	t := r.NewTable("", "Benchmark",
		"PVF SDC", "PVF Crash", "PVF tot",
		"SVF SDC", "SVF Crash", "SVF tot",
		"AVF SDC", "AVF Crash", "AVF tot")
	var pvfT, svfT, avfT []float64
	var pvfS, svfS, avfS []vuln.Split
	for _, row := range rows {
		t.AddRow(row.bench,
			report.Pct(row.pvf.SDC), report.Pct(row.pvf.Crash), report.Pct(row.pvf.Total()),
			report.Pct(row.svf.SDC), report.Pct(row.svf.Crash), report.Pct(row.svf.Total()),
			report.Pct(row.avf.SDC), report.Pct(row.avf.Crash), report.Pct(row.avf.Total()))
		pvfT = append(pvfT, row.pvf.Total())
		svfT = append(svfT, row.svf.Total())
		avfT = append(avfT, row.avf.Total())
		pvfS = append(pvfS, row.pvf)
		svfS = append(svfS, row.svf)
		avfS = append(avfS, row.avf)
	}
	n := len(rows)
	r.Notef("opposite-ranked pairs vs AVF (of %d): PVF %d, SVF %d; SVF vs PVF %d",
		vuln.TotalPairs(n), vuln.OppositePairs(pvfT, avfT), vuln.OppositePairs(svfT, avfT),
		vuln.OppositePairs(svfT, pvfT))
	r.Notef("dominant-effect (SDC vs Crash) flips vs AVF: PVF %d, SVF %d of %d benchmarks",
		vuln.DominantEffectFlips(pvfS, avfS), vuln.DominantEffectFlips(svfS, avfS), n)
	r.Notef("rank correlation proxies (Pearson): PVF/AVF %.2f, SVF/AVF %.2f, SVF/PVF %.2f",
		vuln.Correlation(pvfT, avfT), vuln.Correlation(svfT, avfT), vuln.Correlation(svfT, pvfT))
	return r, nil
}

// --- Table III ---

func (a *artifact) table3() (*report.Report, error) {
	r := &report.Report{ID: "Table III", Title: "Opposite relative vulnerability comparisons per microarchitecture"}
	t := r.NewTable("", "Config", "Pair", "Total (opposite pairs)", "Effect (dominance flips)")
	benches := a.Opts.benches()
	var fns []func() error
	for _, cfg := range Configs() {
		for _, b := range benches {
			tgt := Target{Bench: b}
			fns = append(fns,
				func() error { _, err := a.pvf(tgt, cfg.ISA, micro.FPMWD); return err },
				func() error { _, _, err := a.avf(tgt, cfg); return err })
			if cfg.ISA == isa.VSA64 {
				fns = append(fns, func() error { _, err := a.svf(tgt); return err })
			}
		}
	}
	if err := a.fill(fns...); err != nil {
		return nil, err
	}
	for _, cfg := range Configs() {
		var pvfT, svfT, avfT []float64
		var pvfS, svfS, avfS []vuln.Split
		withSVF := cfg.ISA == isa.VSA64
		for _, b := range benches {
			tgt := Target{Bench: b}
			pv, err := a.pvf(tgt, cfg.ISA, micro.FPMWD)
			if err != nil {
				return nil, err
			}
			_, av, err := a.avf(tgt, cfg)
			if err != nil {
				return nil, err
			}
			pvfT = append(pvfT, pv.Total())
			avfT = append(avfT, av.Total())
			pvfS = append(pvfS, pv)
			avfS = append(avfS, av)
			if withSVF {
				sv, err := a.svf(tgt)
				if err != nil {
					return nil, err
				}
				svfT = append(svfT, sv.Total())
				svfS = append(svfS, sv)
			}
		}
		pairs := vuln.TotalPairs(len(benches))
		t.AddRow(cfg.Name, "PVF vs AVF",
			fmt.Sprintf("%d/%d", vuln.OppositePairs(pvfT, avfT), pairs),
			fmt.Sprintf("%d/%d", vuln.DominantEffectFlips(pvfS, avfS), len(benches)))
		if withSVF {
			t.AddRow(cfg.Name, "SVF vs AVF",
				fmt.Sprintf("%d/%d", vuln.OppositePairs(svfT, avfT), pairs),
				fmt.Sprintf("%d/%d", vuln.DominantEffectFlips(svfS, avfS), len(benches)))
			t.AddRow(cfg.Name, "SVF vs PVF",
				fmt.Sprintf("%d/%d", vuln.OppositePairs(svfT, pvfT), pairs),
				fmt.Sprintf("%d/%d", vuln.DominantEffectFlips(svfS, pvfS), len(benches)))
		}
	}
	r.Notef("SVF rows exist only for VSA64 configurations: LLFI-style injection supports only 64-bit ISAs (paper, Sec. III.C)")
	return r, nil
}

// --- Fig. 5 ---

func (a *artifact) fig5() (*report.Report, error) {
	r := &report.Report{ID: "Fig. 5", Title: "HVF per hardware structure with FPM breakdown (A9-like, A15-like)"}
	structs := []micro.Structure{micro.StructRF, micro.StructL1I, micro.StructL1D, micro.StructL2}
	cfgs := []micro.Config{micro.ConfigA9(), micro.ConfigA15()}
	var fns []func() error
	for _, cfg := range cfgs {
		for _, b := range a.Opts.benches() {
			tgt := Target{Bench: b}
			fns = append(fns, func() error { _, _, err := a.avf(tgt, cfg); return err })
		}
	}
	if err := a.fill(fns...); err != nil {
		return nil, err
	}
	for _, cfg := range cfgs {
		for _, st := range structs {
			t := r.NewTable(fmt.Sprintf("%s / %s", cfg.Name, st),
				"Benchmark", "HVF", "WD", "WI", "WOI", "ESC")
			for _, b := range a.Opts.benches() {
				res, _, err := a.avf(Target{Bench: b}, cfg)
				if err != nil {
					return nil, err
				}
				sr := res[st]
				share := func(m micro.FPM) string {
					if sr.Visible == 0 {
						return "-"
					}
					return report.Pct(float64(sr.FPM[m]) / float64(sr.Visible))
				}
				t.AddRow(b, report.Pct(sr.HVF), share(micro.FPMWD), share(micro.FPMWI),
					share(micro.FPMWOI), share(micro.FPMESC))
			}
		}
	}
	r.Notef("RF and L1d faults manifest dominantly as WD; L1i as WI/WOI — the models typical PVF/SVF studies ignore")
	return r, nil
}

// --- Fig. 6 ---

func (a *artifact) fig6() (*report.Report, error) {
	r := &report.Report{ID: "Fig. 6", Title: "Bit-weighted FPM distribution (ESC included) per benchmark and microarchitecture"}
	maxESC, sumESC, cells := 0.0, 0.0, 0
	var fns []func() error
	for _, cfg := range Configs() {
		for _, b := range a.Opts.benches() {
			tgt := Target{Bench: b}
			fns = append(fns, func() error { _, _, err := a.avf(tgt, cfg); return err })
		}
	}
	if err := a.fill(fns...); err != nil {
		return nil, err
	}
	for _, cfg := range Configs() {
		t := r.NewTable(cfg.Name, "Benchmark", "WD", "WI", "WOI", "ESC")
		for _, b := range a.Opts.benches() {
			res, _, err := a.avf(Target{Bench: b}, cfg)
			if err != nil {
				return nil, err
			}
			dist := FPMDist(cfg, res)
			t.AddRow(b, report.Pct(dist[micro.FPMWD]), report.Pct(dist[micro.FPMWI]),
				report.Pct(dist[micro.FPMWOI]), report.Pct(dist[micro.FPMESC]))
			if dist[micro.FPMESC] > maxESC {
				maxESC = dist[micro.FPMESC]
			}
			sumESC += dist[micro.FPMESC]
			cells++
		}
	}
	if cells > 0 {
		r.Notef("Escaped (ESC) share: max %s, average %s — faults PVF/SVF can never model (paper: up to 62%%, avg 29%%)",
			report.Pct(maxESC), report.Pct(sumESC/float64(cells)))
	}
	return r, nil
}

// --- Fig. 7 ---

func (a *artifact) fig7() (*report.Report, error) {
	r := &report.Report{ID: "Fig. 7", Title: "PVF per fault propagation model (WD, WOI, WI) on VSA64"}
	t := r.NewTable("", "Benchmark",
		"WD SDC", "WD Crash", "WD tot",
		"WOI SDC", "WOI Crash", "WOI tot",
		"WI SDC", "WI Crash", "WI tot")
	var fns []func() error
	for _, b := range a.Opts.benches() {
		tgt := Target{Bench: b}
		for _, m := range []micro.FPM{micro.FPMWD, micro.FPMWOI, micro.FPMWI} {
			fns = append(fns, func() error { _, err := a.pvf(tgt, isa.VSA64, m); return err })
		}
	}
	if err := a.fill(fns...); err != nil {
		return nil, err
	}
	for _, b := range a.Opts.benches() {
		tgt := Target{Bench: b}
		var sp [3]vuln.Split
		for i, m := range []micro.FPM{micro.FPMWD, micro.FPMWOI, micro.FPMWI} {
			v, err := a.pvf(tgt, isa.VSA64, m)
			if err != nil {
				return nil, err
			}
			sp[i] = v
		}
		t.AddRow(b,
			report.Pct(sp[0].SDC), report.Pct(sp[0].Crash), report.Pct(sp[0].Total()),
			report.Pct(sp[1].SDC), report.Pct(sp[1].Crash), report.Pct(sp[1].Total()),
			report.Pct(sp[2].SDC), report.Pct(sp[2].Crash), report.Pct(sp[2].Total()))
	}
	r.Notef("WD mostly produces SDCs with high cross-benchmark variability; WOI and especially WI skew toward Crashes")
	return r, nil
}

// --- Fig. 8 ---

func (a *artifact) fig8() (*report.Report, error) {
	r := &report.Report{ID: "Fig. 8", Title: "Refined PVF (rPVF, weighted by measured FPM distribution) vs cross-layer AVF"}
	benches := []string{"fft", "djpeg", "sha", "qsort"}
	if len(a.Opts.Benches) > 0 {
		benches = a.Opts.Benches
	}
	t := r.NewTable("", "Benchmark", "Config",
		"rPVF SDC", "rPVF Crash", "rPVF tot",
		"AVF SDC", "AVF Crash", "AVF tot")
	type spread struct{ rmin, rmax, amin, amax float64 }
	spreads := map[string]*spread{}
	var fns []func() error
	for _, b := range benches {
		for _, cfg := range Configs() {
			tgt := Target{Bench: b}
			for _, m := range []micro.FPM{micro.FPMWD, micro.FPMWOI, micro.FPMWI} {
				fns = append(fns, func() error { _, err := a.pvf(tgt, cfg.ISA, m); return err })
			}
			fns = append(fns, func() error { _, _, err := a.avf(tgt, cfg); return err })
		}
	}
	if err := a.fill(fns...); err != nil {
		return nil, err
	}
	for _, b := range benches {
		for _, cfg := range Configs() {
			tgt := Target{Bench: b}
			pvfs := map[micro.FPM]vuln.Split{}
			for _, m := range []micro.FPM{micro.FPMWD, micro.FPMWOI, micro.FPMWI} {
				v, err := a.pvf(tgt, cfg.ISA, m)
				if err != nil {
					return nil, err
				}
				pvfs[m] = v
			}
			res, av, err := a.avf(tgt, cfg)
			if err != nil {
				return nil, err
			}
			rp := vuln.RPVF(pvfs, FPMDist(cfg, res))
			t.AddRow(b, cfg.Name,
				report.Pct(rp.SDC), report.Pct(rp.Crash), report.Pct(rp.Total()),
				report.Pct(av.SDC), report.Pct(av.Crash), report.Pct(av.Total()))
			sp := spreads[b]
			if sp == nil {
				sp = &spread{rmin: 2, amin: 2}
				spreads[b] = sp
			}
			if rp.Total() < sp.rmin {
				sp.rmin = rp.Total()
			}
			if rp.Total() > sp.rmax {
				sp.rmax = rp.Total()
			}
			if av.Total() < sp.amin {
				sp.amin = av.Total()
			}
			if av.Total() > sp.amax {
				sp.amax = av.Total()
			}
		}
	}
	var names []string
	//lint:ordered keys are collected then sorted; order-free
	for b := range spreads {
		names = append(names, b)
	}
	sort.Strings(names)
	for _, b := range names {
		sp := spreads[b]
		r.Notef("%s: rPVF spread across microarchitectures %s..%s vs AVF spread %s..%s (rPVF stays flat; AVF does not)",
			b, report.Pct(sp.rmin), report.Pct(sp.rmax), report.Pct(sp.amin), report.Pct(sp.amax))
	}
	return r, nil
}

// --- Fig. 9 ---

func (a *artifact) fig9() (*report.Report, error) {
	r := &report.Report{ID: "Fig. 9", Title: "Crash-only and SDC-only vulnerability across SVF, PVF and AVF (A72-like)"}
	rows, err := a.layerData(a.Opts.benches(), micro.ConfigA72())
	if err != nil {
		return nil, err
	}
	tc := r.NewTable("Crash vulnerability", "Benchmark", "SVF", "PVF", "AVF")
	ts := r.NewTable("SDC vulnerability", "Benchmark", "SVF", "PVF", "AVF")
	var sdcSVF, sdcAVF, crashSVF, crashAVF []float64
	for _, row := range rows {
		tc.AddRow(row.bench, report.Pct(row.svf.Crash), report.Pct(row.pvf.Crash), report.Pct(row.avf.Crash))
		ts.AddRow(row.bench, report.Pct(row.svf.SDC), report.Pct(row.pvf.SDC), report.Pct(row.avf.SDC))
		sdcSVF = append(sdcSVF, row.svf.SDC)
		sdcAVF = append(sdcAVF, row.avf.SDC)
		crashSVF = append(crashSVF, row.svf.Crash)
		crashAVF = append(crashAVF, row.avf.Crash)
	}
	r.Notef("opposite-ranked pairs SVF vs AVF: SDC %d, Crash %d (of %d)",
		vuln.OppositePairs(sdcSVF, sdcAVF), vuln.OppositePairs(crashSVF, crashAVF),
		vuln.TotalPairs(len(rows)))
	return r, nil
}

// --- Figs. 10 & 11: the software fault-tolerance case study ---

func (a *artifact) caseStudy(id, bench string) (*report.Report, error) {
	r := &report.Report{
		ID:    strings.ToUpper(id[:1]) + id[1:],
		Title: fmt.Sprintf("Case study: software-based fault tolerance on %q (w/o vs w/ protection, A72-like)", bench),
	}
	cfg := micro.ConfigA72()
	base := Target{Bench: bench}
	prot := Target{Bench: bench, Harden: true}

	var fns []func() error
	for _, tgt := range []Target{base, prot} {
		fns = append(fns,
			func() error { _, _, err := a.avf(tgt, cfg); return err },
			func() error { _, err := a.pvf(tgt, cfg.ISA, micro.FPMWD); return err },
			func() error { _, err := a.svf(tgt); return err })
	}
	if err := a.fill(fns...); err != nil {
		return nil, err
	}

	// (a) per-structure AVF.
	ta := r.NewTable("(a) per-structure AVF", "Structure",
		"w/o SDC", "w/o Crash", "w/o AVF",
		"w/ SDC", "w/ Crash", "w/ Detected", "w/ AVF")
	resB, wB, err := a.avf(base, cfg)
	if err != nil {
		return nil, err
	}
	resP, wP, err := a.avf(prot, cfg)
	if err != nil {
		return nil, err
	}
	for st := range resB {
		b, p := resB[st], resP[st]
		ta.AddRow(b.Struct.String(),
			report.Pct(b.Split.SDC), report.Pct(b.Split.Crash), report.Pct(b.Split.Total()),
			report.Pct(p.Split.SDC), report.Pct(p.Split.Crash), report.Pct(p.Split.Detected), report.Pct(p.Split.Total()))
	}

	// (b) weighted AVF.
	tb := r.NewTable("(b) bit-weighted full-system AVF", "Version", "SDC", "Crash", "Detected", "AVF")
	tb.AddRow("w/o", report.Pct(wB.SDC), report.Pct(wB.Crash), report.Pct(wB.Detected), report.Pct(wB.Total()))
	tb.AddRow("w/", report.Pct(wP.SDC), report.Pct(wP.Crash), report.Pct(wP.Detected), report.Pct(wP.Total()))

	// (c) PVF.
	pvB, err := a.pvf(base, cfg.ISA, micro.FPMWD)
	if err != nil {
		return nil, err
	}
	pvP, err := a.pvf(prot, cfg.ISA, micro.FPMWD)
	if err != nil {
		return nil, err
	}
	tc := r.NewTable("(c) PVF (WD)", "Version", "SDC", "Crash", "Detected", "PVF")
	tc.AddRow("w/o", report.Pct(pvB.SDC), report.Pct(pvB.Crash), report.Pct(pvB.Detected), report.Pct(pvB.Total()))
	tc.AddRow("w/", report.Pct(pvP.SDC), report.Pct(pvP.Crash), report.Pct(pvP.Detected), report.Pct(pvP.Total()))

	// (d) SVF.
	svB, err := a.svf(base)
	if err != nil {
		return nil, err
	}
	svP, err := a.svf(prot)
	if err != nil {
		return nil, err
	}
	td := r.NewTable("(d) SVF", "Version", "SDC", "Crash", "Detected", "SVF")
	td.AddRow("w/o", report.Pct(svB.SDC), report.Pct(svB.Crash), report.Pct(svB.Detected), report.Pct(svB.Total()))
	td.AddRow("w/", report.Pct(svP.SDC), report.Pct(svP.Crash), report.Pct(svP.Detected), report.Pct(svP.Total()))

	// Execution-time inflation and kernel share (the paper's mechanism
	// for AVF degradation).
	gb, err := a.golden(base, cfg)
	if err != nil {
		return nil, err
	}
	gp, err := a.golden(prot, cfg)
	if err != nil {
		return nil, err
	}
	r.Notef("execution time: %d -> %d cycles (%.2fx, paper reports 2.1x for sha / 2.5x for smooth)",
		gb.Cycles, gp.Cycles, float64(gp.Cycles)/float64(gb.Cycles))
	r.Notef("kernel share of committed instructions: w/o %s, w/ %s (kernel code is outside the protection domain)",
		report.Pct(float64(gb.KInstr)/float64(gb.Instret)),
		report.Pct(float64(gp.KInstr)/float64(gp.Instret)))
	if svB.Total() > 0 && pvB.Total() > 0 {
		r.Notef("higher-level improvement: SVF %s, PVF %s; cross-layer AVF change: %+.1f%% (paper: up to 3.8x improvement reported while AVF degrades up to 30%%)",
			improvement(svB.Total(), svP.Total()), improvement(pvB.Total(), pvP.Total()),
			100*(wP.Total()-wB.Total())/maxf(wB.Total(), 1e-9))
	}
	return r, nil
}

func improvement(before, after float64) string {
	if after <= 0 {
		return fmt.Sprintf("%.1f%% -> 0 (all detected)", 100*before)
	}
	return fmt.Sprintf("%.2fx lower", before/after)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

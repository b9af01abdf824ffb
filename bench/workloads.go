package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vulnstack"
	"vulnstack/internal/arch"
	"vulnstack/internal/ckpt"
	"vulnstack/internal/inject"
	"vulnstack/internal/isa"
	"vulnstack/internal/llfi"
	"vulnstack/internal/micro"
	"vulnstack/internal/report"
	"vulnstack/internal/results"
	"vulnstack/internal/static"
)

// faultSeed draws every campaign's fault list; --seed picks the
// benchmark programs' generated inputs (Target.Seed). A handful of
// non-converging faulty runs per thousand injections carry about half of
// a micro campaign's cost, so letting the seed redraw the faults spread
// avf-micro's cost by 18% (IQR over ten seeds) against 3-5% with the
// fault lists fixed. fig4-store goes through vulnstack.Lab, whose one
// Options.Seed drives both; its timed phase injects nothing.
const faultSeed = 2021

// pair is one avf-micro campaign target: a benchmark on a core model.
type pair struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`
}

// params size a workload. They are stamped into every result file, and
// -compare refuses to pair results whose params differ.
type params struct {
	Pairs   []pair   `json:"pairs,omitempty"`
	Benches []string `json:"benches,omitempty"`
	// N is injections per structure before CacheSampleBoost (avf-micro)
	// or per FPM (pvf-svf); NSoft is the soft-layer count.
	N     int `json:"n,omitempty"`
	NSoft int `json:"n_soft,omitempty"`
	// NAVF, NPVF and NSVF size fig4-store's cold regeneration; the
	// top-up doubles them. Warm is the warm regenerations per pass.
	NAVF int `json:"navf,omitempty"`
	NPVF int `json:"npvf,omitempty"`
	NSVF int `json:"nsvf,omitempty"`
	Warm int `json:"warm,omitempty"`
	// CI and Pool are strat-ci's stratified options (0: the defaults).
	CI   float64 `json:"ci,omitempty"`
	Pool int     `json:"pool,omitempty"`
	// Setups is how many times set-up is repeated (setup_s is their
	// median); MinPasses bounds the timed passes from below.
	Setups    int `json:"setups"`
	MinPasses int `json:"min_passes"`
	// Workers is the campaign fan-out (0: one per CPU).
	Workers int `json:"workers"`
}

func (p params) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.NumCPU()
}

// request is one campaign call of a pass.
type request struct {
	span  string // span name in traced runs
	attrs attrs
	// do runs the call at the given campaign fan-out and returns its
	// tallies as canonical text. With t non-nil it records one span per
	// injection under parent where the layer allows it (workers must
	// then be 1 for the spans to be exact).
	do func(t *tracer, parent, workers int) (string, error)
}

// instance is one workload's state inside a run.
type instance interface {
	// setup builds everything the passes reuse, replacing what an
	// earlier call built.
	setup(t *tracer, parent int) error
	// requests lists one pass: the closed-loop client's calls, in order.
	requests() []request
	// probe adds per-layer metrics measured outside the timed spans.
	probe(t *tracer, m metrics) error
	close()
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	why  string
	full params
	// pinned is the pass digest at seed 2021 with the full params.
	pinned string
	// serialTrace traces at Workers=1 with one span per injection;
	// otherwise spans are per call, at the run's fan-out.
	serialTrace bool
	build       func(p params, seed int64, scratch string) instance
}

var workloadDefs = []*workloadDef{
	{
		name:   "fig4-store",
		why:    "the paper-artifact path and the only one touching the store: cold Fig. 4, a 2x top-up, then warm regenerations served from segments and chains",
		full:   params{Benches: []string{"sha", "qsort", "fft"}, NAVF: 10, NPVF: 20, NSVF: 40, Warm: 20, Setups: 3, MinPasses: 3},
		pinned: "35bff31afaf5d1c382baccb930505cb78e0737d271bd43864c24cc26c66e02d2",
		build: func(p params, seed int64, scratch string) instance {
			return &fig4Store{p: p, seed: seed, scratch: scratch}
		},
	},
	{
		name:        "avf-micro",
		why:         "micro-layer AVF campaigns only, no store: the cycle-level core does the work, arch and soft layers none",
		full:        params{Pairs: []pair{{"sha", "A72"}, {"qsort", "A15"}, {"fft", "A57"}, {"crc32", "A9"}}, N: 30, Setups: 3, MinPasses: 3},
		serialTrace: true,
		pinned:      "425c82f9947bc3d50d020af70a4c40bef092bea486038e392e27ae692dc60bbd",
		build: func(p params, seed int64, _ string) instance {
			return &avfMicro{p: p, seed: seed}
		},
	},
	{
		name:        "pvf-svf",
		why:         "arch and soft campaigns on all ten benchmarks, no store, no micro layer: the tb engines do the work, so a micro-layer change must not move it",
		full:        params{Benches: vulnstack.Benchmarks(), N: 150, NSoft: 400, Setups: 3, MinPasses: 3},
		serialTrace: true,
		pinned:      "f7e51ec7206c5f33440148400ab61d161559e7110127d2ff5b97a57bd81b5d51",
		build: func(p params, seed int64, _ string) instance {
			return &pvfSVF{p: p, seed: seed}
		},
	},
	{
		name:   "strat-ci",
		why:    "adaptive stratified sampling to the paper's 2.88%/99% bound at all three layers with static resolution: exercises strata, static and planning code",
		full:   params{Benches: []string{"sha", "qsort", "smooth"}, Setups: 3, MinPasses: 3},
		pinned: "9bf1624c798e2d37395ce85e7f4e281c98b4375033ed3a24bd182c6c3aad048e",
		build: func(p params, seed int64, _ string) instance {
			return &stratCI{p: p, seed: seed}
		},
	},
}

func workloadByName(name string) (*workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// tallyText renders a record stream's tally canonically.
func tallyText(recs []results.Record) string {
	return fmt.Sprintf("%+v", results.TallyOf(recs))
}

// groupMajor reorders a fault pool by governing checkpoint, groups in
// first-seen order and stable within each. campaign.Run executes jobs in
// exactly this order, so at Workers=1 the gaps between progress
// callbacks over the reordered pool are the injections' own durations;
// over the pool's index order they are not, because Run emits in index
// order what it executed grouped.
func groupMajor[F any](pool []F, group func(F) int) []F {
	var order []int
	byGroup := make(map[int][]F)
	for _, f := range pool {
		g := group(f)
		if _, ok := byGroup[g]; !ok {
			order = append(order, g)
		}
		byGroup[g] = append(byGroup[g], f)
	}
	out := make([]F, 0, len(pool))
	for _, g := range order {
		out = append(out, byGroup[g]...)
	}
	return out
}

// injectionSpans returns a progress callback recording one span per
// injection under parent.
func injectionSpans(t *tracer, parent int, name string, a attrs) func(int, results.Record) {
	last := t.now()
	return func(_ int, r results.Record) {
		now := t.now()
		a.Live, a.Early, a.Outcome = r.Live, r.EarlyStop, r.Outcome.String()
		t.add(parent, name, last, now, a)
		last = now
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func build(t *tracer, parent int, tgt vulnstack.Target, is isa.ISA, a attrs) (*vulnstack.System, error) {
	var s *vulnstack.System
	err := t.timed(parent, "build", a, func() (err error) {
		s, err = vulnstack.Build(tgt, is)
		return err
	})
	return s, err
}

func chainMetrics(m metrics, chains ...*ckpt.Chain) {
	for _, ch := range chains {
		st := ch.Stats()
		m["ckpt.chain_mb"] += float64(st.BaseBytes+st.DeltaBytes+st.AuxBytes) / (1 << 20)
		m["ckpt.checkpoints"] += float64(st.Checkpoints)
	}
}

// --- avf-micro ---

type avfMicro struct {
	p    params
	seed int64
	cps  []*inject.Campaign
}

func (w *avfMicro) setup(t *tracer, parent int) error {
	w.cps = nil
	for _, pr := range w.p.Pairs {
		cfg, err := micro.ConfigByName(pr.Config)
		if err != nil {
			return err
		}
		a := attrs{Bench: pr.Bench, Config: cfg.Name}
		s, err := build(t, parent, vulnstack.Target{Bench: pr.Bench, Seed: w.seed}, cfg.ISA, a)
		if err != nil {
			return err
		}
		s.Workers = w.p.workers()
		var cp *inject.Campaign
		if err := t.timed(parent, "prepare.micro", a, func() (err error) {
			cp, err = s.MicroCampaign(cfg)
			return err
		}); err != nil {
			return err
		}
		w.cps = append(w.cps, cp)
	}
	return nil
}

// requests are exactly System.AVFAll's draws for each pair, driven
// through MicroCampaign + Records.
func (w *avfMicro) requests() []request {
	var reqs []request
	for i, pr := range w.p.Pairs {
		cp := w.cps[i]
		for st := micro.Structure(0); st < micro.NumStructures; st++ {
			n := w.p.N
			if b := vulnstack.CacheSampleBoost[st]; b > 1 {
				n *= b
			}
			seed := faultSeed + int64(st)*7919
			a := attrs{Bench: pr.Bench, Config: pr.Config, Target: st.String()}
			reqs = append(reqs, request{span: "request.micro", attrs: a,
				do: func(t *tracer, parent, workers int) (string, error) {
					cp.Workers = workers
					if t == nil {
						return tallyText(cp.Records(st, n, 0, seed, nil)), nil
					}
					faults := groupMajor(cp.Pool(st, n, seed), func(f inject.Fault) int { return cp.CkptFor(f.Cycle) })
					return tallyText(cp.RecordsAt(faults, 0, injectionSpans(t, parent, "inject.micro", a))), nil
				}})
		}
	}
	return reqs
}

func (w *avfMicro) probe(_ *tracer, m metrics) error {
	for _, cp := range w.cps {
		m["inject.golden_cycles"] += float64(cp.Golden.Cycles)
		chainMetrics(m, cp.Chain())
	}
	return nil
}

func (w *avfMicro) close() {}

// --- pvf-svf ---

type pvfSVF struct {
	p     params
	seed  int64
	archs []*arch.Campaign
	softs []*llfi.Campaign
}

func (w *pvfSVF) setup(t *tracer, parent int) error {
	w.archs, w.softs = nil, nil
	for _, b := range w.p.Benches {
		a := attrs{Bench: b}
		s, err := build(t, parent, vulnstack.Target{Bench: b, Seed: w.seed}, isa.VSA64, a)
		if err != nil {
			return err
		}
		s.Workers = w.p.workers()
		var ac *arch.Campaign
		var lc *llfi.Campaign
		if err := t.timed(parent, "prepare.arch", a, func() (err error) {
			ac, err = s.ArchCampaign()
			return err
		}); err != nil {
			return err
		}
		if err := t.timed(parent, "prepare.llfi", a, func() (err error) {
			lc, err = s.LLFICampaign()
			return err
		}); err != nil {
			return err
		}
		w.archs, w.softs = append(w.archs, ac), append(w.softs, lc)
	}
	return nil
}

func (w *pvfSVF) requests() []request {
	var reqs []request
	for i, b := range w.p.Benches {
		ac, lc := w.archs[i], w.softs[i]
		for _, fpm := range []micro.FPM{micro.FPMWD, micro.FPMWOI, micro.FPMWI} {
			a := attrs{Bench: b, Target: fpm.String()}
			reqs = append(reqs, request{span: "request.arch", attrs: a,
				do: func(t *tracer, parent, workers int) (string, error) {
					ac.Workers = workers
					if t == nil {
						return tallyText(ac.Records(fpm, w.p.N, 0, faultSeed, nil)), nil
					}
					faults := groupMajor(ac.Pool(fpm, w.p.N, faultSeed), func(f arch.Fault) int { return ac.CkptFor(f.K) })
					return tallyText(ac.RecordsAt(faults, 0, injectionSpans(t, parent, "inject.arch", a))), nil
				}})
		}
		a := attrs{Bench: b, Target: "soft"}
		reqs = append(reqs, request{span: "request.soft", attrs: a,
			do: func(t *tracer, parent, workers int) (string, error) {
				lc.Workers = workers
				if t == nil {
					return tallyText(lc.Records(w.p.NSoft, 0, faultSeed, nil)), nil
				}
				// Soft-layer jobs share one group, so pool order is
				// already execution order.
				return tallyText(lc.RecordsAt(lc.Pool(w.p.NSoft, faultSeed), 0, injectionSpans(t, parent, "inject.llfi", a))), nil
			}})
	}
	return reqs
}

func (w *pvfSVF) probe(_ *tracer, m metrics) error {
	for _, ac := range w.archs {
		chainMetrics(m, ac.Chain())
	}
	return nil
}

func (w *pvfSVF) close() {}

// --- strat-ci ---

type stratCI struct {
	p    params
	seed int64
	sys  []*vulnstack.System
	// last holds each request's latest result, for the strat.* metrics.
	last []vulnstack.StratResult
}

func (w *stratCI) opts() vulnstack.StratOptions {
	return vulnstack.StratOptions{CI: w.p.CI, Pool: w.p.Pool}
}

func (w *stratCI) setup(t *tracer, parent int) error {
	w.sys = nil
	a72 := micro.ConfigA72()
	for _, b := range w.p.Benches {
		a := attrs{Bench: b}
		s, err := build(t, parent, vulnstack.Target{Bench: b, Seed: w.seed}, isa.VSA64, a)
		if err != nil {
			return err
		}
		s.Workers = w.p.workers()
		s.Static = true
		steps := []struct {
			name string
			fn   func() error
		}{
			{"prepare.micro", func() error { _, err := s.MicroCampaign(a72); return err }},
			{"prepare.arch", func() error { _, err := s.ArchCampaign(); return err }},
			{"prepare.llfi", func() error { _, err := s.LLFICampaign(); return err }},
			// A system solves its static CFG and bit flow lazily, on its
			// first stratified call. A one-injection budgeted call lets
			// that set-up finish here rather than inside the first pass.
			{"prepare.static", func() error {
				o := w.opts()
				o.MaxNew = 1
				if _, err := s.StratMicro(a72, micro.StructRF, o, faultSeed); err != nil {
					return err
				}
				_, err := s.StratPVF(micro.FPMWD, o, faultSeed)
				return err
			}},
		}
		for _, st := range steps {
			if err := t.timed(parent, st.name, a, st.fn); err != nil {
				return err
			}
		}
		w.sys = append(w.sys, s)
	}
	return nil
}

func stratText(r vulnstack.StratResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d fresh=%d resolved=%d pool=%d\n", r.N, r.Fresh, r.Resolved, r.Pool)
	for _, st := range r.Strata {
		fmt.Fprintf(&sb, "%s %d %v %+v\n", st.Label, st.Size, st.Resolved, st.Tally)
	}
	return sb.String()
}

func (w *stratCI) requests() []request {
	a72 := micro.ConfigA72()
	var reqs []request
	w.last = nil
	for i, b := range w.p.Benches {
		s := w.sys[i]
		calls := []struct {
			span string
			fn   func() (vulnstack.StratResult, error)
		}{
			{"strat.micro", func() (vulnstack.StratResult, error) { return s.StratMicro(a72, micro.StructRF, w.opts(), faultSeed) }},
			{"strat.pvf", func() (vulnstack.StratResult, error) { return s.StratPVF(micro.FPMWD, w.opts(), faultSeed) }},
			{"strat.svf", func() (vulnstack.StratResult, error) { return s.StratSVF(w.opts(), faultSeed) }},
		}
		for _, c := range calls {
			k := len(w.last)
			w.last = append(w.last, vulnstack.StratResult{})
			reqs = append(reqs, request{span: c.span, attrs: attrs{Bench: b},
				do: func(*tracer, int, int) (string, error) {
					r, err := c.fn()
					if err != nil {
						return "", err
					}
					w.last[k] = r
					return stratText(r), nil
				}})
		}
	}
	return reqs
}

func (w *stratCI) probe(t *tracer, m metrics) error {
	a72 := micro.ConfigA72()
	root := t.begin(0, "probe", attrs{})
	defer t.end(root)
	for _, s := range w.sys {
		a := attrs{Bench: s.Target.Bench}
		var g *static.CFG
		m["static.cfg_ms"] += spanMS(t, root, "probe.static.cfg", a, func() {
			g = static.BuildCFG(s.ISA, static.ImageSegs(s.Image))
			g.Liveness()
		})
		m["static.bits_ms"] += spanMS(t, root, "probe.static.bits", a, func() { g.SolveBits() })
		m["static.irbits_ms"] += spanMS(t, root, "probe.static.irbits", a, func() { static.AnalyzeIR(s.IR, "_start", llfi.Width) })
		cp, err := s.MicroCampaign(a72)
		if err != nil {
			return err
		}
		ac, err := s.ArchCampaign()
		if err != nil {
			return err
		}
		m["inject.golden_cycles"] += float64(cp.Golden.Cycles)
		chainMetrics(m, cp.Chain(), ac.Chain())
	}
	ci := w.p.CI
	if ci <= 0 {
		ci = vulnstack.DefaultStratCI
	}
	var fresh, uniform, resolved, pool int
	for _, r := range w.last {
		fresh += r.Fresh
		resolved += r.Resolved
		pool += r.Pool
		m["strat.strata"] += float64(len(r.Strata))
		uniform += vulnstack.UniformSamplesFor(ci, 0.99)
	}
	m["strat.injections"] = float64(fresh)
	if fresh > 0 {
		m["strat.reduction"] = float64(uniform) / float64(fresh)
	}
	if pool > 0 {
		m["strat.resolved_frac"] = float64(resolved) / float64(pool)
	}
	return nil
}

func (w *stratCI) close() {}

// spanMS runs fn inside a span and returns its duration in ms.
func spanMS(t *tracer, parent int, name string, a attrs, fn func()) float64 {
	t0 := time.Now()
	t.timed(parent, name, a, func() error { fn(); return nil })
	return ms(time.Since(t0))
}

// --- fig4-store ---

type fig4Store struct {
	p       params
	seed    int64
	scratch string
	dir     string
	// ref is the top-up's Fig. 4 tables; every warm regeneration must
	// render them again.
	ref string
}

func (w *fig4Store) opts(scale int) vulnstack.Options {
	o := vulnstack.DefaultOptions()
	o.NAVF, o.NPVF, o.NSVF = scale*w.p.NAVF, scale*w.p.NPVF, scale*w.p.NSVF
	o.Seed = w.seed
	o.Benches = w.p.Benches
	o.Workers = w.p.workers()
	o.StoreDir = w.dir
	return o
}

// tables renders a report's tables; its notes carry the store path and
// are left out.
func tables(r *report.Report) string {
	var sb strings.Builder
	for _, t := range r.Tables {
		sb.WriteString(t.String())
	}
	return sb.String()
}

func (w *fig4Store) setup(t *tracer, parent int) error {
	w.close()
	if err := os.MkdirAll(w.scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.scratch, "fig4-store-")
	if err != nil {
		return err
	}
	w.dir = dir
	if err := t.timed(parent, "lab.cold", attrs{}, func() error {
		_, err := vulnstack.NewLab(w.opts(1)).Run("fig4")
		return err
	}); err != nil {
		return err
	}
	return t.timed(parent, "lab.topup", attrs{}, func() error {
		r, err := vulnstack.NewLab(w.opts(2)).Run("fig4")
		if err == nil {
			w.ref = tables(r)
		}
		return err
	})
}

// storeTallies lists every stored campaign with its full tally, as
// `vulnstack results` would.
func storeTallies(st *results.Store) (string, int, int, error) {
	ms, err := st.List()
	if err != nil {
		return "", 0, 0, err
	}
	var sb strings.Builder
	rows := 0
	for _, m := range ms {
		tl, err := st.TallyPrefix(m.Key, m.N)
		if err != nil {
			return "", 0, 0, err
		}
		fmt.Fprintf(&sb, "%s %d %+v\n", m.Key, m.N, tl)
		rows += m.N
	}
	return sb.String(), len(ms), rows, nil
}

func (w *fig4Store) requests() []request {
	reqs := []request{{span: "results.list", do: func(*tracer, int, int) (string, error) {
		st, err := results.OpenStore(w.dir)
		if err != nil {
			return "", err
		}
		text, _, _, err := storeTallies(st)
		// Keys embed nothing run-specific, so the listing is part of
		// the digest.
		return text, err
	}}}
	for i := 0; i < w.p.Warm; i++ {
		reqs = append(reqs, request{span: "lab.warm", do: func(*tracer, int, int) (string, error) {
			r, err := vulnstack.NewLab(w.opts(2)).Run("fig4")
			if err != nil {
				return "", err
			}
			if got := tables(r); got != w.ref {
				return "", fmt.Errorf("warm Fig. 4 differs from the top-up's")
			}
			return "", nil
		}})
	}
	return reqs
}

func (w *fig4Store) probe(t *tracer, m metrics) error {
	root := t.begin(0, "probe", attrs{})
	defer t.end(root)
	st, err := results.OpenStore(w.dir)
	if err != nil {
		return err
	}
	var ncamp, rows int
	m["results.tally_ms"] = spanMS(t, root, "probe.results.tally", attrs{}, func() {
		_, ncamp, rows, err = storeTallies(st)
	})
	if err != nil {
		return err
	}
	m["results.campaigns"], m["results.rows"] = float64(ncamp), float64(rows)
	if m["results.tally_ms"] > 0 {
		m["results.rows_per_s"] = float64(rows) / (m["results.tally_ms"] / 1e3)
	}
	segs, err := filepath.Glob(filepath.Join(w.dir, "*"+results.SegExt))
	if err != nil {
		return err
	}
	for _, f := range segs {
		fi, err := os.Stat(f)
		if err != nil {
			return err
		}
		m["results.seg_mb"] += float64(fi.Size()) / (1 << 20)
	}
	fps, err := st.ListChains()
	if err != nil {
		return err
	}
	for _, fp := range fps {
		var ch *ckpt.Chain
		var size int
		m["ckpt.decode_ms"] += spanMS(t, root, "probe.ckpt.decode", attrs{}, func() {
			var data []byte
			if data, _, err = st.LoadChain(fp); err == nil {
				size = len(data)
				ch, err = ckpt.Decode(data)
			}
		})
		if err != nil {
			return fmt.Errorf("chain %s: %w", fp, err)
		}
		m["ckpt.chain_mb"] += float64(size) / (1 << 20)
		m["ckpt.checkpoints"] += float64(ch.Len())
	}
	// The Lab builds and prepares inside Run; a store-less Lab with the
	// same options times those steps from outside.
	o := w.opts(1)
	o.StoreDir = ""
	lab := vulnstack.NewLab(o)
	for _, b := range w.p.Benches {
		a := attrs{Bench: b}
		var s *vulnstack.System
		if err := t.timed(root, "build", a, func() (err error) {
			s, err = lab.System(vulnstack.Target{Bench: b}, isa.VSA64)
			return err
		}); err != nil {
			return err
		}
		var cp *inject.Campaign
		for _, step := range []struct {
			name string
			fn   func() error
		}{
			{"prepare.micro", func() (err error) { cp, err = s.MicroCampaign(micro.ConfigA72()); return err }},
			{"prepare.arch", func() error { _, err := s.ArchCampaign(); return err }},
			{"prepare.llfi", func() error { _, err := s.LLFICampaign(); return err }},
		} {
			if err := t.timed(root, step.name, a, step.fn); err != nil {
				return err
			}
		}
		m["inject.golden_cycles"] += float64(cp.Golden.Cycles)
	}
	return nil
}

func (w *fig4Store) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

package vulnstack

import (
	"fmt"
	"math/bits"

	"vulnstack/internal/ace"
	"vulnstack/internal/harden"
	"vulnstack/internal/isa"
	"vulnstack/internal/llfi"
	"vulnstack/internal/micro"
	"vulnstack/internal/report"
	"vulnstack/internal/results"
	"vulnstack/internal/static"
	"vulnstack/internal/vuln"
)

// AnalyzeOptions tunes the static analysis report.
type AnalyzeOptions struct {
	// WithACE adds the dynamic-trace ACE column to the dominance
	// table. It runs the functional emulator (a golden execution) but
	// never an injector; disable it for a strictly no-execution pass.
	WithACE bool
}

// DefaultAnalyzeOptions enables the dynamic ACE comparison.
func DefaultAnalyzeOptions() AnalyzeOptions { return AnalyzeOptions{WithACE: true} }

// Analyze produces the static-analysis report: no-execution PVF/ACE
// bounds, the static FPM bit distribution, the dominance diff against
// dynamic ACE and stored injection campaigns, and hardening-coverage
// verification. It prepares no injector and runs no fault injection —
// stored PVF numbers are read from the lab's results store when one is
// attached, and shown as "-" otherwise.
func (l *Lab) Analyze(ao AnalyzeOptions) (*report.Report, error) {
	r := &report.Report{
		ID:    "Static",
		Title: "Static vulnerability analysis: no-execution bounds vs dynamic ACE vs injection",
	}
	benches := l.Opts.benches()
	seed := l.Opts.Seed

	// Build (or reuse) the systems and their static results up front.
	type entry struct {
		res map[isa.ISA]*static.Result
		dyn *ace.Result
	}
	entries := make([]entry, len(benches))
	fns := make([]func() error, len(benches))
	for i, b := range benches {
		fns[i] = func() error {
			e := entry{res: make(map[isa.ISA]*static.Result)}
			for _, is := range []isa.ISA{isa.VSA32, isa.VSA64} {
				s, err := l.System(Target{Bench: b}, is)
				if err != nil {
					return err
				}
				st, err := static.Analyze(s.Image)
				if err != nil {
					return fmt.Errorf("static analysis of %s/%v: %w", b, is, err)
				}
				e.res[is] = st
			}
			if ao.WithACE {
				s, err := l.System(Target{Bench: b}, isa.VSA64)
				if err != nil {
					return err
				}
				dyn, err := ace.Analyze(s.Image, 0)
				if err != nil {
					return fmt.Errorf("ace analysis of %s: %w", b, err)
				}
				e.dyn = dyn
			}
			entries[i] = e
			return nil
		}
	}
	if err := l.fill(fns...); err != nil {
		return nil, err
	}

	// (a) static bounds and dataflow statistics.
	for _, is := range []isa.ISA{isa.VSA64, isa.VSA32} {
		t := r.NewTable(fmt.Sprintf("(a) static bounds and dataflow statistics (%v)", is),
			"Benchmark", "Instrs", "RegBound", "MeanLive", "EverLive",
			"DeadDefs", "BoundaryUses", "StackSlots", "DeadStkSt")
		for i, b := range benches {
			st := entries[i].res[is]
			t.AddRow(b, fmt.Sprint(st.Instrs), report.Pct(st.RegBound),
				report.Pct(st.MeanLive), fmt.Sprintf("%d/%d", st.EverLive, is.NumRegs()),
				fmt.Sprint(st.DeadDefs), fmt.Sprint(st.BoundaryUses),
				fmt.Sprint(st.StackSlots), fmt.Sprintf("%d/%d", st.DeadStackStores, st.StackStores))
		}
	}
	r.Notef("RegBound is the provable no-execution upper bound on register ACE/PVF (max live-out fraction over all program points); MemBound is trivially 100%% without execution knowledge")

	// (b) static FPM bit distribution.
	tf := r.NewTable("(b) static FPM bit classification (VSA64, all text bits)",
		"Benchmark", "masked", "WD", "WI", "WOI", "trap", "WD*", "WI*", "WOI*")
	for i, b := range benches {
		d := entries[i].res[isa.VSA64].FPM
		tf.AddRow(b,
			report.Pct(d.Share(isa.BitMasked)), report.Pct(d.Share(isa.BitWD)),
			report.Pct(d.Share(isa.BitWI)), report.Pct(d.Share(isa.BitWOI)),
			report.Pct(d.Share(isa.BitTrap)),
			report.Pct(d.ModelShare(isa.BitWD)), report.Pct(d.ModelShare(isa.BitWI)),
			report.Pct(d.ModelShare(isa.BitWOI)))
	}
	r.Notef("starred columns renormalize over the manifest models (WD+WI+WOI) for comparison with the measured FPM split of visible faults (fig5/fig6); the static view is execution-frequency-blind and cannot see ESC")

	// (c) dominance: static bound >= dynamic ACE >= register-uniform
	// injected PVF. Operand-targeted WD-PVF is shown for reference only:
	// it conditions on the corrupted value being consumed, a probability
	// ACE does not (and should not) bound.
	hdr := []string{"Benchmark", "Static bound"}
	if ao.WithACE {
		hdr = append(hdr, "Dynamic ACE", "Static/Dyn")
	}
	hdr = append(hdr, "Uniform PVF", "WD PVF (ref)", "Chain")
	td := r.NewTable("(c) dominance chain (VSA64, register file)", hdr...)
	store, err := l.Store()
	if err != nil {
		return nil, err
	}
	// loadPVF reads one stored campaign without ever preparing an
	// injector; absent campaigns stay "-".
	loadPVF := func(b string, key func(s *System) results.Key) (float64, string, error) {
		if store == nil {
			return 0, "-", nil
		}
		s, err := l.System(Target{Bench: b}, isa.VSA64)
		if err != nil {
			return 0, "-", err
		}
		recs, ok, err := store.Load(key(s))
		if err != nil || !ok || len(recs) == 0 {
			return 0, "-", err
		}
		pvf := vuln.SplitRecords(recs).Total()
		return pvf, fmt.Sprintf("%s (n=%d)", report.Pct(pvf), len(recs)), nil
	}
	stored := 0
	for i, b := range benches {
		e := entries[i]
		bound := e.res[isa.VSA64].RegBound
		row := []string{b, report.Pct(bound)}
		chainOK := true
		if ao.WithACE {
			row = append(row, report.Pct(e.dyn.RegACE))
			ratio := "-"
			if e.dyn.RegACE > 0 {
				ratio = fmt.Sprintf("%.1fx", bound/e.dyn.RegACE)
			}
			row = append(row, ratio)
			chainOK = chainOK && bound >= e.dyn.RegACE
		}
		upvf, ucell, err := loadPVF(b, func(s *System) results.Key { return s.ArchKey(micro.FPMNone, seed) })
		if err != nil {
			return nil, err
		}
		if ucell != "-" {
			stored++
			chainOK = chainOK && bound >= upvf
			if ao.WithACE {
				chainOK = chainOK && e.dyn.RegACE >= upvf
			}
		}
		_, wcell, err := loadPVF(b, func(s *System) results.Key { return s.ArchKey(micro.FPMWD, seed) })
		if err != nil {
			return nil, err
		}
		check := "static >= dynamic"
		if !chainOK {
			check = "VIOLATED"
		}
		td.AddRow(append(row, ucell, wcell, check)...)
	}
	if store == nil {
		r.Notef("no results store attached: injected PVF columns empty — run experiments with -store DIR first, then analyze with the same -store to diff against stored campaigns")
	} else if stored < len(benches) {
		r.Notef("stored uniform-PVF campaigns found for %d of %d benchmarks; missing ones are never injected by analyze (it prepares no injector)", stored, len(benches))
	}
	r.Notef("the chain static bound >= dynamic ACE >= uniform PVF quantifies analysis pessimism: the static maximum saturates at the kernel trap-entry register save, dynamic ACE averages actual lifetimes, uniform injection measures end-to-end corruption under (register, bit, instant)-uniform sampling")
	r.Notef("WD PVF targets a *consumed* operand (liveness-conditioned), so it may legitimately exceed dynamic ACE; it is reported for reference, not checked against the chain")

	// (d) hardening coverage.
	tcv := r.NewTable("(d) hardening-coverage verification (VSA64 IR)",
		"Benchmark", "Funcs", "Obligations", "Covered", "Coverage", "Holes", "Unhardened cov.")
	for _, b := range benches {
		hs, err := l.System(Target{Bench: b, Harden: true}, isa.VSA64)
		if err != nil {
			return nil, err
		}
		bs, err := l.System(Target{Bench: b}, isa.VSA64)
		if err != nil {
			return nil, err
		}
		opts := harden.DefaultOptions()
		cov := static.VerifyHardening(hs.IR, opts)
		base := static.VerifyHardening(bs.IR, opts)
		tcv.AddRow(b, fmt.Sprint(cov.Funcs), fmt.Sprint(cov.Obligations),
			fmt.Sprint(cov.Covered), report.Pct(cov.Frac()),
			fmt.Sprint(len(cov.Holes)), report.Pct(base.Frac()))
		for _, h := range cov.Holes {
			r.Notef("coverage hole in %s: %s", b, h)
		}
	}
	r.Notef("the verifier re-derives every duplication and guard obligation from the IR (it does not trust the transform); the unhardened column shows the same verdict on unprotected code")
	r.Notef("analysis provenance: seed %d; zero fault injections performed (no injector prepared)", seed)
	return r, nil
}

// AnalyzeBits produces the bit-precise static-resolution report: per
// benchmark, how many fault-site bits the known-bits/demanded-bits
// analysis proves masked — at the hardware text level (both ISAs, a
// stratification feature) and at the software IR level (a sound
// per-site verdict consumed by `campaign -static`). It runs golden
// executions (to weight the soft verdict by the dynamic fault pool) but
// performs zero fault injections.
func (l *Lab) AnalyzeBits() (*report.Report, error) {
	r := &report.Report{
		ID:    "StaticBits",
		Title: "Bit-precise static resolution: provably-masked fault-site bits by layer",
	}
	benches := l.Opts.benches()
	seed := l.Opts.Seed

	type entry struct {
		hw     map[isa.ISA]static.BitStats
		hwDom  map[isa.ISA]bool
		defs   int
		demand int64
		frac   float64
		// pool resolution: of a DefaultStratPool-site dynamic fault
		// pool, the share the static verdict resolves without injection.
		poolResolved int
		poolSize     int
	}
	entries := make([]entry, len(benches))
	fns := make([]func() error, len(benches))
	for i, b := range benches {
		fns[i] = func() error {
			e := entry{hw: make(map[isa.ISA]static.BitStats), hwDom: make(map[isa.ISA]bool)}
			for _, is := range []isa.ISA{isa.VSA32, isa.VSA64} {
				s, err := l.System(Target{Bench: b}, is)
				if err != nil {
					return err
				}
				bf := s.bitFlow()
				e.hw[is] = bf.Stats()
				e.hwDom[is] = bf.DemandWithinLiveness()
			}
			s, err := l.System(Target{Bench: b}, isa.VSA64)
			if err != nil {
				return err
			}
			cp, err := s.LLFICampaign()
			if err != nil {
				return err
			}
			ib := cp.IRBits()
			if ib == nil {
				return fmt.Errorf("analyze -bits: %s: no IR demanded-bits analysis (campaign prepared without site tracking)", b)
			}
			e.defs = ib.Defs
			for _, d := range ib.Demanded {
				e.demand += int64(bits.OnesCount64(d))
			}
			e.frac = ib.ResolvedFrac()
			pool := cp.Pool(DefaultStratPool, seed)
			e.poolSize = len(pool)
			for _, f := range pool {
				if cp.StaticMasked(f) {
					e.poolResolved++
				}
			}
			entries[i] = e
			return nil
		}
	}
	if err := l.fill(fns...); err != nil {
		return nil, err
	}

	for _, is := range []isa.ISA{isa.VSA64, isa.VSA32} {
		t := r.NewTable(fmt.Sprintf("(a) hardware text demanded-bits (%v)", is),
			"Benchmark", "Instrs", "LiveBits", "Demanded", "Resolved", "Dem⊆Live")
		for i, b := range benches {
			st := entries[i].hw[is]
			chain := "ok"
			if !entries[i].hwDom[is] {
				chain = "VIOLATED"
			}
			t.AddRow(b, fmt.Sprint(st.Instrs), fmt.Sprint(st.LiveBits),
				fmt.Sprint(st.DemandedBits), report.Pct(st.ResolvedFrac()), chain)
		}
	}
	r.Notef("hardware resolved bits are live-out register bits the backward pass proves undemanded at that program point: a stratification feature only — the architectural target of a hardware fault is dynamic state (renamed physical registers, forward-walked instants), so no per-site verdict exists at the micro/arch layers")

	t := r.NewTable("(b) software IR demanded-bits (VSA64, sound per-site verdict)",
		"Benchmark", "Defs", "SiteBits", "Demanded", "Resolved", "PoolResolved")
	for i, b := range benches {
		e := entries[i]
		t.AddRow(b, fmt.Sprint(e.defs), fmt.Sprint(int64(e.defs)*int64(llfi.Width)),
			fmt.Sprint(e.demand), report.Pct(e.frac),
			fmt.Sprintf("%s (%d/%d)", report.Pct(float64(e.poolResolved)/float64(e.poolSize)), e.poolResolved, e.poolSize))
	}
	r.Notef("Resolved is the static per-site-bit fraction proven masked; PoolResolved weights it by the dynamic fault pool (%d sites drawn as `campaign -strat` draws them) — exactly the injections `campaign -static` never performs", DefaultStratPool)
	r.Notef("dominance chain: demanded-bits ⊆ register liveness ⊆ dynamic ACE ⊆ injected PVF (see DESIGN.md); the Dem⊆Live column machine-checks the first containment")
	r.Notef("analysis provenance: seed %d; golden executions only, zero fault injections performed", seed)
	return r, nil
}

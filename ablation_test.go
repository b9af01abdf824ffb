package vulnstack

// Ablation benchmarks beyond the paper's figures (DESIGN.md §4):
//
//	go test -bench Ablation -benchtime 1x
//
// They examine design choices the study depends on: ACE pessimism vs
// injection, LSQ field sensitivity (address vs data bits), and campaign
// size convergence.

import (
	"fmt"
	"math/rand"
	"testing"

	"vulnstack/internal/ace"
	"vulnstack/internal/inject"
	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
	"vulnstack/internal/report"
	"vulnstack/internal/static"
	"vulnstack/internal/vuln"
)

// TestAblationDominanceChain asserts the provable dominance chain on
// every seed benchmark: the no-execution static bound dominates the
// dynamic-trace ACE bound, which dominates the register-uniform
// injected PVF (bit flips uniform over (register, bit, instant) — the
// sampling model the ACE argument covers; see static's package doc).
func TestAblationDominanceChain(t *testing.T) {
	for _, bench := range []string{"sha", "crc32", "qsort", "fft"} {
		sys, err := Build(Target{Bench: bench, Seed: 2021}, isa.VSA64)
		if err != nil {
			t.Fatal(err)
		}
		st, err := static.Analyze(sys.Image)
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := ace.Analyze(sys.Image, 0)
		if err != nil {
			t.Fatal(err)
		}
		pvf, err := sys.PVF(micro.FPMNone, 60, 3)
		if err != nil {
			t.Fatal(err)
		}
		if st.RegBound < dyn.RegACE {
			t.Errorf("%s: static RegBound %.4f < dynamic RegACE %.4f", bench, st.RegBound, dyn.RegACE)
		}
		if dyn.RegACE < pvf.Total() {
			t.Errorf("%s: dynamic RegACE %.4f < uniform PVF %.4f", bench, dyn.RegACE, pvf.Total())
		}
		if st.MemBound < dyn.MemACE {
			t.Errorf("%s: static MemBound %.4f < dynamic MemACE %.4f", bench, st.MemBound, dyn.MemACE)
		}
	}
}

// BenchmarkAblationACE compares the analytical ACE upper bound with
// injection-measured architecture-level vulnerability: the paper's
// "ACE is pessimistic" argument, quantified.
func BenchmarkAblationACE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := &report.Report{ID: "Ablation A", Title: "ACE lifetime bound vs injected WD PVF (VSA64)"}
		t := r.NewTable("", "Benchmark", "reg ACE", "mem ACE", "PVF(WD)", "pessimism")
		for _, bench := range []string{"sha", "crc32", "qsort", "fft"} {
			sys, err := Build(Target{Bench: bench, Seed: 2021}, isa.VSA64)
			if err != nil {
				b.Fatal(err)
			}
			res, err := ace.Analyze(sys.Image, 0)
			if err != nil {
				b.Fatal(err)
			}
			pvf, err := sys.PVF(micro.FPMWD, 60, 3)
			if err != nil {
				b.Fatal(err)
			}
			pess := "n/a"
			if pvf.Total() > 0 {
				pess = fmt.Sprintf("%.2fx", res.RegACE/pvf.Total())
			}
			t.AddRow(bench, report.Pct(res.RegACE), report.Pct(res.MemACE),
				report.Pct(pvf.Total()), pess)
		}
		r.Notef("ACE counts every def-to-last-use interval as vulnerable; injection observes the software masking ACE cannot see")
		if i == 0 {
			fmt.Println(r.String())
		}
	}
}

// BenchmarkAblationLSQFields splits LSQ injections into address-field
// and data-field bits: address corruption is the Crash/WOI engine,
// data corruption the WD/SDC engine.
func BenchmarkAblationLSQFields(b *testing.B) {
	sys, err := Build(Target{Bench: "qsort", Seed: 2021}, isa.VSA64)
	if err != nil {
		b.Fatal(err)
	}
	cfg := micro.ConfigA72()
	cp, err := sys.MicroCampaign(cfg)
	if err != nil {
		b.Fatal(err)
	}
	x := cfg.ISA.XLen()
	entries, _ := cfg.StructDims(micro.StructLSQ)
	for i := 0; i < b.N; i++ {
		run := func(dataField bool, n int, seed int64) inject.Tally {
			r := rand.New(rand.NewSource(seed))
			var t inject.Tally
			for k := 0; k < n; k++ {
				f := cp.Sample(r, micro.StructLSQ)
				f.Entry = r.Intn(entries)
				bit := r.Intn(x)
				if dataField {
					bit += x
				}
				f.Bit = bit
				t.Add(cp.Run(f).Record())
			}
			return t
		}
		addr := run(false, 60, 5)
		data := run(true, 60, 6)
		if i == 0 {
			rep := &report.Report{ID: "Ablation B", Title: "LSQ field sensitivity (qsort, A72-like)"}
			t := rep.NewTable("", "Field", "Masked", "SDC", "Crash", "AVF",
				"WOI share", "WD share")
			row := func(name string, tl inject.Tally) {
				t.AddRow(name, report.Pct(tl.Frac(inject.Masked)), report.Pct(tl.Frac(inject.SDC)),
					report.Pct(tl.Frac(inject.Crash)), report.Pct(tl.AVF()),
					report.Pct(tl.FPMShare(micro.FPMWOI)), report.Pct(tl.FPMShare(micro.FPMWD)))
			}
			row("address", addr)
			row("data", data)
			rep.Notef("address bits manifest as Wrong Operand (WOI) and skew toward Crash; data bits as Wrong Data (WD)")
			fmt.Println(rep.String())
		}
	}
}

// BenchmarkAblationConvergence shows how the AVF estimate and its
// Leveugle margin tighten with campaign size.
func BenchmarkAblationConvergence(b *testing.B) {
	sys, err := Build(Target{Bench: "sha", Seed: 2021}, isa.VSA64)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := sys.MicroCampaign(micro.ConfigA72())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep := &report.Report{ID: "Ablation C", Title: "campaign-size convergence (sha RF, A72-like)"}
		t := rep.NewTable("", "n", "AVF", "HVF", "margin @99%")
		for _, n := range []int{25, 50, 100, 200} {
			tl := cp.RunCampaign(micro.StructRF, n, 9, nil)
			t.AddRow(fmt.Sprint(n), report.Pct(tl.AVF()), report.Pct(tl.HVF()),
				report.Pct(vuln.Margin(n, 0.99)))
		}
		rep.Notef("the paper's 2,000-sample cells correspond to a ±2.88%% margin")
		if i == 0 {
			fmt.Println(rep.String())
		}
	}
}

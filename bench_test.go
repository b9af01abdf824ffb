package vulnstack

// The benchmark harness regenerates every table and figure of the
// paper's evaluation:
//
//	go test -bench='Table|Fig' -benchmem .
//
// Each BenchmarkFigN/BenchmarkTableN prints the regenerated artifact
// once (they share a lab, so golden runs and campaigns are reused) and
// reports wall time. Campaign sizes are scaled for a single-core host;
// EXPERIMENTS.md records the margins and compares against the paper.
// Use `go run ./cmd/vulnstack experiment <id> -navf N ...` for larger
// sample counts.

import (
	"fmt"
	"sync"
	"testing"

	"vulnstack/internal/codegen"
	"vulnstack/internal/dev"
	"vulnstack/internal/emu"
	"vulnstack/internal/isa"
	"vulnstack/internal/mem"
	"vulnstack/internal/micro"
	"vulnstack/internal/minic"
	"vulnstack/internal/workload"
)

// benchOpts sizes the harness campaigns. n=24 per structure (x3/x6 on
// caches), 48 per PVF model, 96 SVF samples.
func benchOpts() Options {
	return Options{NAVF: 24, NPVF: 48, NSVF: 96, Seed: 2021}
}

var (
	labOnce   sync.Once
	sharedLab *Lab
)

func lab() *Lab {
	labOnce.Do(func() { sharedLab = NewLab(benchOpts()) })
	return sharedLab
}

// artifact runs one experiment and prints it (once per benchmark run).
func artifact(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := lab().Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(r.String())
		}
	}
}

func BenchmarkTable2(b *testing.B) { artifact(b, "table2") }
func BenchmarkFig1(b *testing.B)   { artifact(b, "fig1") }
func BenchmarkFig4(b *testing.B)   { artifact(b, "fig4") }
func BenchmarkTable3(b *testing.B) { artifact(b, "table3") }
func BenchmarkFig5(b *testing.B)   { artifact(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { artifact(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { artifact(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { artifact(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { artifact(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { artifact(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { artifact(b, "fig11") }

// --- substrate performance benchmarks ---

// BenchmarkCompile measures the full MiniC -> machine-code pipeline.
func BenchmarkCompile(b *testing.B) {
	spec, _ := workload.Get("sha")
	src := spec.Gen(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := minic.Compile(src, 64)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codegen.Build(m, isa.VSA64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOoOSimulator measures the cycle-level model's throughput.
func BenchmarkOoOSimulator(b *testing.B) {
	sys, err := Build(Target{Bench: "crc32", Seed: 1}, isa.VSA64)
	if err != nil {
		b.Fatal(err)
	}
	cfg := micro.ConfigA72()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		core := micro.New(cfg, sys.Image.NewMemory(), sys.Image.Entry)
		if !core.Run(1 << 30) {
			b.Fatal("did not halt")
		}
		cycles += core.Cycle
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkEmulator measures the functional reference model.
func BenchmarkEmulator(b *testing.B) {
	sys, err := Build(Target{Bench: "crc32", Seed: 1}, isa.VSA64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		bus := dev.NewBus(sys.Image.NewMemory())
		c := emu.New(sys.ISA, bus, sys.Image.Entry)
		if !c.Run(1 << 30) {
			b.Fatal("did not halt")
		}
		instrs += c.Instret
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkInjectionRF measures microarchitectural injection throughput
// (snapshot restore + faulty run + classification) on the serial path
// (Workers=1), the baseline for BenchmarkCampaignParallel.
func BenchmarkInjectionRF(b *testing.B) {
	sys, err := Build(Target{Bench: "sha", Seed: 1}, isa.VSA64)
	if err != nil {
		b.Fatal(err)
	}
	sys.Workers = 1
	cp, err := sys.MicroCampaign(micro.ConfigA72())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	cp.RunCampaign(micro.StructRF, b.N, 1, nil)
}

// BenchmarkCampaignSerial and BenchmarkCampaignParallel compare the
// same RF campaign on one worker vs all CPUs; both produce bit-identical
// tallies, so the delta is pure wall clock.
func benchmarkCampaignWorkers(b *testing.B, workers int) {
	sys, err := Build(Target{Bench: "sha", Seed: 1}, isa.VSA64)
	if err != nil {
		b.Fatal(err)
	}
	sys.Workers = workers
	cp, err := sys.MicroCampaign(micro.ConfigA72())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	cp.RunCampaign(micro.StructRF, b.N, 1, nil)
}

func BenchmarkCampaignSerial(b *testing.B)   { benchmarkCampaignWorkers(b, 1) }
func BenchmarkCampaignParallel(b *testing.B) { benchmarkCampaignWorkers(b, 0) }

// BenchmarkMemRestoreFull measures the pre-change restore path: a full
// RAM copy per injection.
func BenchmarkMemRestoreFull(b *testing.B) {
	golden := mem.New(RAMSize)
	arena := golden.Clone()
	b.SetBytes(RAMSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Write(0x11000, 8, uint64(i)) // a typical injection dirties a few pages
		arena.CopyFrom(golden)
	}
}

// BenchmarkMemRestoreDirty measures the dirty-page restore path used by
// the campaign worker arenas: only touched pages are copied back.
func BenchmarkMemRestoreDirty(b *testing.B) {
	golden := mem.New(RAMSize)
	arena := golden.Clone()
	arena.EnableTracking()
	arena.CopyFrom(golden) // baseline against the restore source
	b.SetBytes(RAMSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Write(0x11000, 8, uint64(i))
		arena.RestoreDirty(golden)
	}
}

// BenchmarkInjectionL2 measures the (mostly provably-masked) cache path.
func BenchmarkInjectionL2(b *testing.B) {
	sys, err := Build(Target{Bench: "sha", Seed: 1}, isa.VSA64)
	if err != nil {
		b.Fatal(err)
	}
	sys.Workers = 1
	cp, err := sys.MicroCampaign(micro.ConfigA72())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	cp.RunCampaign(micro.StructL2, b.N, 1, nil)
}

// BenchmarkSVFInjection measures LLFI-style IR injection throughput.
func BenchmarkSVFInjection(b *testing.B) {
	sys, err := Build(Target{Bench: "sha", Seed: 1}, isa.VSA64)
	if err != nil {
		b.Fatal(err)
	}
	sys.Workers = 1
	cp, err := sys.LLFICampaign()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	cp.RunCampaign(b.N, 1, nil)
}

// BenchmarkPVFInjection measures architecture-level injection.
func BenchmarkPVFInjection(b *testing.B) {
	sys, err := Build(Target{Bench: "sha", Seed: 1}, isa.VSA64)
	if err != nil {
		b.Fatal(err)
	}
	sys.Workers = 1
	cp, err := sys.ArchCampaign()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	cp.RunCampaign(micro.FPMWD, b.N, 1, nil)
}

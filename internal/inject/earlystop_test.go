package inject

import (
	"math/rand"
	"testing"

	"vulnstack/internal/asm"
	"vulnstack/internal/isa"
	"vulnstack/internal/kernel"
	"vulnstack/internal/mem"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
)

// TestSampleClampDegenerateGolden is the regression for the Int63n
// panic: a golden run of <= 2 cycles leaves no interior cycle, and
// Sample must clamp rather than panic.
func TestSampleClampDegenerateGolden(t *testing.T) {
	for _, cycles := range []uint64{0, 1, 2} {
		cp := &Campaign{Cfg: micro.ConfigA72()}
		cp.Golden.Cycles = cycles
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 8; i++ {
			f := cp.Sample(r, micro.StructRF)
			if f.Cycle < 1 {
				t.Fatalf("cycles=%d: sampled cycle %d", cycles, f.Cycle)
			}
		}
	}
}

// trivialImage assembles the shortest possible user program: exit(0).
func trivialImage(t *testing.T) *kernel.Image {
	t.Helper()
	b := asm.NewBuilder(isa.VSA64, mem.UserBase)
	b.Label("_start")
	b.Li(isa.RegA0, isa.SysExit)
	b.Li(isa.RegA1, 0)
	b.Ecall()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	img, err := kernel.BuildImage(p, 1<<21)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestTrivialWorkloadCampaign: an (almost) empty program must survive a
// full campaign — degenerate snapshot spacing, tiny sampling span, and
// the early-stop machinery included.
func TestTrivialWorkloadCampaign(t *testing.T) {
	img := trivialImage(t)
	cp, err := Prepare(img, micro.ConfigA72(), 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	tally := cp.RunCampaign(micro.StructRF, 30, 1, nil)
	if tally.N != 30 {
		t.Fatalf("tally N = %d", tally.N)
	}
	total := 0
	for _, c := range tally.Outcomes {
		total += c
	}
	if total != tally.N {
		t.Fatal("outcomes must partition samples")
	}
}

// referenceRecords runs the fast-path and reference-engine campaigns on
// the same faults and fails on any record difference beyond the
// EarlyStop provenance flag. It returns how many fast-path runs
// early-stopped.
func referenceRecords(t *testing.T, st micro.Structure, n int, seed int64) int {
	t.Helper()
	cfgRef := micro.ConfigA72()
	cfgRef.Reference = true
	on := shaCampaign(t, micro.ConfigA72(), 8).Records(st, n, 0, seed, nil)
	off := shaCampaign(t, cfgRef, 8).Records(st, n, 0, seed, nil)
	if len(on) != len(off) {
		t.Fatalf("%v: record counts differ: %d vs %d", st, len(on), len(off))
	}
	stopped := 0
	for i := range on {
		if off[i].EarlyStop {
			t.Fatalf("%v record %d: the reference engine early-stopped", st, i)
		}
		if on[i].EarlyStop {
			stopped++
			if on[i].Outcome != results.Outcome(Masked) {
				t.Fatalf("%v record %d early-stopped with outcome %v", st, i, on[i].Outcome)
			}
		}
		a := on[i]
		a.EarlyStop = false
		if a != off[i] {
			t.Fatalf("%v record %d differs beyond provenance:\n fast: %+v\n  ref: %+v", st, i, on[i], off[i])
		}
	}
	return stopped
}

// TestEarlyStopRecordEquivalence: convergence early-stop must change no
// record beyond its provenance flag, and must actually fire.
func TestEarlyStopRecordEquivalence(t *testing.T) {
	const n = 40
	stopped := referenceRecords(t, micro.StructRF, n, 2021)
	if stopped == 0 {
		t.Error("expected at least one convergence early-stop in 40 RF injections")
	}
	t.Logf("early-stopped %d/%d injections", stopped, n)
}

// TestDecodeCacheRecordsIdentical: the predecoded fetch cache must be
// invisible in every record — including L1i injections, which corrupt
// the very words the cache is keyed on.
func TestDecodeCacheRecordsIdentical(t *testing.T) {
	for _, st := range []micro.Structure{micro.StructRF, micro.StructL1I} {
		referenceRecords(t, st, 25, 7)
	}
}

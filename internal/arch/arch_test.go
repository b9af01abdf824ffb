package arch

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"vulnstack/internal/ckpt"
	"vulnstack/internal/codegen"
	"vulnstack/internal/dev"
	"vulnstack/internal/emu"
	"vulnstack/internal/inject"
	"vulnstack/internal/isa"
	"vulnstack/internal/kernel"
	"vulnstack/internal/micro"
	"vulnstack/internal/minic"
	"vulnstack/internal/results"
	"vulnstack/internal/workload"
)

func prep(t testing.TB, bench string, is isa.ISA) *Campaign {
	t.Helper()
	return prepWith(t, bench, is, false)
}

func prepWith(t testing.TB, bench string, is isa.ISA, reference bool) *Campaign {
	t.Helper()
	spec, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	m, err := minic.Compile(spec.Gen(3, 1), is.XLen())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Build(m, is)
	if err != nil {
		t.Fatal(err)
	}
	img, err := kernel.BuildImage(prog, 1<<21)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Prepare(img, 8, reference)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestGoldenIncludesKernel(t *testing.T) {
	cp := prep(t, "sha", isa.VSA64)
	if cp.KInstr == 0 {
		t.Fatal("PVF program flow must include kernel instructions")
	}
	if cp.KInstr >= cp.GoldenInstr {
		t.Fatal("kernel subset")
	}
	if len(cp.GoldenOut) != 20 {
		t.Fatalf("golden output %d bytes", len(cp.GoldenOut))
	}
}

func TestWDInjections(t *testing.T) {
	cp := prep(t, "sha", isa.VSA64)
	tl := cp.RunCampaign(micro.FPMWD, 80, 1, nil)
	if tl.N != 80 {
		t.Fatal("count")
	}
	if tl.Outcomes[inject.Masked] == 0 {
		t.Error("some WD faults should mask")
	}
	if tl.Outcomes[inject.SDC]+tl.Outcomes[inject.Crash] == 0 {
		t.Error("some WD faults should fail: sha consumes nearly all operand bits")
	}
	if tl.Outcomes[inject.Detected] != 0 {
		t.Error("unhardened code cannot detect")
	}
	pvf := tl.PVF()
	if pvf <= 0 || pvf >= 1 {
		t.Errorf("degenerate PVF %.2f", pvf)
	}
}

func TestWIMostlyCrashes(t *testing.T) {
	cp := prep(t, "qsort", isa.VSA64)
	tl := cp.RunCampaign(micro.FPMWI, 60, 2, nil)
	if tl.Outcomes[inject.Crash] == 0 {
		t.Error("operation-field flips should often crash")
	}
	// WI and WOI must behave differently from WD on average: compare
	// crash shares qualitatively.
	wd := cp.RunCampaign(micro.FPMWD, 60, 3, nil)
	t.Logf("qsort PVF: WI crash=%.2f sdc=%.2f | WD crash=%.2f sdc=%.2f",
		tl.Frac(inject.Crash), tl.Frac(inject.SDC), wd.Frac(inject.Crash), wd.Frac(inject.SDC))
}

func TestPVFSimilarAcrossISAs(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// The paper: PVF is (assumed) microarchitecture independent, and
	// measured to be close across same-family ISAs. Sanity: both ISAs
	// give non-degenerate results for the same source.
	a := prep(t, "crc32", isa.VSA32).RunCampaign(micro.FPMWD, 60, 4, nil)
	b := prep(t, "crc32", isa.VSA64).RunCampaign(micro.FPMWD, 60, 4, nil)
	if a.N != b.N {
		t.Fatal("counts")
	}
	if a.PVF() == 0 && b.PVF() == 0 {
		t.Error("degenerate PVFs")
	}
	t.Logf("crc32 PVF(WD): VSA32 %.2f, VSA64 %.2f", a.PVF(), b.PVF())
}

// TestCampaignWorkerInvariance: the PVF tally must be bit-identical for
// any worker count.
func TestCampaignWorkerInvariance(t *testing.T) {
	cp := prep(t, "sha", isa.VSA64)
	for _, fpm := range []micro.FPM{micro.FPMWD, micro.FPMWI} {
		cp.Workers = 1
		serial := cp.RunCampaign(fpm, 30, 7, nil)
		cp.Workers = 8
		parallel := cp.RunCampaign(fpm, 30, 7, nil)
		if serial != parallel {
			t.Fatalf("%v: workers=1 %+v != workers=8 %+v", fpm, serial, parallel)
		}
	}
}

// TestArenaMatchesFreshMachine: the worker-arena restore path must
// classify every fault exactly like the fresh-machine Run path.
func TestArenaMatchesFreshMachine(t *testing.T) {
	cp := prep(t, "sha", isa.VSA64)
	r := rand.New(rand.NewSource(7))
	faults := make([]Fault, 25)
	for i := range faults {
		faults[i] = cp.Sample(r, micro.FPMWD)
	}
	var want Tally
	for _, f := range faults {
		want.AddOutcome(cp.Run(f))
	}
	cp.Workers = 1
	got := cp.RunCampaign(micro.FPMWD, 25, 7, nil)
	if got != want {
		t.Fatalf("arena path %+v != fresh-machine path %+v", got, want)
	}
}

// TestSampleClampDegenerateGolden: a golden run of <= 2 dynamic
// instructions leaves no interior instant; Sample must clamp instead
// of panicking in Int63n (regression).
func TestSampleClampDegenerateGolden(t *testing.T) {
	for _, instrs := range []uint64{0, 1, 2} {
		cp := &Campaign{GoldenInstr: instrs}
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 8; i++ {
			if f := cp.Sample(r, micro.FPMWD); f.K < 1 {
				t.Fatalf("instrs=%d: sampled instant %d", instrs, f.K)
			}
		}
	}
}

// TestArchEarlyStopRecordEquivalence: convergence early-stop at the
// architectural layer must change records only in provenance: the
// fast path matches the reference engine record for record.
func TestArchEarlyStopRecordEquivalence(t *testing.T) {
	const n, seed = 40, 2021
	on := prep(t, "sha", isa.VSA64).Records(micro.FPMWD, n, 0, seed, nil)
	off := prepWith(t, "sha", isa.VSA64, true).Records(micro.FPMWD, n, 0, seed, nil)
	stopped := 0
	for i := range on {
		if on[i].EarlyStop {
			stopped++
			if on[i].Outcome != results.Outcome(inject.Masked) {
				t.Fatalf("record %d early-stopped with outcome %v", i, on[i].Outcome)
			}
		}
		a := on[i]
		a.EarlyStop = false
		if a != off[i] {
			t.Fatalf("record %d differs beyond provenance:\n on: %+v\noff: %+v", i, on[i], off[i])
		}
	}
	if stopped == 0 {
		t.Error("expected at least one convergence early-stop in 40 WD injections")
	}
	t.Logf("early-stopped %d/%d injections", stopped, n)
}

// TestArchStateRoundTrip: the canonical state codec must restore every
// architectural field it encodes and be deterministic (the convergence
// test compares encodings bytes-wise).
func TestArchStateRoundTrip(t *testing.T) {
	s := emu.Snapshot{PC: 0x1040, Mode: isa.User, Instret: 987654}
	for i := range s.Regs {
		s.Regs[i] = uint64(i) * 0x0101010101010101
	}
	for i := range s.CSR {
		s.CSR[i] = uint64(i) + 7
	}
	bus := &dev.Bus{Out: []byte("abc"), ExitCode: 3}
	blob := appendArchState(nil, s, bus)
	got, err := decodeArchState(blob)
	if err != nil {
		t.Fatal(err)
	}
	s.KInstr = 0 // the codec excludes KInstr (aux sidecar)
	if got != s {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, s)
	}
	if string(appendArchState(nil, s, bus)) != string(blob) {
		t.Fatal("encoding not deterministic")
	}
	if _, err := decodeArchState(blob[:archFixedLen-1]); err == nil {
		t.Fatal("short blob must not decode")
	}
}

// TestPrepareFromChainMatchesCold: a campaign resumed from the cold
// campaign's own chain (zero golden-run instructions) must produce a
// bit-identical tally.
func TestPrepareFromChainMatchesCold(t *testing.T) {
	cold := prep(t, "sha", isa.VSA64)
	warm, err := PrepareFromChain(cold.Img, cold.Chain())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Resumed {
		t.Fatal("warm campaign must report Resumed")
	}
	if warm.GoldenInstr != cold.GoldenInstr || warm.KInstr != cold.KInstr ||
		string(warm.GoldenOut) != string(cold.GoldenOut) {
		t.Fatal("golden summary mismatch")
	}
	a := cold.RunCampaign(micro.FPMWD, 30, 5, nil)
	b := warm.RunCampaign(micro.FPMWD, 30, 5, nil)
	if a != b {
		t.Fatalf("cold %+v != warm %+v", a, b)
	}
}

// TestPrepareFromChainRefusesNonCanonicalGolden: the golden summary
// decodes only in its canonical form, so an accepted chain re-encodes
// byte for byte: sha's chain with its exit code re-encoded in a longer
// varint, or with a byte after the summary, is refused.
func TestPrepareFromChainRefusesNonCanonicalGolden(t *testing.T) {
	cp := prep(t, "sha", isa.VSA64)
	golden := cp.Chain().Meta.Golden
	head := ckpt.AppendSummary(nil, cp.GoldenOut)
	exit := binary.AppendUvarint(nil, cp.GoldenExit)
	if !bytes.Equal(golden[:len(head)+len(exit)], append(head, exit...)) {
		t.Fatal("the golden blob does not start with the output and the exit code")
	}
	rest := golden[len(head)+len(exit):]
	exit[len(exit)-1] |= 0x80 // one more varint byte, continuing with 0
	padded := append(append(append(head, exit...), 0), rest...)
	for _, c := range []struct {
		what string
		blob []byte
	}{
		{"padded exit code", padded},
		{"trailing byte", append(bytes.Clone(golden), 0)},
	} {
		ch, err := ckpt.Decode(cp.Chain().Encode())
		if err != nil {
			t.Fatal(err)
		}
		ch.Meta.Golden = c.blob
		if _, err := PrepareFromChain(cp.Img, ch); err == nil {
			t.Errorf("%s: accepted %x", c.what, c.blob)
		}
	}
}

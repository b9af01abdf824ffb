package inject

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"vulnstack/internal/ckpt"
	"vulnstack/internal/codegen"
	"vulnstack/internal/kernel"
	"vulnstack/internal/micro"
	"vulnstack/internal/minic"
	"vulnstack/internal/workload"
)

func image(t testing.TB, src string, cfg micro.Config) *kernel.Image {
	t.Helper()
	m, err := minic.Compile(src, cfg.ISA.XLen())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Build(m, cfg.ISA)
	if err != nil {
		t.Fatal(err)
	}
	img, err := kernel.BuildImage(prog, 1<<21)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func shaCampaign(t testing.TB, cfg micro.Config, snaps int) *Campaign {
	t.Helper()
	spec, _ := workload.Get("sha")
	img := image(t, spec.Gen(3, 1), cfg)
	cp, err := Prepare(img, cfg, snaps)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestGoldenRun(t *testing.T) {
	cp := shaCampaign(t, micro.ConfigA72(), 8)
	if len(cp.Golden.Out) != 20 {
		t.Fatalf("sha digest length %d", len(cp.Golden.Out))
	}
	if cp.Golden.Cycles == 0 || cp.Golden.Instret == 0 || cp.Golden.KInstr == 0 {
		t.Fatal("golden counters")
	}
	if cp.Golden.KInstr >= cp.Golden.Instret {
		t.Fatal("kernel instructions must be a strict subset")
	}
}

// TestSnapshotDeterminism: a run restored from any checkpoint must
// finish with the golden output. One worker arena is reused across all
// checkpoints, exercising the incremental delta-walk restore path.
func TestSnapshotDeterminism(t *testing.T) {
	cp := shaCampaign(t, micro.ConfigA9(), 6)
	w := &worker{}
	for i := 0; i < cp.Chain().Len(); i++ {
		core := cp.coreFor(w, cp.Chain().Coord(i), i)
		if !core.Run(cp.Limit) {
			t.Fatalf("checkpoint %d did not complete", i)
		}
		if string(core.Bus.Out) != string(cp.Golden.Out) {
			t.Fatalf("checkpoint %d: output diverged", i)
		}
		if core.Cycle != cp.Golden.Cycles {
			t.Fatalf("checkpoint %d: %d cycles, golden %d", i, core.Cycle, cp.Golden.Cycles)
		}
	}
}

// TestInjectionNoFlipIsGolden: injecting a bit and flipping it back via
// a double-run sanity path — here we simply check cycle-0-free runs.
func TestFaultFreeRunFromMidpoint(t *testing.T) {
	cp := shaCampaign(t, micro.ConfigA72(), 4)
	mid := cp.Golden.Cycles / 2
	core := cp.coreFor(&worker{}, mid, cp.Chain().Find(mid))
	if !core.Run(cp.Limit) {
		t.Fatal("midpoint run did not complete")
	}
	if string(core.Bus.Out) != string(cp.Golden.Out) {
		t.Fatal("midpoint resume diverged")
	}
}

func TestCampaignRF(t *testing.T) {
	cp := shaCampaign(t, micro.ConfigA72(), 8)
	tally := cp.RunCampaign(micro.StructRF, 60, 1, nil)
	if tally.N != 60 {
		t.Fatal("sample count")
	}
	total := 0
	for _, c := range tally.Outcomes {
		total += c
	}
	if total != tally.N {
		t.Fatal("outcome counts must partition samples")
	}
	if tally.Outcomes[Masked] == 0 {
		t.Error("expected some masked faults in the register file")
	}
	if tally.Outcomes[Detected] != 0 {
		t.Error("unhardened binary cannot detect faults")
	}
	// Visible (HVF) must be at least the non-masked outcomes.
	if tally.Visible < tally.Outcomes[SDC]+tally.Outcomes[Crash] {
		t.Errorf("HVF contact (%d) below failures (%d SDC + %d Crash)",
			tally.Visible, tally.Outcomes[SDC], tally.Outcomes[Crash])
	}
	if tally.AVF() < 0 || tally.AVF() > 1 {
		t.Fatal("AVF out of range")
	}
}

func TestCampaignL2MostlyMasked(t *testing.T) {
	cp := shaCampaign(t, micro.ConfigA72(), 8)
	tally := cp.RunCampaign(micro.StructL2, 50, 2, nil)
	if tally.Frac(Masked) < 0.5 {
		t.Errorf("L2 faults should be mostly masked (tiny footprint in 2MB): masked=%.2f", tally.Frac(Masked))
	}
}

func TestFPMClassificationAppears(t *testing.T) {
	cp := shaCampaign(t, micro.ConfigA72(), 8)
	var seenWD, seenVis bool
	for seed := int64(1); seed <= 3 && !(seenWD && seenVis); seed++ {
		tl := cp.RunCampaign(micro.StructRF, 40, seed, nil)
		if tl.FPM[micro.FPMWD] > 0 {
			seenWD = true
		}
		if tl.Visible > 0 {
			seenVis = true
		}
	}
	if !seenVis {
		t.Fatal("no visible faults in 120 RF injections")
	}
	if !seenWD {
		t.Error("register-file faults should classify overwhelmingly as WD")
	}
}

func TestSamplingUniform(t *testing.T) {
	cp := shaCampaign(t, micro.ConfigA72(), 2)
	r := newRand()
	seenEarly, seenLate := false, false
	for i := 0; i < 200; i++ {
		f := cp.Sample(r, micro.StructL1D)
		if f.Cycle < cp.Golden.Cycles/4 {
			seenEarly = true
		}
		if f.Cycle > 3*cp.Golden.Cycles/4 {
			seenLate = true
		}
		entries, bitsPer := cp.Cfg.StructDims(micro.StructL1D)
		if f.Entry >= entries || f.Bit >= bitsPer {
			t.Fatal("sample out of range")
		}
	}
	if !seenEarly || !seenLate {
		t.Error("cycle sampling not spanning the run")
	}
}

func newRand() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestCampaignDeterministic(t *testing.T) {
	cp := shaCampaign(t, micro.ConfigA9(), 6)
	a := cp.RunCampaign(micro.StructLSQ, 30, 11, nil)
	b := cp.RunCampaign(micro.StructLSQ, 30, 11, nil)
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestL1IFaultsClassifyAsInstructionModels(t *testing.T) {
	cp := shaCampaign(t, micro.ConfigA9(), 6)
	// Pool several seeds to gather enough visible L1i faults.
	var wiWoi, wd, visible int
	for seed := int64(1); seed <= 4; seed++ {
		tl := cp.RunCampaign(micro.StructL1I, 60, seed, nil)
		wiWoi += tl.FPM[micro.FPMWI] + tl.FPM[micro.FPMWOI]
		wd += tl.FPM[micro.FPMWD]
		visible += tl.Visible
	}
	if visible == 0 {
		t.Skip("no visible L1i faults at this sample size")
	}
	if wiWoi == 0 {
		t.Errorf("visible instruction-cache faults should classify as WI/WOI (got %d WD, %d visible)", wd, visible)
	}
}

func TestProgressCallback(t *testing.T) {
	cp := shaCampaign(t, micro.ConfigA9(), 4)
	calls := 0
	cp.RunCampaign(micro.StructRF, 5, 1, func(i int, r Record) {
		if i != calls {
			t.Fatalf("progress index %d at call %d", i, calls)
		}
		calls++
	})
	if calls != 5 {
		t.Fatalf("progress calls: %d", calls)
	}
}

// TestCampaignWorkerInvariance: the tally must be bit-identical for any
// worker count (the engine pre-draws the fault sequence serially).
func TestCampaignWorkerInvariance(t *testing.T) {
	cp := shaCampaign(t, micro.ConfigA72(), 6)
	for _, st := range []micro.Structure{micro.StructRF, micro.StructL1D} {
		cp.Workers = 1
		serial := cp.RunCampaign(st, 24, 2021, nil)
		cp.Workers = 8
		parallel := cp.RunCampaign(st, 24, 2021, nil)
		if serial != parallel {
			t.Fatalf("%v: workers=1 %+v != workers=8 %+v", st, serial, parallel)
		}
	}
}

// TestArenaMatchesFreshClone: the reusable worker-arena restore path
// (RunCampaign) must classify every fault exactly like the fresh-clone
// path (Run), which rebuilds the machine per injection.
func TestArenaMatchesFreshClone(t *testing.T) {
	cp := shaCampaign(t, micro.ConfigA72(), 6)
	r := rand.New(rand.NewSource(2021))
	faults := make([]Fault, 20)
	for i := range faults {
		faults[i] = cp.Sample(r, micro.StructRF)
	}
	var want Tally
	for _, f := range faults {
		want.Add(cp.Run(f).Record())
	}
	cp.Workers = 1
	got := cp.RunCampaign(micro.StructRF, 20, 2021, nil)
	if got != want {
		t.Fatalf("arena path %+v != fresh-clone path %+v", got, want)
	}
}

// TestProgressContract: progress fires exactly once per injection, in
// strictly increasing index order, even with many workers.
func TestProgressContract(t *testing.T) {
	cp := shaCampaign(t, micro.ConfigA72(), 6)
	cp.Workers = 8
	var seen []int
	cp.RunCampaign(micro.StructRF, 16, 7, func(i int, r Record) {
		seen = append(seen, i)
	})
	if len(seen) != 16 {
		t.Fatalf("progress called %d times, want 16", len(seen))
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("progress order %v, want 0..15 in order", seen)
		}
	}
}

// TestGoldenRoundTrip: the golden summary survives the chain meta codec.
func TestGoldenRoundTrip(t *testing.T) {
	g := Golden{Out: []byte("digest"), ExitCode: 7, Cycles: 123456, Instret: 9999, KInstr: 321}
	got, life, err := decodeGolden(encodeGolden(g))
	if err != nil || life != nil {
		t.Fatal(err, life)
	}
	if string(got.Out) != string(g.Out) || got.ExitCode != g.ExitCode ||
		got.Cycles != g.Cycles || got.Instret != g.Instret || got.KInstr != g.KInstr {
		t.Fatalf("round trip %+v != %+v", got, g)
	}
	if _, _, err := decodeGolden(encodeGolden(g)[:3]); err == nil {
		t.Fatal("truncated summary must not decode")
	}
}

// TestPrepareFromChainMatchesCold: a campaign resumed from the cold
// campaign's chain, encoded and decoded (zero golden-run instructions),
// must produce the cold campaign's records in every structure,
// EarlyStop included: the lifetime table travels with the chain.
func TestPrepareFromChainMatchesCold(t *testing.T) {
	cfg := micro.ConfigA72()
	spec, _ := workload.Get("sha")
	img := image(t, spec.Gen(3, 1), cfg)
	cold, err := Prepare(img, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := ckpt.Decode(cold.Chain().Encode())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := PrepareFromChain(img, cfg, ch)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Resumed {
		t.Fatal("warm campaign must report Resumed")
	}
	if warm.Golden.Cycles != cold.Golden.Cycles || string(warm.Golden.Out) != string(cold.Golden.Out) {
		t.Fatal("golden summary mismatch")
	}
	for s := micro.Structure(0); s < micro.NumStructures; s++ {
		a := cold.Records(s, 25, 0, 5, nil)
		b := warm.Records(s, 25, 0, 5, nil)
		if !slices.Equal(a, b) {
			t.Fatalf("%s: cold records %+v != warm %+v", s, a, b)
		}
	}
}

// TestPrepareFromChainRequiresTable: the fast path refuses a chain
// whose golden blob carries no lifetime table (the form chains had
// before the table existed) or one recorded on another geometry, so a
// warm campaign never silently loses the table; the reference engine,
// which never reads a table, accepts the table-less chain.
func TestPrepareFromChainRequiresTable(t *testing.T) {
	cfg := micro.ConfigA72()
	cold := shaCampaign(t, cfg, 2)
	ch, err := ckpt.Decode(cold.Chain().Encode())
	if err != nil {
		t.Fatal(err)
	}
	ch.Meta.Golden = encodeGolden(cold.Golden)
	if _, err := PrepareFromChain(cold.Img, cfg, ch); err == nil {
		t.Fatal("fast path loaded a chain without a lifetime table")
	}
	ref := cfg
	ref.Reference = true
	if cp, err := PrepareFromChain(cold.Img, ref, ch); err != nil || cp.life != nil {
		t.Fatalf("reference engine: err=%v, table=%v", err, cp != nil && cp.life != nil)
	}
	a57 := micro.ConfigA57()
	if _, err := PrepareFromChain(cold.Img, a57, cold.Chain()); err == nil {
		t.Fatal("fast path loaded an A72 lifetime table for A57")
	}
}

// FuzzGoldenBlob: the micro golden blob decoder (summary plus lifetime
// table) returns an error on bad input and never panics, a decoded
// table answers every Fate query without panicking, and an accepted
// blob re-encodes byte for byte. Seeded from sha/A72's recorded blob.
func FuzzGoldenBlob(f *testing.F) {
	cp := shaCampaign(f, micro.ConfigA72(), 2)
	blob := cp.Chain().Meta.Golden
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(encodeGolden(cp.Golden))
	f.Fuzz(func(t *testing.T, b []byte) {
		g, life, err := decodeGolden(b)
		if err != nil {
			return
		}
		re := encodeGolden(g)
		if life != nil {
			re = life.AppendBinary(re)
			for s := micro.Structure(0); s < micro.NumStructures; s++ {
				for _, e := range []int{0, 1, 37} {
					for _, bit := range []int{0, 9, 63, 512, 530, 531} {
						for _, c := range []uint64{0, 1, 1 << 20, ^uint64(0)} {
							life.Fate(s, e, bit, c)
						}
					}
				}
			}
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted blob re-encodes differently:\n got %x\nwant %x", re, b)
		}
	})
}

package vulnstack

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vulnstack/internal/arch"
	"vulnstack/internal/ckpt"
	"vulnstack/internal/dev"
	"vulnstack/internal/emu"
	"vulnstack/internal/inject"
	"vulnstack/internal/ir"
	"vulnstack/internal/isa"
	"vulnstack/internal/kernel"
	"vulnstack/internal/llfi"
	"vulnstack/internal/micro"
	"vulnstack/internal/tb"
)

// captureDensities are the two checkpoint densities a hardware chain is
// built at: a bare System's and a Lab's.
var captureDensities = []int{defaultSnapshots, labSnapshots}

// softCaptureDensities are the soft chain's density and a sparse one.
var softCaptureDensities = []int{softSnapshots, 12}

// every lists every chunk index of img: the hint of a capture that
// compares everything.
func every(img []byte) []int { return ckpt.AppendChunks(nil, 0, len(img)) }

// fullMicroChain is the full-capture oracle of inject.Prepare's chain:
// an independent golden core checkpointed at the same boundaries, with
// a full EncodeState and the whole RAM image compared at every
// checkpoint. meta and golden cycles come from the prepared campaign.
func fullMicroChain(img *kernel.Image, cfg micro.Config, nsnaps int, meta ckpt.Meta, cycles uint64) *ckpt.Chain {
	ch := ckpt.New(meta)
	c := micro.New(cfg, img.NewMemory(), img.Entry)
	capture := func() {
		if n := ch.Len(); n > 0 && c.Cycle <= ch.Coord(n-1) {
			return
		}
		ram, blob := c.Bus.Mem.Bytes(), c.EncodeState(nil)
		ch.Add(c.Cycle, c.StateProbe(), ram, every(ram), blob, every(blob), nil)
	}
	if nsnaps <= 1 {
		capture()
		return ch
	}
	step := max(cycles/uint64(nsnaps), 1)
	for next := uint64(0); next < cycles; next += step {
		for c.Cycle < next && c.Step() {
		}
		capture()
		if c.Bus.Halted() {
			break
		}
	}
	return ch
}

// archBlob and archProbeOf restate the arch engine's canonical state
// encoding and convergence probe, so the oracle shares no capture code
// with arch.Prepare: Regs, PC, CSRs and Instret as 64-bit words, the
// mode byte, then the device section.
func archBlob(s emu.Snapshot, bus *dev.Bus) []byte {
	var b []byte
	for _, r := range s.Regs {
		b = binary.LittleEndian.AppendUint64(b, r)
	}
	b = binary.LittleEndian.AppendUint64(b, s.PC)
	for _, v := range s.CSR {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, s.Instret)
	return bus.AppendDevice(append(b, byte(s.Mode)))
}

func archProbeOf(s emu.Snapshot) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) { h ^= v; h *= 1099511628211 }
	mix(s.Instret)
	mix(s.PC)
	mix(uint64(s.Mode))
	for _, r := range s.Regs {
		mix(r)
	}
	for _, v := range s.CSR {
		mix(v)
	}
	return h
}

// fullArchChain is the full-capture oracle of arch.Prepare's chain on
// the translation-block engine: an independent golden machine
// checkpointed at the same instruction boundaries, comparing the whole
// state blob and RAM image at every checkpoint.
func fullArchChain(img *kernel.Image, nsnaps int, meta ckpt.Meta, instrs uint64) *ckpt.Chain {
	ch := ckpt.New(meta)
	aux := func(k uint64) []byte { return binary.AppendUvarint(nil, k) }
	if nsnaps <= 1 {
		boot := emu.Snapshot{PC: img.Entry, Mode: isa.Kernel}
		blob, ram := archBlob(boot, &dev.Bus{}), img.RAM.Bytes()
		ch.Add(0, archProbeOf(boot), ram, every(ram), blob, every(blob), aux(0))
		return ch
	}
	bus := dev.NewBus(img.NewMemory())
	c := emu.New(img.ISA, bus, img.Entry)
	run := tb.New(c).Run
	step := max(instrs/uint64(nsnaps), 1)
	for next := uint64(0); next < instrs; next += step {
		run(next)
		if n := ch.Len(); n > 0 && c.Instret <= ch.Coord(n-1) {
			continue
		}
		s := c.Save()
		blob, ram := archBlob(s, bus), bus.Mem.Bytes()
		ch.Add(c.Instret, archProbeOf(s), ram, every(ram), blob, every(blob), aux(s.KInstr))
	}
	return ch
}

// fullSoftChain is the full-capture oracle of llfi.Prepare's chain: an
// independent compiled golden run checkpointed at the same definition
// counts, comparing the whole state blob and RAM image at every
// checkpoint.
func fullSoftChain(t *testing.T, m *ir.Module, nsnaps int, meta ckpt.Meta, defs uint64) *ckpt.Chain {
	ip := ir.NewInterp(m, llfi.Width, RAMSize)
	p, err := tb.CompileIR(m, ip)
	if err != nil {
		t.Fatal(err)
	}
	mc := p.NewMachine(ip)
	if err := mc.Start(); err != nil {
		t.Fatal(err)
	}
	ch := ckpt.New(meta)
	step := defs
	if nsnaps > 1 {
		step /= uint64(nsnaps)
	}
	step = max(step, 1)
	for next := uint64(0); next == 0 || next < defs; next += step {
		if paused, err := mc.Run(next); !paused {
			t.Fatalf("compiled golden run ended before definition %d: %v", next, err)
		}
		ram, blob := ip.Mem.Bytes(), mc.AppendState(nil)
		ch.Add(next, mc.Probe(), ram, every(ram), blob, every(blob), nil)
	}
	return ch
}

// assertSoftCapture is assertMicroCapture for llfi.Prepare, at the soft
// chain's densities.
func assertSoftCapture(t *testing.T, m *ir.Module) {
	t.Helper()
	for _, n := range softCaptureDensities {
		cp, err := llfi.Prepare(m, RAMSize, n, false)
		if err != nil {
			t.Fatal(err)
		}
		want := fullSoftChain(t, m, n, cp.Chain().Meta, cp.GoldenDefs)
		if !bytes.Equal(cp.Chain().Encode(), want.Encode()) {
			t.Errorf("soft at %d checkpoints: the prepared chain differs from a full capture", n)
		}
	}
}

// assertMicroCapture checks inject.Prepare's chain on one benchmark and
// config at every capture density against the full-capture oracle, byte
// for byte in persisted form.
func assertMicroCapture(t *testing.T, img *kernel.Image, cfg micro.Config) {
	t.Helper()
	for _, n := range captureDensities {
		cp, err := inject.Prepare(img, cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		want := fullMicroChain(img, cfg, n, cp.Chain().Meta, cp.Golden.Cycles)
		if !bytes.Equal(cp.Chain().Encode(), want.Encode()) {
			t.Errorf("%s at %d checkpoints: the prepared chain differs from a full capture", cfg.Name, n)
		}
	}
}

// assertArchCapture is assertMicroCapture for arch.Prepare.
func assertArchCapture(t *testing.T, img *kernel.Image) {
	t.Helper()
	for _, n := range captureDensities {
		cp, err := arch.Prepare(img, n, false)
		if err != nil {
			t.Fatal(err)
		}
		want := fullArchChain(img, n, cp.Chain().Meta, cp.GoldenInstr)
		if !bytes.Equal(cp.Chain().Encode(), want.Encode()) {
			t.Errorf("arch at %d checkpoints: the prepared chain differs from a full capture", n)
		}
	}
}

// assertCaptureMatchesFull runs the three oracles on each benchmark:
// micro on the given configs, arch and soft on VSA64.
func assertCaptureMatchesFull(t *testing.T, benches []string, cfgs []micro.Config) {
	for _, bench := range benches {
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			systems := map[isa.ISA]*System{}
			sys := func(is isa.ISA) *System {
				if systems[is] == nil {
					s, err := Build(Target{Bench: bench, Seed: 1}, is)
					if err != nil {
						t.Fatal(err)
					}
					systems[is] = s
				}
				return systems[is]
			}
			for _, cfg := range cfgs {
				assertMicroCapture(t, sys(cfg.ISA).Image, cfg)
			}
			assertArchCapture(t, sys(isa.VSA64).Image)
			assertSoftCapture(t, sys(isa.VSA64).IR)
		})
	}
}

// smallCacheA9 is A9 with 1 KiB L1s and a 4 KiB L2. On the study
// configs no benchmark's micro golden run writes RAM between two
// checkpoints (its dirty lines stay cached), so only caches this small
// make the RAM half of the capture hint, the dirty pages, matter.
func smallCacheA9() micro.Config {
	cfg := micro.ConfigA9()
	cfg.Name = "A9-small-caches"
	cfg.L1I.SizeBytes, cfg.L1D.SizeBytes, cfg.L2.SizeBytes = 1<<10, 1<<10, 4<<10
	return cfg
}

// TestChainCaptureMatchesFull: the race-enabled subset of the capture
// gate (TestChainCaptureFullBreadth): sha on A72, A9 and A9 with small
// caches, arch sha, each at both densities, and soft sha and qsort at
// 48 and 12 checkpoints. sha's soft state blobs fit one chunk, which
// ckpt.Chain.Add compares whatever the hint; qsort's (about 9 KB) span
// three, so a soft capture that drops its state-blob hint fails here.
func TestChainCaptureMatchesFull(t *testing.T) {
	assertCaptureMatchesFull(t, []string{"sha"}, []micro.Config{micro.ConfigA72(), micro.ConfigA9(), smallCacheA9()})
	t.Run("qsort-soft", func(t *testing.T) {
		t.Parallel()
		s, err := Build(Target{Bench: "qsort", Seed: 1}, isa.VSA64)
		if err != nil {
			t.Fatal(err)
		}
		assertSoftCapture(t, s.IR)
	})
}

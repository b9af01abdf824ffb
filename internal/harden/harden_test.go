package harden_test

import (
	"bytes"
	"testing"

	"vulnstack/internal/codegen"
	"vulnstack/internal/dev"
	"vulnstack/internal/emu"
	"vulnstack/internal/harden"
	"vulnstack/internal/inject"
	"vulnstack/internal/ir"
	"vulnstack/internal/isa"
	"vulnstack/internal/kernel"
	"vulnstack/internal/llfi"
	"vulnstack/internal/minic"
	"vulnstack/internal/workload"
)

func compile(t *testing.T, bench string, width int) *ir.Module {
	t.Helper()
	spec, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	m, err := minic.Compile(spec.Gen(3, 1), width)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func runIR(t *testing.T, m *ir.Module, width int) ([]byte, uint64) {
	t.Helper()
	ip := ir.NewInterp(m, width, 1<<21)
	ip.MaxSteps = 1 << 28
	if err := ip.Run("_start"); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !ip.Exited || ip.Detected {
		t.Fatalf("abnormal end: exited=%v detected=%v", ip.Exited, ip.Detected)
	}
	return ip.Out, ip.Steps
}

func TestTransformPreservesSemantics(t *testing.T) {
	for _, bench := range []string{"sha", "smooth", "crc32", "qsort"} {
		m := compile(t, bench, 64)
		want, baseSteps := runIR(t, m, 64)
		h, err := harden.Transform(m, harden.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		got, hardSteps := runIR(t, h, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: hardened output differs", bench)
		}
		ratio := float64(hardSteps) / float64(baseSteps)
		if ratio < 1.5 || ratio > 5 {
			t.Errorf("%s: runtime inflation %.2fx outside the technique's 2-4x ballpark", bench, ratio)
		}
		t.Logf("%s: %.2fx dynamic IR instructions", bench, ratio)
	}
}

func TestTransformPreservesMachineSemantics(t *testing.T) {
	// The hardened module must also compile and run correctly on the
	// machine through the kernel, on both ISAs.
	for _, is := range []isa.ISA{isa.VSA32, isa.VSA64} {
		m := compile(t, "sha", is.XLen())
		h, err := harden.Transform(m, harden.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var outs [2][]byte
		var instrs [2]uint64
		for i, mod := range []*ir.Module{m, h} {
			prog, err := codegen.Build(mod, is)
			if err != nil {
				t.Fatal(err)
			}
			img, err := kernel.BuildImage(prog, 1<<21)
			if err != nil {
				t.Fatal(err)
			}
			bus := dev.NewBus(img.NewMemory())
			c := emu.New(is, bus, img.Entry)
			if !c.Run(1 << 27) {
				t.Fatal("watchdog")
			}
			if bus.Halt != dev.HaltClean {
				t.Fatalf("halt %v", bus.Halt)
			}
			outs[i] = bus.Out
			instrs[i] = c.Instret
		}
		if !bytes.Equal(outs[0], outs[1]) {
			t.Fatalf("%v: hardened machine output differs", is)
		}
		ratio := float64(instrs[1]) / float64(instrs[0])
		if ratio < 1.5 {
			t.Errorf("%v: hardened binary too cheap (%.2fx)", is, ratio)
		}
		t.Logf("%v: machine inflation %.2fx (%d -> %d instrs)", is, ratio, instrs[0], instrs[1])
	}
}

func TestHardenedDetectsInjectedFaults(t *testing.T) {
	m := compile(t, "sha", 64)
	h, err := harden.Transform(m, harden.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, err := llfi.Prepare(m, 1<<21, 48, false)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := llfi.Prepare(h, 1<<21, 48, false)
	if err != nil {
		t.Fatal(err)
	}
	bt := base.RunCampaign(100, 5, nil)
	ht := hard.RunCampaign(100, 5, nil)
	if ht.Outcomes[inject.Detected] == 0 {
		t.Fatal("hardened module never detected a fault")
	}
	if ht.SVF() >= bt.SVF() {
		t.Errorf("hardening should reduce SVF: base %.2f, hardened %.2f", bt.SVF(), ht.SVF())
	}
	t.Logf("SVF base=%.2f hardened=%.2f detected=%.2f",
		bt.SVF(), ht.SVF(), ht.Frac(inject.Detected))
}

func TestUnprotectedFunctionsUntouched(t *testing.T) {
	m := compile(t, "crc32", 64)
	h, err := harden.Transform(m, harden.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"out", "exit", "__flush"} {
		orig, _ := m.Lookup(name)
		hard, _ := h.Lookup(name)
		if orig == nil || hard == nil {
			t.Fatalf("%s missing", name)
		}
		o, hn := 0, 0
		for _, b := range orig.Blocks {
			o += len(b.Instrs)
		}
		for _, b := range hard.Blocks {
			hn += len(b.Instrs)
		}
		if o != hn {
			t.Errorf("%s: library function was transformed (%d -> %d instrs)", name, o, hn)
		}
	}
	if _, ok := h.Lookup(harden.CheckFunc); !ok {
		t.Fatal("check function missing")
	}
}

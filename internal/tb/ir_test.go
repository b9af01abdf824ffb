package tb

import (
	"bytes"
	"testing"

	"vulnstack/internal/ckpt"
	"vulnstack/internal/ir"
	"vulnstack/internal/minic"
)

// pausedMachine compiles a small recursive program and pauses its run
// after defs definitions.
func pausedMachine(t *testing.T, defs uint64) (*Machine, *ir.Interp) {
	t.Helper()
	m, err := minic.Compile(`
func fib(n int) int {
	if n < 2 {
		return n
	}
	return fib(n - 1) + fib(n - 2)
}

func main() int {
	out(fib(12))
	return 0
}
`, 64)
	if err != nil {
		t.Fatal(err)
	}
	ip := ir.NewInterp(m, 64, 1<<20)
	p, err := CompileIR(m, ip)
	if err != nil {
		t.Fatal(err)
	}
	mc := p.NewMachine(ip)
	if err := mc.Start(); err != nil {
		t.Fatal(err)
	}
	if paused, err := mc.Run(defs); !paused {
		t.Fatalf("run ended before %d definitions: %v", defs, err)
	}
	return mc, ip
}

// TestStateComparesSteps: two paused states that differ only in their
// step count must not compare equal, so a converged run keeps exactly
// golden's remaining watchdog budget.
func TestStateComparesSteps(t *testing.T) {
	mc, ip := pausedMachine(t, 300)
	golden := mc.AppendState(nil)
	ch := ckpt.New(ckpt.Meta{Engine: "soft", RAMBytes: len(ip.Mem.Bytes())})
	ch.Add(mc.DefSeq(), mc.Probe(), ip.Mem.Bytes(), nil, golden, nil, nil)
	mc.steps++
	if ch.StateEqual(0, mc.AppendState(nil)) {
		t.Fatal("states differing only in their step count compare equal")
	}
}

// TestResumeMatchesStraightRun: a run paused at every definition count
// in turn, encoded, and resumed on a fresh machine from the decoded
// blob must end exactly like the straight run, with frames up to
// fib's full recursion depth live at the pauses.
func TestResumeMatchesStraightRun(t *testing.T) {
	straight, sip := pausedMachine(t, 1)
	if _, err := straight.Run(NoStop); err != nil || !sip.Exited {
		t.Fatalf("straight run: %v", err)
	}
	for _, defs := range []uint64{1, 50, 333, straight.DefSeq() - 1} {
		mc, ip := pausedMachine(t, defs)
		blob := mc.AppendState(nil)
		fresh := mc.p.NewMachine(ip)
		if err := fresh.SetState(blob, defs, ip.Out); err != nil {
			t.Fatalf("at %d definitions: %v", defs, err)
		}
		if got := fresh.AppendState(nil); !bytes.Equal(got, blob) {
			t.Fatalf("at %d definitions: the decoded state re-encodes differently", defs)
		}
		if _, err := fresh.Run(NoStop); err != nil {
			t.Fatalf("resumed at %d definitions: %v", defs, err)
		}
		if !bytes.Equal(ip.Out, sip.Out) || ip.ExitCode != sip.ExitCode || fresh.Steps() != straight.Steps() || fresh.DefSeq() != straight.DefSeq() {
			t.Fatalf("resumed at %d definitions: out %x exit %d steps %d defs %d, straight run out %x exit %d steps %d defs %d",
				defs, ip.Out, ip.ExitCode, fresh.Steps(), fresh.DefSeq(), sip.Out, sip.ExitCode, straight.Steps(), straight.DefSeq())
		}
	}
}

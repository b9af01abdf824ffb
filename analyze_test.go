package vulnstack

import (
	"testing"

	"vulnstack/internal/isa"
)

// TestAnalyzeZeroInjections: the static-analysis report is a
// no-injection artifact. After a full Analyze pass (including the
// dynamic-ACE golden runs and hardening-coverage verification), no
// cached system may have prepared any injector — microarchitectural,
// architectural or software-level.
func TestAnalyzeZeroInjections(t *testing.T) {
	o := DefaultOptions()
	o.Benches = []string{"crc32", "qsort"}
	l := NewLab(o)
	r, err := l.Analyze(DefaultAnalyzeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) < 4 {
		t.Fatalf("analyze report has %d tables, want >= 4", len(r.Tables))
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	built := 0
	for key, c := range l.cells {
		s, ok := c.val.(*System)
		if !ok {
			continue
		}
		built++
		s.mu.Lock()
		if s.archC != nil {
			t.Errorf("system %s prepared an arch (PVF) injector", key)
		}
		if len(s.microC) != 0 {
			t.Errorf("system %s prepared %d micro injection campaigns", key, len(s.microC))
		}
		if s.llfiC != nil {
			t.Errorf("system %s prepared a software (LLFI) injector", key)
		}
		s.mu.Unlock()
	}
	if built == 0 {
		t.Fatal("analyze built no systems")
	}
}

// TestAnalyzeBitsAfterCampaign: AnalyzeBits reads the static verdict
// without touching the lab's systems, so a lab that already prepared a
// benchmark's soft (LLFI) campaign reports the same pool-resolved share
// as a fresh lab.
func TestAnalyzeBitsAfterCampaign(t *testing.T) {
	o := DefaultOptions()
	o.Benches = []string{"sha"}
	fresh, err := NewLab(o).AnalyzeBits()
	if err != nil {
		t.Fatal(err)
	}
	l := NewLab(o)
	s, err := l.System(Target{Bench: "sha"}, isa.VSA64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LLFICampaign(); err != nil {
		t.Fatal(err)
	}
	warm, err := l.AnalyzeBits()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := warm.String(), fresh.String(); got != want {
		t.Errorf("after a prepared soft campaign:\n%s\nfresh lab:\n%s", got, want)
	}
	if s.Static {
		t.Error("AnalyzeBits turned on System.Static")
	}
}

// Package results is the unified cross-layer fault-record plane: every
// injection, at every layer of the vulnerability stack, produces one
// layer-agnostic Record, and every aggregate the repo reports (AVF,
// HVF, PVF, SVF, FPM distributions, rPVF re-weighting) is a pure
// function of record streams. Records — not private counters — are the
// productive unit of fault-injection infrastructure: they enable
// post-hoc re-weighting, incremental confidence tightening (top-up
// resume), and the persistent campaign store (see store.go).
package results

import "vulnstack/internal/micro"

// Outcome is the end-to-end fault effect class shared by all layers.
type Outcome int

const (
	Masked Outcome = iota
	SDC
	Crash
	Detected
	NumOutcomes
)

var outcomeNames = [...]string{"Masked", "SDC", "Crash", "Detected"}

func (o Outcome) String() string { return outcomeNames[o] }

// Layer identifies which injector produced a record.
type Layer int

const (
	// LayerMicro is microarchitecture-level injection (AVF/HVF).
	LayerMicro Layer = iota
	// LayerArch is architecture-level injection (PVF).
	LayerArch
	// LayerSoft is software/IR-level injection (SVF).
	LayerSoft
	NumLayers
)

var layerNames = [...]string{"micro", "arch", "soft"}

func (l Layer) String() string { return layerNames[l] }

// Record is one injection: its fault coordinates and its classified
// effect. The coordinate fields are layer-specific but share slots:
//
//   - micro: Target = structure name, Coord = injection cycle,
//     Entry/Bit = storage coordinates; Visible/FPM/Contact are the HVF
//     measurement, Live is the at-injection liveness.
//   - arch: Target = FPM name (WD/WOI/WI), Coord = dynamic instruction
//     index, Bit/Slot select the corrupted field.
//   - soft: Coord = dynamic value-definition sequence number, Bit the
//     flipped result bit.
//
// Index is the record's position in the pre-drawn fault sequence of its
// campaign; because sequences are drawn deterministically from the
// seed, Index is stable across runs and record sets can be merged by
// simple concatenation (the top-up resume mechanism).
type Record struct {
	Index   int       `json:"i"`
	Layer   Layer     `json:"l,omitempty"`
	Target  string    `json:"t,omitempty"`
	Coord   uint64    `json:"c,omitempty"`
	Entry   int       `json:"e,omitempty"`
	Bit     int       `json:"b"`
	Slot    int       `json:"s,omitempty"`
	Outcome Outcome   `json:"o"`
	Visible bool      `json:"v,omitempty"`
	FPM     micro.FPM `json:"f,omitempty"`
	Contact uint64    `json:"cc,omitempty"`
	Live    bool      `json:"live,omitempty"`
	// EarlyStop marks a run classified without running to completion:
	// by golden-state convergence at a checkpoint boundary, at every
	// layer (soft runs converge at a definition-count checkpoint with
	// frames, registers, steps, stack pointer, output and RAM equal to
	// golden's); by a provably dead definition at the soft layer; or by
	// a micro fault whose flipped bit the golden run overwrites or
	// discards before any read, resolved from its lifetime table. Pure
	// provenance: the outcome is provably the run-to-completion one,
	// and tallies ignore the flag.
	EarlyStop bool `json:"es,omitempty"`
	// Stratum is the equivalence-class label of a stratified campaign's
	// record (empty for uniform sampling): provenance for the reweighted
	// estimators, letting stored campaigns be re-aggregated per stratum
	// without re-deriving the partition. Stored as a dictionary-encoded
	// column.
	Stratum string `json:"st,omitempty"`
	// StaticResolved marks a record classified by the static
	// demanded-bits analysis alone: the flipped bit provably never
	// influences an observable output, so the outcome is Masked without
	// any injector run. Pure provenance like EarlyStop — tallies ignore
	// it, and the outcome is provably the run-to-completion one (the
	// soundness gate pins this across all benchmarks). Stored as a
	// bitset column.
	StaticResolved bool `json:"sr,omitempty"`
}

// Tally is the aggregate of a record stream. It is a comparable value:
// two campaigns agree iff their tallies are ==.
type Tally struct {
	N        int
	Outcomes [NumOutcomes]int
	FPM      [micro.NumFPM]int
	Visible  int
}

// Add accumulates one record (the streaming consumer: progress
// callbacks and re-aggregation both feed records through here).
func (t *Tally) Add(r Record) {
	t.N++
	t.Outcomes[r.Outcome]++
	if r.Visible {
		t.Visible++
		t.FPM[r.FPM]++
	}
}

// AddOutcome accumulates a bare outcome (a record with no visibility
// measurement — the arch and soft layers).
func (t *Tally) AddOutcome(o Outcome) {
	t.N++
	t.Outcomes[o]++
}

// TallyOf aggregates a record slice: the pure function from records to
// the tallies every estimator consumes.
func TallyOf(recs []Record) Tally {
	var t Tally
	for _, r := range recs {
		t.Add(r)
	}
	return t
}

// Frac returns the fraction of outcome o.
func (t Tally) Frac(o Outcome) float64 {
	if t.N == 0 {
		return 0
	}
	return float64(t.Outcomes[o]) / float64(t.N)
}

// Failures is the failure probability: SDC + Crash. Detected faults are
// excluded, following the paper's case-study accounting.
func (t Tally) Failures() float64 { return t.Frac(SDC) + t.Frac(Crash) }

// AVF is the architectural vulnerability factor (micro-layer tallies).
func (t Tally) AVF() float64 { return t.Failures() }

// PVF is the program vulnerability factor (arch-layer tallies).
func (t Tally) PVF() float64 { return t.Failures() }

// SVF is the software vulnerability factor (soft-layer tallies).
func (t Tally) SVF() float64 { return t.Failures() }

// HVF is the fraction of faults that reached architectural visibility.
func (t Tally) HVF() float64 {
	if t.N == 0 {
		return 0
	}
	return float64(t.Visible) / float64(t.N)
}

// FPMShare returns the share of propagation model m among visible
// faults.
func (t Tally) FPMShare(m micro.FPM) float64 {
	if t.Visible == 0 {
		return 0
	}
	return float64(t.FPM[m]) / float64(t.Visible)
}

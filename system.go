// Package vulnstack is the public API of the system-vulnerability-stack
// reproduction: it composes the MiniC compiler, the VSA machine models,
// the in-simulation kernel and the three fault injectors (micro-
// architectural AVF/HVF, architectural PVF, software-level SVF) into
// benchmark-level vulnerability measurements, and regenerates every
// table and figure of the paper's evaluation (see experiments.go).
package vulnstack

import (
	"fmt"
	"sync"

	"vulnstack/internal/arch"
	"vulnstack/internal/ckpt"
	"vulnstack/internal/codegen"
	"vulnstack/internal/harden"
	"vulnstack/internal/inject"
	"vulnstack/internal/ir"
	"vulnstack/internal/isa"
	"vulnstack/internal/kernel"
	"vulnstack/internal/llfi"
	"vulnstack/internal/micro"
	"vulnstack/internal/minic"
	"vulnstack/internal/results"
	"vulnstack/internal/static"
	"vulnstack/internal/vuln"
	"vulnstack/internal/workload"
)

// RAMSize is the simulated machine memory for study runs.
const RAMSize = 1 << 21

// Target names one program under study.
type Target struct {
	// Bench is a workload name (see Benchmarks()).
	Bench string
	// Seed selects the generated input; Scale grows it (1 = default).
	Seed  int64
	Scale int
	// Harden applies the software fault-tolerance transform of the
	// case study (duplication + detection checks).
	Harden bool
}

func (t Target) key() string {
	return fmt.Sprintf("%s/%d/%d/%v", t.Bench, t.Seed, t.Scale, t.Harden)
}

// Benchmarks returns the ten workload names in the paper's order.
func Benchmarks() []string { return workload.Names() }

// Configs returns the four study microarchitectures (A9, A15: VSA32;
// A57, A72: VSA64).
func Configs() []micro.Config { return micro.Configs() }

// System is a target compiled for one ISA: the IR module (SVF and PVF
// substrate) plus the bootable machine image (AVF/HVF substrate).
type System struct {
	Target Target
	ISA    isa.ISA
	IR     *ir.Module
	Image  *kernel.Image

	mu     sync.Mutex
	microC map[string]*inject.Campaign
	archC  *arch.Campaign
	llfiC  *llfi.Campaign
	// staticG caches the liveness-solved static CFG of the image
	// (stratified sampling's liveness-bucket feature; see strat.go).
	staticG *static.CFG
	// staticB caches the bit-precise known-bits/demanded-bits solution
	// over staticG (the demanded-bits stratification feature and the
	// analyze -bits tables).
	staticB *static.BitFlow
	// snapshots is the golden-run checkpoint count of the micro and arch
	// chains: defaultSnapshots from Build, labSnapshots in a Lab.
	snapshots int
	// Workers is the injection-campaign fan-out (<= 0: all CPUs).
	// Tallies are bit-identical for every worker count.
	Workers int
	// Reference selects the reference engine at every layer: every
	// shortcut off — step engines instead of translation blocks, no
	// convergence early-stop, no dead-definition filter, no micro decode
	// memo. It is the oracle the default fast path is gated against:
	// record streams are identical except for their EarlyStop
	// provenance. A reference system never reads or writes a results
	// store or a checkpoint chain, and rejects Static at the soft layer.
	// Set before the first campaign use.
	Reference bool
	// Static enables the bit-precise static resolution pass: at the soft
	// layer, faults the interprocedural demanded-bits analysis proves
	// Masked are classified without running (provenance-flagged records,
	// tallies bit-identical to the dynamic baseline — the EarlyStop
	// contract); at every layer, stratified campaigns gain the
	// demanded-bits stratum key level. Set before the first campaign use.
	Static bool
	// Store, when set, persists per-injection records on disk and
	// serves repeat measurements from them: a fully stored campaign is
	// answered without preparing the injector (no golden run, no
	// injections), and a larger n tops up only the missing tail of the
	// pre-drawn fault sequence (bit-identical to a one-shot run).
	Store *results.Store
}

// Build compiles a target for the given ISA variant.
func Build(t Target, is isa.ISA) (*System, error) {
	spec, err := workload.Get(t.Bench)
	if err != nil {
		return nil, err
	}
	scale := t.Scale
	if scale < 1 {
		scale = 1
	}
	src := spec.Gen(t.Seed, scale)
	m, err := minic.Compile(src, is.XLen())
	if err != nil {
		return nil, fmt.Errorf("vulnstack: compiling %s: %w", t.Bench, err)
	}
	if t.Harden {
		m, err = harden.Transform(m, harden.DefaultOptions())
		if err != nil {
			return nil, err
		}
	}
	prog, err := codegen.Build(m, is)
	if err != nil {
		return nil, fmt.Errorf("vulnstack: code generation for %s: %w", t.Bench, err)
	}
	img, err := kernel.BuildImage(prog, RAMSize)
	if err != nil {
		return nil, err
	}
	return &System{
		Target:    t,
		ISA:       is,
		IR:        m,
		Image:     img,
		microC:    make(map[string]*inject.Campaign),
		snapshots: defaultSnapshots,
	}, nil
}

// defaultSnapshots is the default golden-run checkpoint count. Since
// checkpoints became chunk-granular deltas (internal/ckpt) their memory
// no longer scales O(snapshots × RAM), so the default is dense — the
// old full-snapshot default was 12 — which shortens the average
// restore-and-advance distance per injection and gives convergence
// early-stop far more boundaries to cut runs at. Stratified partitions
// depend on it: StratMicro and StratPVF key the liveness stratum on the
// governing checkpoint's PC.
const defaultSnapshots = 192

// chainFingerprint identifies the checkpoint chain a campaign would
// capture: every input that shapes the golden run or its checkpoints.
// A persisted chain is only ever reused on an exact fingerprint match —
// a store written under a different snapshot density (or a different
// format version) triggers a fresh golden run instead of a silent
// mismatch. Only the fast path persists chains, so the engine needs no
// part.
func (s *System) chainFingerprint(engine, config string) string {
	return ckpt.Fingerprint(
		engine,
		fmt.Sprintf("v%d", ckpt.ChainVersion),
		s.targetKey(),
		config,
		fmt.Sprintf("snapshots=%d", s.snapshots),
		fmt.Sprintf("ram=%d", RAMSize),
	)
}

// checkStore rejects a store attached to a reference system: the
// reference engine never reads or writes persisted records.
func (s *System) checkStore() error {
	if s.Reference && s.Store != nil {
		return fmt.Errorf("vulnstack: the reference engine never reads or writes a results store")
	}
	return nil
}

// loadChain fetches and decodes a persisted checkpoint chain by
// fingerprint, returning nil on any failure: absent file, truncation,
// bit flips (ckpt.Decode digest-checks everything after the header), or
// a fingerprint mismatch inside the file. nil sends the caller down the
// cold Prepare path, so a damaged store costs a golden run, never
// wrong results.
func (s *System) loadChain(fp string) *ckpt.Chain {
	if s.Store == nil || s.Reference {
		return nil
	}
	data, ok, err := s.Store.LoadChain(fp)
	if err != nil || !ok {
		return nil
	}
	ch, err := ckpt.Decode(data)
	if err != nil || ch.Meta.Fingerprint != fp {
		return nil
	}
	return ch
}

// saveChain persists a freshly captured chain under its fingerprint,
// best-effort: campaigns proceed identically whether or not the write
// lands.
func (s *System) saveChain(fp string, ch *ckpt.Chain) {
	if s.Store == nil || s.Reference {
		return
	}
	ch.Meta.Fingerprint = fp
	ch.Meta.Target = s.targetKey()
	_ = s.Store.SaveChain(fp, ch.Encode())
}

// MicroCampaign returns (building and caching on first use) the
// microarchitectural fault-injection campaign for cfg.
func (s *System) MicroCampaign(cfg micro.Config) (*inject.Campaign, error) {
	if cfg.ISA != s.ISA {
		return nil, fmt.Errorf("vulnstack: config %s (%v) does not match system ISA %v", cfg.Name, cfg.ISA, s.ISA)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cp, ok := s.microC[cfg.Name]; ok {
		return cp, nil
	}
	cfg.Reference = s.Reference
	fp := s.chainFingerprint(inject.Engine, cfg.Name)
	cp, err := (*inject.Campaign)(nil), error(nil)
	if ch := s.loadChain(fp); ch != nil {
		// Warm path: the persisted chain carries the golden summary and
		// every restore point — Prepare executes zero instructions.
		cp, _ = inject.PrepareFromChain(s.Image, cfg, ch)
	}
	if cp == nil {
		if cp, err = inject.Prepare(s.Image, cfg, s.snapshots); err != nil {
			return nil, err
		}
		s.saveChain(fp, cp.Chain())
	}
	cp.Workers = s.Workers
	s.microC[cfg.Name] = cp
	return cp, nil
}

// ArchCampaign returns the PVF campaign (cached).
func (s *System) ArchCampaign() (*arch.Campaign, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.archC == nil {
		fp := s.chainFingerprint(arch.Engine, "")
		var cp *arch.Campaign
		var err error
		if ch := s.loadChain(fp); ch != nil {
			cp, _ = arch.PrepareFromChain(s.Image, ch)
		}
		if cp == nil {
			if cp, err = arch.Prepare(s.Image, s.snapshots, s.Reference); err != nil {
				return nil, err
			}
			s.saveChain(fp, cp.Chain())
		}
		cp.Workers = s.Workers
		s.archC = cp
	}
	return s.archC, nil
}

// LLFICampaign returns the SVF campaign. Like the real LLFI tool, it
// only exists for the 64-bit variant. Static resolution is a shortcut,
// so a reference system refuses it rather than silently ignoring it.
func (s *System) LLFICampaign() (*llfi.Campaign, error) {
	if s.ISA != isa.VSA64 {
		return nil, fmt.Errorf("vulnstack: SVF (LLFI) supports only the 64-bit ISA")
	}
	if s.Static && s.Reference {
		return nil, fmt.Errorf("vulnstack: Static and Reference are mutually exclusive (the reference engine resolves nothing statically)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.llfiC == nil {
		cp, err := llfi.Prepare(s.IR, RAMSize, s.Reference)
		if err != nil {
			return nil, err
		}
		cp.Workers = s.Workers
		cp.Static = s.Static
		s.llfiC = cp
	}
	return s.llfiC, nil
}

// StructResult is one structure's AVF/HVF measurement.
type StructResult struct {
	Struct micro.Structure
	Bits   int
	N      int
	Split  vuln.Split
	HVF    float64
	// FPM holds per-model counts among visible faults.
	FPM [micro.NumFPM]int
	// Visible is the HVF numerator.
	Visible int
	// Tally is the underlying record-stream aggregate every field
	// above derives from.
	Tally results.Tally
}

// targetKey is the store identity of this system's program: build
// inputs plus ISA.
func (s *System) targetKey() string {
	return s.Target.key() + "/" + s.ISA.String()
}

// MicroKey is the store key of one microarchitectural campaign.
func (s *System) MicroKey(cfg micro.Config, st micro.Structure, seed int64) results.Key {
	return results.Key{Layer: results.LayerMicro.String(), Target: s.targetKey(),
		Config: cfg.Name, Struct: st.String(), Seed: seed}
}

// tbMode appends the literal "tb" stamp to an arch or soft store-key
// Mode. Only the fast path touches a store, so the stamp selects
// nothing; it stays because existing stores and the pinned bench
// digests key arch and soft campaigns on it.
func tbMode(base string) string {
	if base == "" {
		return "tb"
	}
	return base + ",tb"
}

// ArchKey is the store key of one architecture-level (PVF) campaign;
// micro.FPMNone keys the register-uniform campaign.
func (s *System) ArchKey(fpm micro.FPM, seed int64) results.Key {
	return results.Key{Layer: results.LayerArch.String(), Target: s.targetKey(),
		Struct: arch.Target(fpm), Seed: seed, Mode: tbMode("")}
}

// SoftKey is the store key of the software-level (SVF) campaign.
func (s *System) SoftKey(seed int64) results.Key {
	return results.Key{Layer: results.LayerSoft.String(), Target: s.targetKey(),
		Seed: seed, Mode: tbMode("")}
}

// storeTally returns the n-injection tally for campaign key k, serving
// as much as possible from the store through the streaming columnar
// path: a fully stored campaign never prepares an injector and never
// materializes its records — the store's cursor aggregates the first n
// of them in o(n) memory. run(from) must execute injections [from, n)
// of the key's pre-drawn fault sequence; it is only invoked when the
// store is missing records, and fresh records are persisted before
// returning. Tallies are integer sums, so prefix-tally + fresh-tally is
// bit-identical to a one-shot n-injection tally.
func (s *System) storeTally(k results.Key, n int, run func(from int) ([]results.Record, error)) (results.Tally, error) {
	if err := s.checkStore(); err != nil {
		return results.Tally{}, err
	}
	if s.Store == nil {
		recs, err := run(0)
		if err != nil {
			return results.Tally{}, err
		}
		return results.TallyOf(recs), nil
	}
	m, ok, err := s.Store.Manifest(k)
	if err != nil {
		return results.Tally{}, err
	}
	if ok && m.N >= n {
		return s.Store.TallyPrefix(k, n)
	}
	var tally results.Tally
	from := 0
	if ok {
		if tally, err = s.Store.TallyPrefix(k, m.N); err != nil {
			return results.Tally{}, err
		}
		from = m.N
	}
	fresh, err := run(from)
	if err != nil {
		return results.Tally{}, err
	}
	if !ok {
		err = s.Store.Save(k, fresh)
	} else {
		err = s.Store.Append(k, fresh)
	}
	if err != nil {
		return results.Tally{}, err
	}
	for _, r := range fresh {
		tally.Add(r)
	}
	return tally, nil
}

// MicroTally measures one structure's AVF/HVF tally with n sampled
// injections, store-aware: stored records are reused and topped up.
func (s *System) MicroTally(cfg micro.Config, st micro.Structure, n int, seed int64) (results.Tally, error) {
	if cfg.ISA != s.ISA {
		return results.Tally{}, fmt.Errorf("vulnstack: config %s (%v) does not match system ISA %v", cfg.Name, cfg.ISA, s.ISA)
	}
	return s.storeTally(s.MicroKey(cfg, st, seed), n, func(from int) ([]results.Record, error) {
		cp, err := s.MicroCampaign(cfg)
		if err != nil {
			return nil, err
		}
		return cp.Records(st, n, from, seed, nil), nil
	})
}

// CacheSampleBoost multiplies the per-structure sample count for the
// cache structures. Most cache faults land in invalid lines and are
// classified without running (cheap), so spending extra samples there
// sharpens the small cache AVFs that dominate the bit-weighted total.
var CacheSampleBoost = map[micro.Structure]int{
	micro.StructL1I: 3, micro.StructL1D: 3, micro.StructL2: 6,
}

// AVFAll runs injection campaigns over all five structures and returns
// per-structure results plus the bit-weighted full-system split. With a
// store attached, fully stored structures are tallied from disk without
// preparing the campaign.
func (s *System) AVFAll(cfg micro.Config, nPerStruct int, seed int64) ([]StructResult, vuln.Split, error) {
	var srs []StructResult
	var parts []vuln.Split
	var bits []int
	for st := micro.Structure(0); st < micro.NumStructures; st++ {
		n := nPerStruct
		if b := CacheSampleBoost[st]; b > 1 {
			n *= b
		}
		tally, err := s.MicroTally(cfg, st, n, seed+int64(st)*7919)
		if err != nil {
			return nil, vuln.Split{}, err
		}
		r := StructResult{
			Struct:  st,
			Bits:    cfg.Bits(st),
			N:       tally.N,
			Split:   vuln.SplitOf(tally),
			HVF:     tally.HVF(),
			FPM:     tally.FPM,
			Visible: tally.Visible,
			Tally:   tally,
		}
		srs = append(srs, r)
		parts = append(parts, r.Split)
		bits = append(bits, r.Bits)
	}
	return srs, vuln.Weighted(parts, bits), nil
}

// PVF measures the architecture-level vulnerability for one FPM,
// store-aware like MicroTally. micro.FPMNone measures the
// register-uniform PVF: bit flips uniform over (register, bit, dynamic
// instant), the quantity that dynamic ACE — and therefore the static
// bound — provably dominates.
func (s *System) PVF(fpm micro.FPM, n int, seed int64) (vuln.Split, error) {
	tally, err := s.storeTally(s.ArchKey(fpm, seed), n, func(from int) ([]results.Record, error) {
		cp, err := s.ArchCampaign()
		if err != nil {
			return nil, err
		}
		return cp.Records(fpm, n, from, seed, nil), nil
	})
	if err != nil {
		return vuln.Split{}, err
	}
	return vuln.SplitOf(tally), nil
}

// SVF measures the software-level (LLFI-style) vulnerability,
// store-aware like MicroTally.
func (s *System) SVF(n int, seed int64) (vuln.Split, error) {
	if s.ISA != isa.VSA64 {
		return vuln.Split{}, fmt.Errorf("vulnstack: SVF (LLFI) supports only the 64-bit ISA")
	}
	tally, err := s.storeTally(s.SoftKey(seed), n, func(from int) ([]results.Record, error) {
		cp, err := s.LLFICampaign()
		if err != nil {
			return nil, err
		}
		return cp.Records(n, from, seed, nil), nil
	})
	if err != nil {
		return vuln.Split{}, err
	}
	return vuln.SplitOf(tally), nil
}

// FPMDist computes the bit-weighted fault-propagation-model
// distribution across the five structures (the paper's Fig. 6): the
// probability that a visible hardware fault manifests as each model,
// ESC included. It is a pure function of the per-structure record
// tallies (vuln.FPMDist does the arithmetic).
func FPMDist(cfg micro.Config, srs []StructResult) map[micro.FPM]float64 {
	tallies := make([]results.Tally, len(srs))
	bits := make([]int, len(srs))
	for i, r := range srs {
		tallies[i] = r.Tally
		bits[i] = r.Bits
	}
	return vuln.FPMDist(tallies, bits)
}

// Margin reports the sampling error margin of an n-sample campaign at
// 99% confidence (the paper's convention).
func Margin(n int) float64 { return vuln.Margin(n, 0.99) }

// UniformSamplesFor is the uniform worst-case sample count that
// guarantees margin e at the given confidence — the fixed budget a
// non-stratified campaign needs, and therefore the comparator a
// stratified run's injection count is judged against.
func UniformSamplesFor(e, confidence float64) int { return vuln.SamplesFor(e, confidence) }

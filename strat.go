// Stratified campaign mode: same confidence bounds, order-of-magnitude
// fewer injections. All three layers share one driver: the pre-drawn
// fault-site pool is partitioned into deterministic equivalence classes
// (internal/strata), a pilot round estimates per-stratum variance, and
// Neyman-style rounds (internal/campaign.StratPlan) top up the
// highest-variance strata until the reweighted estimator's CI
// half-width (internal/vuln) meets the target. The record stream is a
// pure function of (seed, pool, partition, plan parameters): rounds are
// planned only from completed-round tallies, records are ordered
// stratum-major within each round, and stored records replay through
// the same planner — so stratified runs are bit-reproducible at any
// worker count and resumable from the columnar store mid-campaign.
package vulnstack

import (
	"fmt"
	"math/bits"

	"vulnstack/internal/arch"
	"vulnstack/internal/campaign"
	"vulnstack/internal/inject"
	"vulnstack/internal/isa"
	"vulnstack/internal/llfi"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
	"vulnstack/internal/static"
	"vulnstack/internal/strata"
	"vulnstack/internal/vuln"
)

// DefaultStratCI is the default target CI half-width: the paper's
// worst-case margin for 2000 uniform samples at 99% confidence (2.88%),
// so a default stratified run promises exactly the bound the paper's
// campaigns promise.
const DefaultStratCI = 0.0288

// DefaultStratPool is the default fault-site pool size: 10x the uniform
// sample count behind DefaultStratCI, so pool granularity never binds
// the adaptive allocator. Drawing pool sites is free — only injections
// cost time.
const DefaultStratPool = 20000

// StratOptions configure a stratified campaign. The zero value selects
// the paper-equivalent defaults.
type StratOptions struct {
	// CI is the target half-width of the reweighted estimator's
	// confidence interval (DefaultStratCI when <= 0).
	CI float64
	// Confidence is the CI level (0.99 when <= 0).
	Confidence float64
	// Pool is the fault-site pool size (DefaultStratPool when <= 0).
	Pool int
	// N0 is the pilot sample count per stratum
	// (campaign.DefaultPilot when <= 0).
	N0 int
	// MaxNew bounds the fresh injections this call may perform (0 = no
	// bound): the resume budget. A budget-truncated run persists what it
	// injected; a later call with the same options continues the exact
	// stream and finishes bit-identical to an unbudgeted one-shot run.
	MaxNew int
}

func (o StratOptions) ci() float64 {
	if o.CI <= 0 {
		return DefaultStratCI
	}
	return o.CI
}

func (o StratOptions) conf() float64 {
	if o.Confidence <= 0 {
		return 0.99
	}
	return o.Confidence
}

func (o StratOptions) pool() int {
	if o.Pool <= 0 {
		return DefaultStratPool
	}
	return o.Pool
}

func (o StratOptions) n0() int {
	if o.N0 <= 0 {
		return campaign.DefaultPilot
	}
	return o.N0
}

// mode is the sampling-regime component of the store key: every plan
// parameter that shapes the record stream, plus the partition
// fingerprint — partitions depend on derived campaign state (checkpoint
// PCs, def-use availability), so streams built from incompatible
// partitions can never collide in the store.
func (o StratOptions) mode(part *strata.Partition) string {
	return fmt.Sprintf("strat,pool=%d,n0=%d,ci=%g,conf=%g,part=%s",
		o.pool(), o.n0(), o.ci(), o.conf(), part.Fingerprint())
}

// StratumReport is one stratum's contribution to a stratified result.
type StratumReport struct {
	// Label is the equivalence-class provenance label (also stored per
	// record).
	Label string
	// Size is the stratum's pool site count (the reweighting weight
	// numerator).
	Size int
	// Tally aggregates the injections performed inside the stratum —
	// or, for a Resolved stratum, the synthesized exhaustive tally.
	Tally results.Tally
	// Resolved marks a stratum classified entirely by the static
	// demanded-bits analysis: all Size sites are provably Masked and
	// zero injections were performed in it.
	Resolved bool
}

// StratResult is the outcome of a stratified campaign.
type StratResult struct {
	// Split is the unbiased reweighted outcome estimate.
	Split vuln.Split
	// HalfWidth is the achieved CI half-width at the requested
	// confidence (<= the CI target unless the run was budget-truncated
	// or the pool was exhausted).
	HalfWidth float64
	// N is the total injections in the stream (stored + fresh); Fresh
	// is how many this call executed.
	N     int
	Fresh int
	// Resolved is the number of pool sites classified statically
	// (zero-injection certain mass in the estimate).
	Resolved int
	// Pool is the fault-site pool size.
	Pool int
	// Strata reports the per-stratum sizes and tallies in stable
	// partition order.
	Strata []StratumReport
	// Key is the full store identity (provenance stamp: the Mode field
	// carries plan parameters and the partition fingerprint).
	Key results.Key
}

// liveCFG returns the image's liveness-solved static CFG, built once
// per system.
func (s *System) liveCFG() *static.CFG {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.staticG == nil {
		g := static.BuildCFG(s.ISA, static.ImageSegs(s.Image))
		g.Liveness()
		s.staticG = g
	}
	return s.staticG
}

// liveBucketAt is the static-liveness stratification feature: the
// bucketed live-out register count at a program point, -1 when the
// address is outside the analyzed text (an unknown-liveness stratum).
func (s *System) liveBucketAt(g *static.CFG, pc uint64) int {
	mask, ok := g.LiveOutAt(pc)
	if !ok {
		return -1
	}
	return strata.LiveBucket(bits.OnesCount32(mask), s.ISA.NumRegs())
}

// bitFlow returns the image's bit-precise known/demanded-bits solution,
// built once per system on top of the liveness-solved CFG.
func (s *System) bitFlow() *static.BitFlow {
	g := s.liveCFG()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.staticB == nil {
		s.staticB = g.SolveBits()
	}
	return s.staticB
}

// demBucketAt is the hardware layers' demanded-bits stratification
// feature: whether the fault's bit position is inside the union of
// statically demanded register bits at the governing program point.
// A proxy only — the architectural target of a hardware fault is
// dynamic state (physical registers, forward-walked instants), so
// undemanded here never means resolved, just a colder stratum.
// Misclassification costs efficiency, never bias.
func (s *System) demBucketAt(bf *static.BitFlow, pc uint64, bit int) int {
	d, ok := bf.DemandedUnionAt(pc)
	if !ok {
		return strata.DemDemanded
	}
	if d&(1<<uint(bit%s.ISA.XLen())) == 0 {
		return strata.DemUndemanded
	}
	return strata.DemDemanded
}

// StratMicro measures one structure's AVF with stratified sampling:
// pool sites are partitioned by (structure, bit bucket, liveness bucket
// and demanded-bits bucket at the governing checkpoint's fetch PC) and
// the allocator samples strata adaptively until the reweighted estimate
// meets opt's bound.
func (s *System) StratMicro(cfg micro.Config, st micro.Structure, opt StratOptions, seed int64) (StratResult, error) {
	if cfg.ISA != s.ISA {
		return StratResult{}, fmt.Errorf("vulnstack: config %s (%v) does not match system ISA %v", cfg.Name, cfg.ISA, s.ISA)
	}
	cp, err := s.MicroCampaign(cfg)
	if err != nil {
		return StratResult{}, err
	}
	pool := cp.Pool(st, opt.pool(), seed)
	pcs := cp.CheckpointPCs()
	g, bf := s.liveCFG(), s.bitFlow()
	part := strata.New(len(pool), func(i int) strata.Key {
		f := pool[i]
		pc := pcs[cp.CkptFor(f.Cycle)]
		return strata.Key{
			Class: st.String(),
			Bit:   strata.BitBucket(f.Bit),
			Live:  s.liveBucketAt(g, pc),
			Dem:   s.demBucketAt(bf, pc, f.Bit),
		}
	})
	k := s.MicroKey(cfg, st, seed)
	k.Mode = opt.mode(part)
	return s.runStratified(k, part, nil, opt, func(sites []int, base int) []results.Record {
		faults := make([]inject.Fault, len(sites))
		for i, site := range sites {
			faults[i] = pool[site]
		}
		return cp.RecordsAt(faults, base, nil)
	})
}

// StratPVF measures one FPM's PVF with stratified sampling. WD faults
// corrupt operand data, so their class is the model itself; WI/WOI
// faults corrupt instruction encodings, so their class is the
// isa.FlipClass of flipping the sampled bit in the instruction word at
// the governing checkpoint's PC — a static proxy for the dynamic fault
// site that separates encoding-sensitivity regimes. Misclassification
// costs efficiency, never bias.
func (s *System) StratPVF(fpm micro.FPM, opt StratOptions, seed int64) (StratResult, error) {
	cp, err := s.ArchCampaign()
	if err != nil {
		return StratResult{}, err
	}
	pool := cp.Pool(fpm, opt.pool(), seed)
	pcs := cp.CheckpointPCs()
	g, bf := s.liveCFG(), s.bitFlow()
	part := strata.New(len(pool), func(i int) strata.Key {
		f := pool[i]
		pc := pcs[cp.CkptFor(f.K)]
		class := fpm.String()
		if fpm != micro.FPMWD {
			if w, ok := s.Image.RAM.Word32(pc); ok {
				class = isa.FlipClass(w, f.Bit%32, s.ISA).String()
			} else {
				class = "nofetch"
			}
		}
		return strata.Key{
			Class: class,
			Bit:   strata.BitBucket(f.Bit),
			Live:  s.liveBucketAt(g, pc),
			Dem:   s.demBucketAt(bf, pc, f.Bit),
		}
	})
	k := s.ArchKey(fpm, seed)
	k.Mode = tbMode(opt.mode(part))
	return s.runStratified(k, part, nil, opt, func(sites []int, base int) []results.Record {
		faults := make([]arch.Fault, len(sites))
		for i, site := range sites {
			faults[i] = pool[site]
		}
		return cp.RecordsAt(faults, base, nil)
	})
}

// StratSVF measures the software-level vulnerability with stratified
// sampling: pool sites are partitioned by whether the golden run ever
// read the targeted definition (dead defs are provably Masked, so that
// stratum's variance collapses immediately), by bit bucket and by the
// demanded-bits verdict.
func (s *System) StratSVF(opt StratOptions, seed int64) (StratResult, error) {
	if s.ISA != isa.VSA64 {
		return StratResult{}, fmt.Errorf("vulnstack: SVF (LLFI) supports only the 64-bit ISA")
	}
	cp, err := s.LLFICampaign()
	if err != nil {
		return StratResult{}, err
	}
	pool := cp.Pool(opt.pool(), seed)
	part := strata.New(len(pool), func(i int) strata.Key {
		f := pool[i]
		class := "dead"
		if cp.UsedDef(f.Seq) {
			class = "live"
		}
		// The soft layer has a sound per-site verdict: a DemResolved
		// stratum holds only provably-Masked faults.
		dem := strata.DemDemanded
		if cp.StaticMasked(f) {
			dem = strata.DemResolved
		}
		return strata.Key{Class: class, Bit: strata.BitBucket(int(f.Bit)), Live: -1, Dem: dem}
	})
	// The fast engine counts a resolved stratum's whole mass without
	// injecting; the reference engine, which resolves nothing, injects
	// it like any other stratum.
	var resolved []bool
	if !s.Reference {
		resolved = make([]bool, part.NumStrata())
		for h := range resolved {
			resolved[h] = part.Key(h).Dem == strata.DemResolved
		}
	}
	k := s.SoftKey(seed)
	k.Mode = tbMode(opt.mode(part))
	return s.runStratified(k, part, resolved, opt, func(sites []int, base int) []results.Record {
		faults := make([]llfi.Fault, len(sites))
		for i, site := range sites {
			faults[i] = pool[site]
		}
		return cp.RecordsAt(faults, base, nil)
	})
}

// runStratified is the layer-agnostic stratified driver. injectAt must
// inject the pool sites (by pool index, in the given order) and return
// their records indexed base+i; the driver stamps stratum labels,
// persists each round, and replays any stored prefix instead of
// re-injecting it. Stored records are verified against the planned
// stream (index and stratum label) — the partition fingerprint in the
// key makes a mismatch unreachable short of store corruption.
//
// resolved (nil on the reference engine) marks strata whose every site
// is provably Masked by static analysis: the driver synthesizes their
// exhaustive all-Masked tallies up front, the planner allocates them
// zero samples, and no record for them ever enters the stream — their
// mass reaches the estimate as zero-variance certainty.
func (s *System) runStratified(k results.Key, part *strata.Partition, resolved []bool, opt StratOptions, injectAt func(sites []int, base int) []results.Record) (StratResult, error) {
	if err := s.checkStore(); err != nil {
		return StratResult{}, err
	}
	sizes := part.Sizes()
	labels := part.Labels()
	byStratum := make([][]int, part.NumStrata())
	for h := range byStratum {
		byStratum[h] = part.Sites(h)
	}
	plan := campaign.StratPlan{Sizes: sizes, N0: opt.n0(), CI: opt.ci(), Confidence: opt.conf(), Resolved: resolved}

	var stored []results.Record
	haveStored := false
	if s.Store != nil {
		recs, ok, err := s.Store.Load(k)
		if err != nil {
			return StratResult{}, err
		}
		stored, haveStored = recs, ok
	}

	sampled := make([]int, len(sizes))
	tallies := make([]results.Tally, len(sizes))
	nResolved := 0
	for h := range resolved {
		if !resolved[h] {
			continue
		}
		// Synthesized exhaustive tally: every site Masked, no records.
		tallies[h].N = sizes[h]
		tallies[h].Outcomes[results.Masked] = sizes[h]
		sampled[h] = sizes[h]
		nResolved += sizes[h]
	}
	storedPos, total, fresh := 0, 0, 0

	for counts := plan.Pilot(); counts != nil; counts = plan.Next(tallies) {
		// Materialize the round stratum-major: within a stratum, pool
		// order (an i.i.d. prefix of the stratum).
		var sites, strat []int
		for h, c := range counts {
			for _, site := range byStratum[h][sampled[h] : sampled[h]+c] {
				sites = append(sites, site)
				strat = append(strat, h)
			}
			sampled[h] += c
		}
		// Serve the stored prefix of the round.
		served := 0
		for served < len(sites) && storedPos < len(stored) {
			rec := stored[storedPos]
			if rec.Index != total || rec.Stratum != labels[strat[served]] {
				return StratResult{}, fmt.Errorf("vulnstack: stored stratified campaign %q diverges at record %d (stored index %d stratum %q, want %q)",
					k, total, rec.Index, rec.Stratum, labels[strat[served]])
			}
			tallies[strat[served]].Add(rec)
			storedPos++
			total++
			served++
		}
		// Inject the rest, bounded by the fresh-injection budget.
		truncated := false
		todoSites, todoStrat := sites[served:], strat[served:]
		if opt.MaxNew > 0 && fresh+len(todoSites) > opt.MaxNew {
			todoSites, todoStrat = todoSites[:opt.MaxNew-fresh], todoStrat[:opt.MaxNew-fresh]
			truncated = true
		}
		if len(todoSites) > 0 {
			recs := injectAt(todoSites, total)
			for i := range recs {
				recs[i].Stratum = labels[todoStrat[i]]
				tallies[todoStrat[i]].Add(recs[i])
			}
			if s.Store != nil {
				var err error
				if !haveStored {
					err = s.Store.Save(k, recs)
					haveStored = true
				} else {
					err = s.Store.Append(k, recs)
				}
				if err != nil {
					return StratResult{}, err
				}
			}
			total += len(recs)
			fresh += len(recs)
		}
		if truncated {
			// Partial rounds stay unbiased (within-stratum prefixes of
			// an i.i.d. sample) but must not feed the planner: stop
			// here; a resumed call replays the stream and finishes the
			// round first.
			break
		}
	}

	poolSize := 0
	for _, m := range sizes {
		poolSize += m
	}
	strataState := campaign.StrataResolved(sizes, tallies, resolved)
	res := StratResult{
		Split:     vuln.StratifiedSplit(strataState),
		HalfWidth: vuln.StratifiedHalfWidth(strataState, opt.conf()),
		N:         total,
		Fresh:     fresh,
		Resolved:  nResolved,
		Pool:      poolSize,
		Strata:    make([]StratumReport, len(sizes)),
		Key:       k,
	}
	for h := range sizes {
		res.Strata[h] = StratumReport{Label: labels[h], Size: sizes[h], Tally: tallies[h],
			Resolved: h < len(resolved) && resolved[h]}
	}
	return res, nil
}

// Package strata partitions a pre-drawn fault-site pool into
// deterministic equivalence classes for stratified campaign sampling.
// A stratum key combines the injection structure (or fault-model
// class), a bit-position bucket, and a static-liveness bucket — cheap
// static features that correlate with fault outcome, so grouping by
// them shrinks within-stratum variance and lets the Neyman allocator
// (internal/campaign) hit a target confidence bound with far fewer
// injections. Misclassification costs only efficiency, never bias: the
// reweighted estimator (internal/vuln) is unbiased for any partition.
//
// Stratum order is a sorted function of the key set — never map
// iteration order — so partitions, allocation rounds, and the record
// streams built from them are bit-reproducible across runs and worker
// counts.
package strata

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
)

// Key identifies one equivalence class of fault sites.
type Key struct {
	// Class is the layer-specific coarse class: the structure name at
	// the micro layer, the isa.FlipClass (WD/WI/WOI/trap/masked) of the
	// targeted instruction word at the arch layer, "live"/"dead" def at
	// the soft layer.
	Class string
	// Bit is the bit-position bucket (BitBucket).
	Bit int
	// Live is the static liveness bucket at the fault's governing
	// program point (LiveBucket), or -1 where liveness does not apply.
	Live int
	// Dem is the demanded-bits bucket from the bit-precise static
	// analysis: DemResolved for sites the analysis proves Masked,
	// DemDemanded for sites whose flipped bit is statically demanded,
	// and DemNone (the zero value) for a key without the feature, whose
	// label omits the level.
	Dem int
}

// Demanded-bits bucket values for Key.Dem.
const (
	// DemNone marks a key without the demanded-bits feature (the zero
	// value, label-invisible).
	DemNone = 0
	// DemResolved marks sites whose flipped bit is provably masked.
	DemResolved = 1
	// DemDemanded marks sites whose flipped bit is statically demanded
	// (or unresolvable).
	DemDemanded = 2
	// DemUndemanded marks sites whose flipped bit is statically
	// undemanded at the governing program point — a variance proxy at
	// the hardware layers, never a verdict (the architectural target of
	// a hardware fault is itself dynamic state there).
	DemUndemanded = 3
)

// String is the key's stable record-provenance label (stored per record
// in the results plane, so stored campaigns re-aggregate per stratum
// without re-deriving the partition).
func (k Key) String() string {
	if k.Dem == DemNone {
		return fmt.Sprintf("%s/b%d/l%d", k.Class, k.Bit, k.Live)
	}
	return fmt.Sprintf("%s/b%d/l%d/d%d", k.Class, k.Bit, k.Live, k.Dem)
}

func keyLess(a, b Key) bool {
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	if a.Bit != b.Bit {
		return a.Bit < b.Bit
	}
	if a.Live != b.Live {
		return a.Live < b.Live
	}
	return a.Dem < b.Dem
}

// BitBucket buckets a bit position into low byte (0), low word (1) and
// high half (2): the paper's masking behavior differs sharply between
// low-order value bits and high-order (often sign-extended or unused)
// bits, so these coarse buckets separate outcome regimes.
func BitBucket(bit int) int {
	switch {
	case bit < 8:
		return 0
	case bit < 32:
		return 1
	default:
		return 2
	}
}

// LiveBucket buckets a live-register count (from static dataflow, see
// internal/static) into thirds of the register file: few (0), some (1),
// many (2) live registers at the governing program point. Returns -1
// for unknown liveness (count < 0), keeping unknown sites in their own
// stratum rather than polluting a real bucket.
func LiveBucket(count, nregs int) int {
	if count < 0 {
		return -1
	}
	if nregs <= 0 {
		return 0
	}
	b := count * 3 / nregs
	if b > 2 {
		b = 2
	}
	return b
}

// Partition maps every site of a fault pool to its stratum. Strata are
// indexed [0, NumStrata) in sorted key order.
type Partition struct {
	keys  []Key
	sites []int // per-site stratum index
	sizes []int
}

// New partitions n sites by their keys. keyOf must be a pure function
// of the site index (it is called once per site, in order).
func New(n int, keyOf func(site int) Key) *Partition {
	perSite := make([]Key, n)
	for i := 0; i < n; i++ {
		perSite[i] = keyOf(i)
	}
	uniq := make([]Key, n)
	copy(uniq, perSite)
	sort.Slice(uniq, func(i, j int) bool { return keyLess(uniq[i], uniq[j]) })
	w := 0
	for i, k := range uniq {
		if i == 0 || k != uniq[w-1] {
			uniq[w] = k
			w++
		}
	}
	uniq = uniq[:w]
	index := make(map[Key]int, w)
	for h, k := range uniq {
		index[k] = h
	}
	p := &Partition{keys: uniq, sites: make([]int, n), sizes: make([]int, w)}
	for i, k := range perSite {
		h := index[k]
		p.sites[i] = h
		p.sizes[h]++
	}
	return p
}

// NumStrata is the number of equivalence classes.
func (p *Partition) NumStrata() int { return len(p.keys) }

// Stratum returns the stratum index of a pool site.
func (p *Partition) Stratum(site int) int { return p.sites[site] }

// Key returns the key of stratum h.
func (p *Partition) Key(h int) Key { return p.keys[h] }

// Labels returns the per-stratum provenance labels in stratum order.
func (p *Partition) Labels() []string {
	labels := make([]string, len(p.keys))
	for h, k := range p.keys {
		labels[h] = k.String()
	}
	return labels
}

// Sizes returns the per-stratum site counts in stratum order (the M_h
// feeding the reweighted estimator).
func (p *Partition) Sizes() []int {
	sizes := make([]int, len(p.sizes))
	copy(sizes, p.sizes)
	return sizes
}

// Sites returns the pool indices of stratum h, in pool order. Because
// the pool is an i.i.d. uniform draw, any prefix of this slice is an
// unbiased i.i.d. sample of the stratum.
func (p *Partition) Sites(h int) []int {
	out := make([]int, 0, p.sizes[h])
	for i, s := range p.sites {
		if s == h {
			out = append(out, i)
		}
	}
	return out
}

// Fingerprint digests the full per-site stratum assignment (labels and
// membership). Partitions depend on derived campaign state — checkpoint
// PCs, static liveness availability — so the fingerprint is embedded in
// the store key: streams built from incompatible partitions can never
// be confused for one another.
func (p *Partition) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(p.sites)))
	h.Write(buf[:])
	for _, k := range p.keys {
		h.Write([]byte(k.String()))
		h.Write([]byte{0})
	}
	for _, s := range p.sites {
		binary.LittleEndian.PutUint64(buf[:], uint64(s))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

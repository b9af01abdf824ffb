// Package vuln implements the vulnerability arithmetic of the study:
// statistical error margins for fault sampling, bit-weighted (FIT-style)
// aggregation of per-structure AVFs, the refined-PVF (rPVF) combination,
// and the opposite-ranking analysis behind the paper's Table III. Every
// estimator is a pure function of per-injection record streams (see
// internal/results): tallies in, aggregates out, so stored campaigns
// can be re-aggregated and re-weighted without re-injection.
package vuln

import (
	"math"
	"sort"

	"vulnstack/internal/micro"
	"vulnstack/internal/results"
)

// Split is a vulnerability measurement broken into the paper's fault
// effect classes, each as a fraction of injected faults.
type Split struct {
	SDC      float64
	Crash    float64
	Detected float64
	Masked   float64
}

// Total is the vulnerability: SDC + Crash. Detected faults are treated
// as recoverable (excluded), following the paper's case study.
func (s Split) Total() float64 { return s.SDC + s.Crash }

// Add returns s + o (used with pre-scaled weights).
func (s Split) Add(o Split) Split {
	return Split{s.SDC + o.SDC, s.Crash + o.Crash, s.Detected + o.Detected, s.Masked + o.Masked}
}

// Scale returns s scaled by w.
func (s Split) Scale(w float64) Split {
	return Split{s.SDC * w, s.Crash * w, s.Detected * w, s.Masked * w}
}

// SplitOf converts a record-stream tally into the fault-effect split:
// the pure function from records to the fractions every report prints.
func SplitOf(t results.Tally) Split {
	if t.N == 0 {
		return Split{}
	}
	f := func(o results.Outcome) float64 { return float64(t.Outcomes[o]) / float64(t.N) }
	return Split{
		SDC: f(results.SDC), Crash: f(results.Crash),
		Detected: f(results.Detected), Masked: f(results.Masked),
	}
}

// SplitRecords aggregates a record stream directly into a split.
func SplitRecords(recs []results.Record) Split {
	return SplitOf(results.TallyOf(recs))
}

// SplitCursor aggregates a stored campaign through the streaming
// columnar path — o(n) memory, only the aggregation columns decoded —
// and is bit-identical to SplitRecords over the cursor's records.
func SplitCursor(c *results.Cursor) (Split, error) {
	t, err := c.Tally()
	if err != nil {
		return Split{}, err
	}
	return SplitOf(t), nil
}

// FPMDist computes the bit-weighted fault-propagation-model
// distribution from per-structure record tallies (the paper's Fig. 6):
// the probability that a visible hardware fault manifests as each
// model, ESC included. tallies and bits are parallel slices; a
// mismatch yields nil.
func FPMDist(tallies []results.Tally, bits []int) map[micro.FPM]float64 {
	if len(tallies) != len(bits) {
		return nil
	}
	weighted := make(map[micro.FPM]float64)
	var total float64
	for i, t := range tallies {
		if t.N == 0 {
			continue
		}
		w := float64(bits[i])
		for m := micro.FPM(1); m < micro.NumFPM; m++ {
			p := float64(t.FPM[m]) / float64(t.N)
			weighted[m] += w * p
			total += w * p
		}
	}
	if total > 0 {
		//lint:ordered per-key normalization; each entry is divided independently, no cross-iteration accumulation
		for m := range weighted {
			weighted[m] /= total
		}
	}
	return weighted
}

// Weighted combines per-structure splits using bit counts as weights:
// the AVF analogue of summing per-structure FIT rates, so that a 2MB L2
// outweighs a 1KB load/store queue exactly as it does in silicon.
func Weighted(parts []Split, bits []int) Split {
	if len(parts) != len(bits) {
		panic("vuln.Weighted: length mismatch")
	}
	var total float64
	for _, b := range bits {
		total += float64(b)
	}
	var out Split
	if total == 0 {
		return out
	}
	for i, p := range parts {
		out = out.Add(p.Scale(float64(bits[i]) / total))
	}
	return out
}

// Z returns the two-sided normal quantile for a confidence level: the
// z with P(|N(0,1)| <= z) = confidence. It evaluates the inverse normal
// CDF properly (Acklam's rational approximation, |relative error| <
// 1.2e-9) instead of the old four-step lookup, because stratified
// allocation solves for sample counts from z and a coarse quantile
// would mis-size every round. Confidence is clamped to [0.90,
// 1 - 1e-12]: levels below the old default branch keep its value, and
// the top clamp keeps the result finite.
func Z(confidence float64) float64 {
	if confidence < 0.90 {
		confidence = 0.90
	}
	if confidence > 1-1e-12 {
		confidence = 1 - 1e-12
	}
	return invNorm((1 + confidence) / 2)
}

// zFor is the internal spelling Margin/SamplesFor always used.
func zFor(confidence float64) float64 { return Z(confidence) }

// invNorm is Acklam's rational approximation to the inverse of the
// standard normal CDF, defined for p in (0, 1).
func invNorm(p float64) float64 {
	const plow = 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return invNormTail(q)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -invNormTail(q)
	default:
		q := p - 0.5
		r := q * q
		return (((((-3.969683028665376e+01*r+2.209460984245205e+02)*r-
			2.759285104469687e+02)*r+1.383577518672690e+02)*r-
			3.066479806614716e+01)*r + 2.506628277459239e+00) * q /
			(((((-5.447609879822406e+01*r+1.615858368580409e+02)*r-
				1.556989798598866e+02)*r+6.680131188771972e+01)*r-
				1.328068155288572e+01)*r + 1)
	}
}

// invNormTail evaluates the lower-tail branch at q = sqrt(-2 ln p).
func invNormTail(q float64) float64 {
	return (((((-7.784894002430293e-03*q-3.223964580411365e-01)*q-
		2.400758277161838e+00)*q-2.549732539343734e+00)*q+
		4.374664141464968e+00)*q + 2.938163982698783e+00) /
		((((7.784695709041462e-03*q+3.224671290700398e-01)*q+
			2.445134137142996e+00)*q+3.754408661907416e+00)*q + 1)
}

// Margin returns the worst-case (p = 0.5) sampling error margin for n
// uniform fault samples at the given confidence, per the statistical
// fault sampling model of Leveugle et al. — the paper's 2,000 samples
// give 2.88% at 99% confidence.
func Margin(n int, confidence float64) float64 {
	if n <= 0 {
		return 1
	}
	return zFor(confidence) * 0.5 / math.Sqrt(float64(n))
}

// SamplesFor inverts Margin: the sample count needed for margin e.
func SamplesFor(e, confidence float64) int {
	z := zFor(confidence)
	return int(math.Ceil(z * z * 0.25 / (e * e)))
}

// Stratum is one equivalence class of a stratified campaign's fault-site
// pool: its site count (the reweighting weight numerator) and the tally
// of the injections performed inside it. Tally.N <= Size always; a
// stratum with Size > 0 but Tally.N == 0 has not been piloted yet and
// contributes its worst-case variance to the half-width (forcing the
// allocator to sample it) while contributing nothing to the point
// estimate.
type Stratum struct {
	Size  int
	Tally results.Tally
	// Resolved marks a stratum classified exhaustively by the static
	// demanded-bits analysis: every one of its Size sites is provably
	// Masked, its tally covers the whole stratum with zero injections,
	// and it carries exactly zero sampling variance — the estimator
	// treats it as certain mass and the Neyman allocator never assigns
	// it another sample.
	Resolved bool
}

// stratWeights returns W_h = Size_h / M (each stratum's share of the
// pool) and the pool size M. Empty strata weigh zero.
func stratWeights(strata []Stratum) ([]float64, int) {
	total := 0
	for _, s := range strata {
		total += s.Size
	}
	w := make([]float64, len(strata))
	if total == 0 {
		return w, 0
	}
	for i, s := range strata {
		w[i] = float64(s.Size) / float64(total)
	}
	return w, total
}

// StratifiedSplit is the unbiased reweighted estimate of a stratified
// campaign: est = sum over strata of W_h * p̂_h, with W_h the stratum's
// pool share and p̂_h its within-stratum outcome fraction. Because the
// pool is an i.i.d. uniform draw from the fault space, the sites of one
// stratum are (in pool order) an i.i.d. sample of that stratum, so
// injecting any prefix of them estimates p_h without bias and the
// weighted sum estimates the uniform-sampling quantity the paper
// reports.
func StratifiedSplit(strata []Stratum) Split {
	w, _ := stratWeights(strata)
	var out Split
	for i, s := range strata {
		out = out.Add(SplitOf(s.Tally).Scale(w[i]))
	}
	return out
}

// stratumVar is the estimated variance of one stratum's outcome-o
// proportion estimator: Laplace-smoothed p̃(1-p̃)/n (the smoothing keeps
// single-outcome strata from reporting an impossible zero variance and
// freezing allocation at a wrong point estimate), with the finite-
// population correction (1 - n/M) — a fully enumerated stratum has no
// sampling error left. An unsampled stratum reports the worst case.
func stratumVar(s Stratum, o results.Outcome) float64 {
	if s.Resolved {
		return 0
	}
	n := float64(s.Tally.N)
	if s.Tally.N <= 0 {
		if s.Size == 0 {
			return 0
		}
		return 0.25
	}
	p := (float64(s.Tally.Outcomes[o]) + 0.5) / (n + 1)
	v := p * (1 - p) / n
	if s.Size > 0 {
		fpc := 1 - n/float64(s.Size)
		if fpc < 0 {
			fpc = 0
		}
		v *= fpc
	}
	return v
}

// StratumDev is the estimated within-stratum standard deviation driving
// Neyman allocation: sqrt of the largest smoothed p̃(1-p̃) over the
// outcome classes (the binding class for the max-based half-width). An
// unsampled stratum reports the worst case 0.5.
func StratumDev(s Stratum) float64 {
	if s.Resolved {
		return 0
	}
	if s.Tally.N <= 0 {
		return 0.5
	}
	n := float64(s.Tally.N)
	best := 0.0
	for o := results.Outcome(0); o < results.NumOutcomes; o++ {
		p := (float64(s.Tally.Outcomes[o]) + 0.5) / (n + 1)
		if v := p * (1 - p); v > best {
			best = v
		}
	}
	return math.Sqrt(best)
}

// StratifiedHalfWidth is the z-scaled CI half-width of the stratified
// estimator, maximized over the four outcome classes:
//
//	max_o z * sqrt( sum_h W_h^2 * var_h(o)  +  p̃_o(1-p̃_o)/M )
//
// The first term is the within-pool stratified sampling variance (with
// per-stratum smoothing and finite-population correction); the second
// charges the pool itself — the pool of M sites is an M-sample uniform
// estimate of the true fault space, so even enumerating it exhaustively
// leaves that residual. Including it keeps the bound honest against the
// uniform-sampling margin convention it is compared to.
func StratifiedHalfWidth(strata []Stratum, confidence float64) float64 {
	w, m := stratWeights(strata)
	if m == 0 {
		return 1
	}
	pooled := StratifiedSplit(strata)
	classes := [results.NumOutcomes]float64{
		results.Masked: pooled.Masked, results.SDC: pooled.SDC,
		results.Crash: pooled.Crash, results.Detected: pooled.Detected,
	}
	worst := 0.0
	for o := results.Outcome(0); o < results.NumOutcomes; o++ {
		v := 0.0
		for i, s := range strata {
			v += w[i] * w[i] * stratumVar(s, o)
		}
		p := (classes[o]*float64(m) + 0.5) / (float64(m) + 1)
		v += p * (1 - p) / float64(m)
		if v > worst {
			worst = v
		}
	}
	return Z(confidence) * math.Sqrt(worst)
}

// RPVF computes the refined PVF: per-FPM PVF splits combined with the
// HVF-measured FPM distribution. The ESC share cannot be modelled at
// the architecture level (its defining property is that it never
// reaches the program flow), so weights renormalize over WD/WOI/WI —
// exactly the blind spot the paper identifies.
func RPVF(pvf map[micro.FPM]Split, dist map[micro.FPM]float64) Split {
	var wsum float64
	for _, m := range []micro.FPM{micro.FPMWD, micro.FPMWOI, micro.FPMWI} {
		wsum += dist[m]
	}
	var out Split
	if wsum == 0 {
		return out
	}
	for _, m := range []micro.FPM{micro.FPMWD, micro.FPMWOI, micro.FPMWI} {
		out = out.Add(pvf[m].Scale(dist[m] / wsum))
	}
	return out
}

// OppositePairs counts benchmark pairs (i<j) that the two measures rank
// in strictly opposite order — the paper's headline evidence that
// higher-level measurements mislead (13 of 45 pairs in Fig. 4).
// Mismatched-length inputs are not a valid comparison and count 0.
func OppositePairs(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	n := 0
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			if (a[i]-a[j])*(b[i]-b[j]) < 0 {
				n++
			}
		}
	}
	return n
}

// TotalPairs returns C(n,2).
func TotalPairs(n int) int { return n * (n - 1) / 2 }

// DominantEffectFlips counts benchmarks whose dominant fault-effect
// class (SDC vs Crash) differs between the two measures — the paper's
// "Effect" columns in Table III. Mismatched-length inputs count 0.
func DominantEffectFlips(a, b []Split) int {
	if len(a) != len(b) {
		return 0
	}
	n := 0
	for i := range a {
		da := a[i].SDC > a[i].Crash
		db := b[i].SDC > b[i].Crash
		if da != db {
			n++
		}
	}
	return n
}

// RankOrder returns benchmark indices sorted by descending value
// (reporting convenience).
func RankOrder(vals []float64) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	return idx
}

// Correlation returns the Pearson correlation of two measurement
// vectors (used to quantify cross-layer agreement). Mismatched-length,
// empty and zero-variance inputs return 0 rather than NaN.
func Correlation(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(len(a))
	mb /= float64(len(b))
	var cov, va, vb float64
	for i := range a {
		cov += (a[i] - ma) * (b[i] - mb)
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

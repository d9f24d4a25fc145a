// Package stats provides the small statistical toolkit used by the
// simulator and the experiment harness: counters, ratios, bucketed
// histograms, means, and the paired-sample confidence intervals used to
// report speedups in the style of the paper's SMARTS-derived methodology.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Counter is a simple monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Ratio returns num/den, or 0 if den is zero.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Percent returns 100*num/den, or 0 if den is zero.
func Percent(num, den uint64) float64 { return 100 * Ratio(num, den) }

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs, or 0 for an empty slice.
// All inputs must be positive; non-positive values cause an error.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geomean of non-positive value %g", x)
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// StdDev returns the sample standard deviation of xs (n-1 denominator),
// or 0 when fewer than two samples are present.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Interval is a symmetric confidence interval around a point estimate.
type Interval struct {
	Mean float64
	Half float64 // half-width; the interval is [Mean-Half, Mean+Half]
}

// String formats the interval as "m ± h".
func (iv Interval) String() string {
	return fmt.Sprintf("%.3f ± %.3f", iv.Mean, iv.Half)
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool {
	return x >= iv.Mean-iv.Half && x <= iv.Mean+iv.Half
}

// tCritical95 returns the two-sided 95% critical value of Student's t
// distribution with df degrees of freedom. Values for small df are tabulated;
// larger df use the normal approximation 1.96. This is sufficient for the
// sampled-measurement reporting the paper performs (±5% targets).
func tCritical95(df int) float64 {
	table := []float64{
		0,                                                             // df = 0 (unused)
		12.706,                                                        // 1
		4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, // 2..10
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, // 11..20
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042, // 21..30
	}
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

// MeanCI95 returns the 95% confidence interval for the mean of xs.
func MeanCI95(xs []float64) Interval {
	n := len(xs)
	if n == 0 {
		return Interval{}
	}
	m := Mean(xs)
	if n == 1 {
		return Interval{Mean: m, Half: math.Inf(1)}
	}
	se := StdDev(xs) / math.Sqrt(float64(n))
	return Interval{Mean: m, Half: tCritical95(n-1) * se}
}

// PairedSpeedupCI95 computes the ratio-of-means speedup between paired
// base/enhanced measurements (performance metric per sample, e.g. user
// instructions per cycle per window), with a 95% confidence interval on the
// change derived from the per-pair ratios. This mirrors the paper's
// paired-measurement sampling: each sample window is measured under both
// configurations and the per-window ratios bound the speedup estimate.
func PairedSpeedupCI95(base, enhanced []float64) (Interval, error) {
	if len(base) != len(enhanced) {
		return Interval{}, fmt.Errorf("stats: paired samples length mismatch %d vs %d", len(base), len(enhanced))
	}
	if len(base) == 0 {
		return Interval{}, fmt.Errorf("stats: no samples")
	}
	ratios := make([]float64, len(base))
	for i := range base {
		if base[i] <= 0 {
			return Interval{}, fmt.Errorf("stats: non-positive base sample %g at %d", base[i], i)
		}
		ratios[i] = enhanced[i] / base[i]
	}
	iv := MeanCI95(ratios)
	// Point estimate from the ratio of aggregate means, which matches the
	// paper's aggregate-committed-instructions-per-cycle metric; the CI
	// half-width comes from the paired ratios.
	iv.Mean = Mean(enhanced) / Mean(base)
	return iv, nil
}

// Histogram is a bucketed histogram over non-negative integer values with
// caller-defined bucket upper bounds. A value v lands in the first bucket
// whose upper bound is >= v; values above the last bound land in the
// overflow bucket.
type Histogram struct {
	bounds []uint64 // ascending inclusive upper bounds
	counts []uint64 // len(bounds)+1, last is overflow
	total  uint64
}

// NewHistogram builds a histogram with the given ascending inclusive upper
// bounds. For example, bounds 1,3,7,15,23,31 produce the paper's Figure 5
// density buckets 1, 2–3, 4–7, 8–15, 16–23, 24–31, 32+ (overflow).
func NewHistogram(bounds ...uint64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("stats: histogram bounds not ascending at %d", i)
		}
	}
	return &Histogram{
		bounds: append([]uint64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}, nil
}

// MustHistogram is NewHistogram that panics on error.
func MustHistogram(bounds ...uint64) *Histogram {
	h, err := NewHistogram(bounds...)
	if err != nil {
		panic(err)
	}
	return h
}

// Observe adds weight w at value v.
func (h *Histogram) Observe(v, w uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i] += w
	h.total += w
}

// Buckets returns the number of buckets, including overflow.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Count returns the weight in bucket i.
func (h *Histogram) Count(i int) uint64 { return h.counts[i] }

// Total returns the total observed weight.
func (h *Histogram) Total() uint64 { return h.total }

// Fraction returns the share of total weight in bucket i (0 when empty).
func (h *Histogram) Fraction(i int) float64 { return Ratio(h.counts[i], h.total) }

// histogramJSON is the stable wire form of a Histogram. The total is
// derived from the counts on decode, so it cannot disagree with them.
type histogramJSON struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
}

// MarshalJSON implements json.Marshaler.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Bounds: h.bounds, Counts: h.counts})
}

// UnmarshalJSON implements json.Unmarshaler, validating the bucket shape
// through NewHistogram.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("stats: decoding histogram: %w", err)
	}
	nh, err := NewHistogram(w.Bounds...)
	if err != nil {
		return err
	}
	if len(w.Counts) != len(nh.counts) {
		return fmt.Errorf("stats: histogram has %d counts for %d bounds", len(w.Counts), len(w.Bounds))
	}
	copy(nh.counts, w.Counts)
	for _, c := range nh.counts {
		nh.total += c
	}
	*h = *nh
	return nil
}

// BucketLabel renders bucket i as a human-readable range, e.g. "2-3" or "32+".
func (h *Histogram) BucketLabel(i int) string {
	if i == len(h.bounds) {
		return fmt.Sprintf("%d+", h.bounds[len(h.bounds)-1]+1)
	}
	lo := uint64(0)
	if i > 0 {
		lo = h.bounds[i-1] + 1
	}
	if lo == h.bounds[i] {
		return fmt.Sprintf("%d", lo)
	}
	return fmt.Sprintf("%d-%d", lo, h.bounds[i])
}

package sim

// SMARTS-style sampled simulation (Wunderlich et al., ISCA'03), the
// methodology the paper's evaluation runs on: instead of simulating
// every record in detail, the run alternates three phases over the
// trace —
//
//   - cold gaps: records contribute nothing; on seekable sources
//     (in-memory replays, mmap'd v2 traces) they are skipped in O(1),
//     on generators they are produced and discarded,
//   - functional warming: a bounded prefix before each measurement
//     window in which the full model runs — caches, the directory and
//     the predictor tables (AGT/PHT/GHB/stride) train, and streams fill
//     the hierarchy — but statistics stay off,
//   - detailed windows: full simulation through Runner.Step, exactly as
//     exact mode runs it.
//
// Each fully-warm detailed window yields one sample per headline metric;
// the Result gains a Sampling block reporting mean ± Student's t
// confidence interval over the windows. Exact mode (zero SamplingConfig)
// is untouched and remains the golden reference.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SamplingConfig enables and shapes sampled simulation. The zero value
// disables it (exact mode). All counts are in trace records.
type SamplingConfig struct {
	// WindowRecords is the length of each detailed measurement window.
	// Zero disables sampling entirely.
	WindowRecords uint64
	// IntervalRecords is the sampling period: each interval ends with
	// one measurement window. Zero selects
	// DefaultSamplingIntervalFactor × WindowRecords.
	IntervalRecords uint64
	// WarmupRecords is the functional-warming run-up immediately before
	// each window. Zero selects DefaultSamplingWarmupFactor ×
	// WindowRecords; it is clamped at run time to the gap available
	// between consecutive windows.
	WarmupRecords uint64
	// Confidence is the two-sided confidence level of the reported
	// intervals, in (0, 1). Zero selects DefaultSamplingConfidence.
	Confidence float64
}

// Defaults for SamplingConfig fields left zero. The ratios follow the
// SMARTS recipe: warming a few windows' worth of records before each
// window, measuring a small fraction of the trace.
const (
	DefaultSamplingIntervalFactor = 50
	DefaultSamplingWarmupFactor   = 4
	DefaultSamplingConfidence     = 0.95
)

// Enabled reports whether the configuration turns sampling on.
func (s SamplingConfig) Enabled() bool { return s.WindowRecords > 0 }

// Canonical returns the configuration with every default resolved: the
// stable form hashed by the result store and exchanged over the smsd
// HTTP API. A disabled config normalizes to the zero value so every way
// of spelling "exact mode" hashes identically.
func (s SamplingConfig) Canonical() SamplingConfig {
	if !s.Enabled() {
		return SamplingConfig{}
	}
	if s.IntervalRecords == 0 {
		s.IntervalRecords = DefaultSamplingIntervalFactor * s.WindowRecords
	}
	if s.WarmupRecords == 0 {
		s.WarmupRecords = DefaultSamplingWarmupFactor * s.WindowRecords
	}
	if s.Confidence == 0 {
		s.Confidence = DefaultSamplingConfidence
	}
	return s
}

// Validate checks the resolved configuration for consistency.
func (s SamplingConfig) Validate() error {
	s = s.Canonical()
	if !s.Enabled() {
		return nil
	}
	if s.IntervalRecords < s.WindowRecords {
		return fmt.Errorf("sim: sampling interval (%d records) is shorter than the measurement window (%d records)", s.IntervalRecords, s.WindowRecords)
	}
	if s.Confidence <= 0 || s.Confidence >= 1 {
		return fmt.Errorf("sim: sampling confidence %g outside (0, 1)", s.Confidence)
	}
	return nil
}

// SamplingSummary is the Result block a sampled run produces.
type SamplingSummary struct {
	// Config is the resolved sampling configuration the run used.
	Config SamplingConfig
	// Windows counts the fully-warm, full-length measurement windows
	// that contributed samples. Windows truncated by the end of the
	// trace or overlapping the global warm-up prefix are simulated but
	// not sampled.
	Windows uint64
	// MeasuredRecords / WarmedRecords / SkippedRecords partition the
	// consumed trace into detailed, functionally-warmed and skipped
	// (or discarded) records; TotalRecords is their sum.
	MeasuredRecords uint64
	WarmedRecords   uint64
	SkippedRecords  uint64
	TotalRecords    uint64
	// Metrics holds mean ± CI per headline metric, in a fixed order.
	// Empty when fewer than two windows were sampled: one window bounds
	// nothing (the half-width would be infinite, which JSON cannot
	// carry).
	Metrics []SampledMetric `json:",omitempty"`
}

// SampledMetric is one per-window metric's distribution over the sampled
// windows.
type SampledMetric struct {
	// Name identifies the metric (see sampledMetricNames): per-window
	// rates such as "l1_read_misses_per_read".
	Name string
	// Mean is the mean of the per-window values; StdDev their sample
	// standard deviation; HalfWidth the two-sided Student's t
	// confidence half-width at Config.Confidence.
	Mean      float64
	StdDev    float64
	HalfWidth float64
}

// Interval returns the metric as a stats.Interval.
func (m SampledMetric) Interval() stats.Interval {
	return stats.Interval{Mean: m.Mean, Half: m.HalfWidth}
}

// Metric returns the named metric, if the summary carries it.
func (s *SamplingSummary) Metric(name string) (SampledMetric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return SampledMetric{}, false
}

// SimulatedFraction is the share of consumed records that ran through
// the simulator at all (detailed + warming): the work the sampled run
// could not skip, and so the inverse of its ideal speedup on seekable
// sources.
func (s *SamplingSummary) SimulatedFraction() float64 {
	if s.TotalRecords == 0 {
		return 0
	}
	return float64(s.MeasuredRecords+s.WarmedRecords) / float64(s.TotalRecords)
}

// The headline per-window metrics, in reporting order. Read-based rates
// use the paper's read-miss accounting; the last two are per-access.
var sampledMetricNames = [...]string{
	"l1_read_misses_per_read",
	"offchip_read_misses_per_read",
	"l1_covered_per_read",
	"offchip_covered_per_read",
	"overpredictions_per_read",
	"stream_requests_per_access",
	"offchip_blocks_per_access",
}

const numSampledMetrics = len(sampledMetricNames)

// sampleCounters is the subset of Result counters the window samples
// difference. All fields are monotonically increasing over a run.
type sampleCounters struct {
	accesses, reads                 uint64
	l1ReadMisses, offChipReadMisses uint64
	l1Covered, offChipCovered       uint64
	overpredictions, streamRequests uint64
	offChipBlocks                   uint64
}

func (r *Runner) currentSampleCounters() sampleCounters {
	res := &r.res
	return sampleCounters{
		accesses:          res.Accesses,
		reads:             res.Reads,
		l1ReadMisses:      res.L1ReadMisses,
		offChipReadMisses: res.OffChipReadMisses,
		l1Covered:         res.L1CoveredMisses,
		offChipCovered:    res.OffChipCoveredMisses,
		overpredictions:   res.Overpredictions,
		streamRequests:    res.StreamRequests,
		offChipBlocks:     res.OffChipBlocks,
	}
}

// metricVector turns one window's counter deltas into the per-window
// metric values, in sampledMetricNames order.
func metricVector(d sampleCounters) [numSampledMetrics]float64 {
	return [numSampledMetrics]float64{
		stats.Ratio(d.l1ReadMisses, d.reads),
		stats.Ratio(d.offChipReadMisses, d.reads),
		stats.Ratio(d.l1Covered, d.reads),
		stats.Ratio(d.offChipCovered, d.reads),
		stats.Ratio(d.overpredictions, d.reads),
		stats.Ratio(d.streamRequests, d.accesses),
		stats.Ratio(d.offChipBlocks, d.accesses),
	}
}

func (c sampleCounters) sub(prev sampleCounters) sampleCounters {
	return sampleCounters{
		accesses:          c.accesses - prev.accesses,
		reads:             c.reads - prev.reads,
		l1ReadMisses:      c.l1ReadMisses - prev.l1ReadMisses,
		offChipReadMisses: c.offChipReadMisses - prev.offChipReadMisses,
		l1Covered:         c.l1Covered - prev.l1Covered,
		offChipCovered:    c.offChipCovered - prev.offChipCovered,
		overpredictions:   c.overpredictions - prev.overpredictions,
		streamRequests:    c.streamRequests - prev.streamRequests,
		offChipBlocks:     c.offChipBlocks - prev.offChipBlocks,
	}
}

// sampledState accumulates window samples with Welford's streaming
// mean/variance, so a run with millions of windows allocates nothing
// per window.
type sampledState struct {
	cfg    SamplingConfig // resolved
	warmup uint64         // effective per-window warming, clamped to the gap

	measured, warmed, skipped uint64

	snap         sampleCounters // counters at the current window's start
	snapValid    bool
	snapEligible bool // window is fully past the global warm-up prefix

	n    uint64 // sampled windows
	mean [numSampledMetrics]float64
	m2   [numSampledMetrics]float64
}

func newSampledState(sc SamplingConfig) *sampledState {
	sc = sc.Canonical()
	w := sc.WarmupRecords
	if gap := sc.IntervalRecords - sc.WindowRecords; w > gap {
		w = gap
	}
	return &sampledState{cfg: sc, warmup: w}
}

func (st *sampledState) push(v [numSampledMetrics]float64) {
	st.n++
	for i, x := range v {
		delta := x - st.mean[i]
		st.mean[i] += delta / float64(st.n)
		st.m2[i] += delta * (x - st.mean[i])
	}
}

// summary renders the accumulated samples. Metrics are emitted only with
// two or more windows: a single sample has no finite interval.
func (st *sampledState) summary() *SamplingSummary {
	s := &SamplingSummary{
		Config:          st.cfg,
		Windows:         st.n,
		MeasuredRecords: st.measured,
		WarmedRecords:   st.warmed,
		SkippedRecords:  st.skipped,
		TotalRecords:    st.measured + st.warmed + st.skipped,
	}
	if st.n < 2 {
		return s
	}
	tcrit := stats.TCritical(st.cfg.Confidence, int(st.n-1))
	sqrtN := math.Sqrt(float64(st.n))
	for i, name := range sampledMetricNames {
		sd := math.Sqrt(st.m2[i] / float64(st.n-1))
		s.Metrics = append(s.Metrics, SampledMetric{
			Name:      name,
			Mean:      st.mean[i],
			StdDev:    sd,
			HalfWidth: tcrit * sd / sqrtN,
		})
	}
	return s
}

// advanceCounted moves the consumed-record position forward without
// simulating, keeping the flip-once warm flag in sync with Step's
// convention (warm once counted exceeds WarmupAccesses).
func (r *Runner) advanceCounted(n uint64) {
	r.counted += n
	if !r.warm && r.counted > r.cfg.WarmupAccesses {
		r.warm = true
	}
}

// warmStep functionally warms one record: the full model runs — caches,
// directory and predictor tables see the access exactly as in detailed
// mode, and trained streams still fill the hierarchy — but no statistics
// are collected (it is exact mode's own pre-warm-up behavior, applied
// mid-run). Streams must keep flowing here: discarding them would start
// every measurement window with a streamed-block population of zero,
// which biases prefetcher miss rates by 25-60% in practice — far beyond
// what any confidence interval can absorb.
func (r *Runner) warmStep(rec trace.Record) {
	r.warming = true
	r.Step(rec)
	r.warming = false
}

// runSampled is the sampled-mode consumer: the phase switch. Positions
// are tracked relative to the start of the source (pos = counted -
// base), so the window schedule is per-source and a Runner can be fed
// several sources in sequence, exactly like exact mode.
//
// The phase layout within each interval of IntervalRecords is
//
//	[ cold gap | functional warming | detailed window ]
//
// with the window flush against the interval's end. The degenerate
// configuration WindowRecords == IntervalRecords == trace length
// therefore runs every record through Step, reproducing the exact-mode
// Result byte for byte (minus the Sampling block).
// ph receives gap/warm/window phase transitions (nil-safe): one Enter
// per batch, so the per-record loops stay untouched.
func (r *Runner) runSampled(ctx context.Context, d *drain, ph *obs.PhaseTracker) error {
	st := r.sampled
	st.snapValid = false
	window, interval := st.cfg.WindowRecords, st.cfg.IntervalRecords
	warmup := st.warmup
	seeker, canSeek := d.src.(trace.Seeker)

	base := r.counted
	for eof := false; !eof; {
		pos := r.counted - base
		k := pos / interval
		intervalEnd := (k + 1) * interval
		windowStart := intervalEnd - window
		warmStart := windowStart - warmup

		switch {
		case pos < warmStart:
			// Cold gap: skip on seekable sources, stream-and-discard on
			// generators.
			ph.Enter("gap")
			if canSeek {
				target := warmStart
				if total := seeker.Records(); target >= total {
					target = total
					eof = true
				}
				if err := seeker.Seek(target); err != nil {
					return fmt.Errorf("sim: seeking trace source: %w", err)
				}
				st.skipped += target - pos
				r.advanceCounted(target - pos)
			} else {
				batch := d.next(warmStart - pos)
				if len(batch) == 0 {
					eof = true
					break
				}
				st.skipped += uint64(len(batch))
				r.advanceCounted(uint64(len(batch)))
			}

		case pos < windowStart:
			// Functional warming. warmStep advances r.counted itself.
			ph.Enter("warm")
			batch := d.next(windowStart - pos)
			if len(batch) == 0 {
				eof = true
				break
			}
			for i := range batch {
				r.warmStep(batch[i])
			}
			st.warmed += uint64(len(batch))

		default:
			// Measurement window [windowStart, intervalEnd). Windows that
			// end inside the global warm-up prefix could never contribute
			// statistics (every record would be pre-warm), so they are
			// demoted to warming.
			demoted := base+intervalEnd <= r.cfg.WarmupAccesses
			if demoted {
				ph.Enter("warm")
			} else {
				ph.Enter("window")
			}
			if pos == windowStart && !demoted {
				st.snap = r.currentSampleCounters()
				st.snapValid = true
				st.snapEligible = base+windowStart >= r.cfg.WarmupAccesses
			}
			batch := d.next(intervalEnd - pos)
			if len(batch) == 0 {
				eof = true
				break
			}
			if demoted {
				for i := range batch {
					r.warmStep(batch[i])
				}
				st.warmed += uint64(len(batch))
			} else {
				for i := range batch {
					r.Step(batch[i])
				}
				st.measured += uint64(len(batch))
			}
			if r.counted-base == intervalEnd && st.snapValid {
				st.snapValid = false
				if st.snapEligible {
					st.push(metricVector(r.currentSampleCounters().sub(st.snap)))
				}
			}
		}

		if err := d.pace(ctx); err != nil {
			return err
		}
	}
	return nil
}

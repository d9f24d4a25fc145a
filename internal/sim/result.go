package sim

import (
	"repro/internal/core"
	"repro/internal/ghb"
	"repro/internal/sectored"
	"repro/internal/stats"
)

// Result is the outcome of one simulation run (post-warm-up unless noted).
type Result struct {
	// Accesses/Reads/Writes count demand accesses.
	Accesses, Reads, Writes uint64

	// L1ReadMisses counts demand read misses at L1; OffChipReadMisses
	// those that also missed L2 (off-chip). Write misses analogous.
	L1ReadMisses       uint64
	OffChipReadMisses  uint64
	L1WriteMisses      uint64
	OffChipWriteMisses uint64

	// CoherenceReadMisses counts off-chip read misses caused by remote
	// writes; FalseSharingReadMisses the subset where the interim
	// writes touched only other 64 B sub-units.
	CoherenceReadMisses    uint64
	FalseSharingReadMisses uint64

	// L1CoveredMisses counts read accesses that hit a streamed-but-
	// unused L1 block (would-be L1 misses eliminated by the
	// prefetcher); OffChipCoveredMisses those whose stream fill came
	// from off-chip (would-be off-chip misses eliminated).
	L1CoveredMisses      uint64
	OffChipCoveredMisses uint64

	// StreamRequests counts prefetches applied to the memory system;
	// Overpredictions streamed blocks evicted/invalidated unused.
	StreamRequests  uint64
	Overpredictions uint64

	// OffChipBlocks counts coherence-unit transfers from memory: demand
	// fills that missed L2, prefetch fills sourced off-chip, and dirty
	// L2 writebacks. Multiplied by the block size it is the paper's
	// §4.1 bandwidth-utilization metric (large blocks transfer unused
	// data; SMS transfers only predicted 64 B blocks).
	OffChipBlocks uint64

	// DensityL1/DensityL2 are the Fig. 5 histograms: misses attributed
	// to the density of the generation they occurred in.
	DensityL1, DensityL2 *stats.Histogram
	// OracleGenerationsL1/L2 count generations with at least one miss:
	// the Fig. 4 "opportunity" oracle takes exactly one miss each.
	OracleGenerationsL1, OracleGenerationsL2 uint64

	// Windows are the per-window samples for the timing model.
	Windows []Window

	// SMSStats/GHBStats/LSStats are per-CPU predictor internals.
	SMSStats []core.Stats
	GHBStats []ghb.Stats
	LSStats  []sectored.Stats

	// PrefetcherStats holds per-CPU internals of registry schemes that
	// have no dedicated field above (e.g. stride, nextline), in CPU
	// order; the concrete type is whatever the engine's Stats returns.
	// After a result-store round trip the entries decode as generic JSON
	// (map[string]any with float64 numbers), so consumers must not
	// type-assert the original structs on stored results.
	PrefetcherStats []any

	// Sampling summarizes the per-window samples of a SMARTS-style
	// sampled run (mean ± Student's t confidence interval per headline
	// metric). It is nil for exact runs, so exact-mode Result JSON — and
	// the golden hashes pinned over it — is unchanged by sampled mode
	// existing.
	Sampling *SamplingSummary `json:",omitempty"`
}

// Instructions returns the committed-instruction count covered by the
// measured (post-warm-up) part of the run, derived from window samples
// when present.
func (r *Result) Instructions() uint64 {
	var n uint64
	for _, w := range r.Windows {
		n += w.Instructions
	}
	return n
}

// Coverage summarizes prefetcher effectiveness at one level against a
// baseline run, in the paper's three-way breakdown. The paper measures
// coverage "by comparing the miss rate of each implementation against a
// baseline traditional cache" (§4.3), so coverage is the fraction of
// baseline misses *eliminated*: pollution and conflict misses added by
// the variant reduce coverage by raising the uncovered share.
type Coverage struct {
	// Covered is the fraction of baseline misses eliminated:
	// max(0, 1 - Uncovered).
	Covered float64
	// Uncovered is the fraction of baseline misses remaining (variant
	// demand misses / baseline misses). Values above 1 mean the
	// variant added misses (e.g. DS conflicts, pollution).
	Uncovered float64
	// Overpredicted is the ratio of dead prefetches to baseline misses.
	Overpredicted float64
}

// CoverageFrom derives the paper-style breakdown from raw counts.
func CoverageFrom(variantMisses, deadPrefetches, baseMisses uint64) Coverage {
	unc := stats.Ratio(variantMisses, baseMisses)
	cov := 1 - unc
	if cov < 0 {
		cov = 0
	}
	if baseMisses == 0 {
		cov = 0
	}
	return Coverage{
		Covered:       cov,
		Uncovered:     unc,
		Overpredicted: stats.Ratio(deadPrefetches, baseMisses),
	}
}

// L1Coverage computes the Fig. 6/8-style L1 read-miss breakdown of run r
// measured against baseline base.
func (r *Result) L1Coverage(base *Result) Coverage {
	return CoverageFrom(r.L1ReadMisses, r.Overpredictions, base.L1ReadMisses)
}

// OffChipCoverage computes the Fig. 11-style off-chip read-miss breakdown.
func (r *Result) OffChipCoverage(base *Result) Coverage {
	return CoverageFrom(r.OffChipReadMisses, r.Overpredictions, base.OffChipReadMisses)
}

// OffChipBytes returns off-chip traffic in bytes for the given coherence
// unit size.
func (r *Result) OffChipBytes(blockSize int) uint64 {
	return r.OffChipBlocks * uint64(blockSize)
}

// BandwidthOverhead returns the ratio of this run's off-chip bytes to the
// baseline's (>1 means extra traffic: bigger blocks or dead prefetches).
func (r *Result) BandwidthOverhead(base *Result, blockSize, baseBlockSize int) float64 {
	baseBytes := base.OffChipBytes(baseBlockSize)
	if baseBytes == 0 {
		return 0
	}
	return float64(r.OffChipBytes(blockSize)) / float64(baseBytes)
}

// L1MissesPerAccess returns read misses per read access.
func (r *Result) L1MissesPerAccess() float64 { return stats.Ratio(r.L1ReadMisses, r.Reads) }

// OffChipMissesPerAccess returns off-chip read misses per read access.
func (r *Result) OffChipMissesPerAccess() float64 { return stats.Ratio(r.OffChipReadMisses, r.Reads) }

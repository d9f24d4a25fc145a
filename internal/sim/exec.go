package sim

import (
	"context"
	"math/bits"
	"sync"

	"repro/internal/trace"
)

// Exec tunes how a run executes — intra-run parallelism. It is pure
// mechanism: an Exec never changes a single output byte, never enters
// Config, and therefore never perturbs the canonical run identity the
// result store hashes. Two runs differing only in Exec produce
// bit-identical Results under the same store key.
type Exec struct {
	// Lanes, when >= 2, shards the run across that many parallel
	// simulation lanes keyed by spatial region (rounded down to a power
	// of two and clamped to the geometry's safe maximum). Configurations
	// whose per-record effects cross lanes — any attached prefetcher
	// (global PC-indexed training tables), the timing model's
	// instruction windows — are detected up front and replayed serially
	// instead (counted in PipelineStats.ConflictReplays). 0 or 1 keeps
	// the run on one lane.
	Lanes int
}

// SetExec installs execution tuning for subsequent RunContext calls. It
// must be set before the run starts. Sampled runs (Config.Sampling)
// ignore Exec entirely: their windows are globally ordered.
func (r *Runner) SetExec(x Exec) { r.exec = x }

// PipelineStats describes how the last RunContext actually executed:
// the lane count it settled on, conflict replays, and per-lane record
// totals. Every RunContext call resets it.
type PipelineStats struct {
	// Lanes is the effective lane count after clamping (1 = serial).
	Lanes int
	// ConflictReplays counts runs that asked for lanes but were replayed
	// serially because the configuration's per-record effects cross
	// lanes (prefetcher training state, instruction windows). Detection
	// is up front — such configurations conflict on essentially every
	// record, so the whole run is the replay unit.
	ConflictReplays uint64
	// LaneRecords is the number of records each lane simulated.
	LaneRecords []uint64
}

// Occupancy returns how evenly the lanes were loaded, as a percentage:
// 100 means perfectly balanced, lower means the slowest lane dominated.
// It is total records over lanes×max-lane-records; 0 when no lane ran.
func (p PipelineStats) Occupancy() float64 {
	if p.Lanes <= 1 || len(p.LaneRecords) == 0 {
		return 0
	}
	var total, max uint64
	for _, n := range p.LaneRecords {
		total += n
		if n > max {
			max = n
		}
	}
	if max == 0 {
		return 0
	}
	return 100 * float64(total) / (float64(len(p.LaneRecords)) * float64(max))
}

// PipelineStats returns how the last RunContext executed.
func (r *Runner) PipelineStats() PipelineStats { return r.pstats }

// shardable reports whether this run's per-record effects stay within a
// region-keyed lane, making deterministic intra-run parallelism exact.
//
// The argument, level by level:
//
//   - Cache evictions: a fill's victim shares the filling address's set,
//     and lanes are chosen so the lane key is a function of the set index
//     (see maxLanes), so victims stay in-lane.
//   - Invalidations and directory state: per block; a block lies inside
//     one region, and regions map wholly to one lane.
//   - Generation trackers: keyed by region tag — in-lane by construction.
//   - LRU clocks are per-cache counters, but victim selection compares
//     stamps only within a set, and a lane receives its sets' accesses in
//     the exact global order, so relative stamp order — the only thing
//     that matters — is preserved.
//   - Result counters and histogram buckets are commutative sums, so the
//     fixed lane-order merge equals global-record-order accumulation.
//
// What breaks it: any attached prefetcher (per-CPU training tables are
// indexed by PC, shared across all regions — every record conflicts) and
// the timing model's instruction windows (globally ordered). Sampled
// mode never reaches here (laneCount routes it to one lane first).
func (r *Runner) shardable() bool {
	return r.pf == nil && !r.hasWindows
}

// maxLanes returns the largest power-of-two lane count for which the
// region-keyed lane assignment is a function of every cache level's set
// index — the condition that keeps evictions in-lane. With lane key
// (addr >> regionBits) & (lanes-1), the lane bits span
// [regionBits, regionBits+laneBits); they must lie inside each level's
// set-index bits [blockBits, blockBits+setBits).
func (r *Runner) maxLanes() int {
	regionBits := bits.TrailingZeros64(uint64(r.cfg.Geometry.RegionSize()))
	lim := 6 // cap at 64 lanes
	for _, cc := range [...]struct{ blockSize, sets int }{
		{r.cfg.Coherence.L1.BlockSize, r.cfg.Coherence.L1.Sets()},
		{r.cfg.Coherence.L2.BlockSize, r.cfg.Coherence.L2.Sets()},
	} {
		if cc.blockSize <= 0 || cc.sets <= 0 {
			return 1
		}
		blockBits := bits.TrailingZeros64(uint64(cc.blockSize))
		setBits := bits.TrailingZeros64(uint64(cc.sets))
		if regionBits < blockBits {
			return 1
		}
		if m := blockBits + setBits - regionBits; m < lim {
			lim = m
		}
	}
	if lim <= 0 {
		return 1
	}
	return 1 << lim
}

// laneCount resolves the effective lane count for this run, recording a
// conflict replay when lanes were requested but the configuration is not
// shardable. Sampled runs always take one lane.
func (r *Runner) laneCount() int {
	want := r.exec.Lanes
	if want <= 1 || r.sampled != nil {
		return 1
	}
	if !r.shardable() {
		r.pstats.ConflictReplays++
		return 1
	}
	max := r.maxLanes()
	if want > max {
		want = max
	}
	// Round down to a power of two: the lane key is a bit mask.
	lanes := 1 << (bits.Len(uint(want)) - 1)
	if lanes < 1 {
		lanes = 1
	}
	return lanes
}

// laneBatchRecords is the hand-off granularity between the fan-out and a
// simulation lane. Large enough to amortize channel operations to well
// under a nanosecond per record, small enough that per-lane buffering
// stays in the hundreds of kilobytes.
const laneBatchRecords = 4096

// laneDepth is how many filled batches may queue ahead of each lane.
const laneDepth = 2

// laneBatch is one ordered slice of a lane's record subsequence. The
// first NWarm records fall inside the run's global warm-up prefix: the
// fan-out computes the boundary from the global record index, so lanes
// collect statistics for exactly the records the serial path would.
type laneBatch struct {
	recs  []trace.Record
	nWarm int
}

// runParallel is the lane fan-out consumer: it executes the run across
// `lanes` region-sharded lanes and returns the lane runners for
// mergeLanes once the drain has passed its end check.
//
// Ownership: the fan-out owns one fill buffer per lane; filled batches
// travel to the lane through a bounded ring and come back through a free
// ring once fully simulated, so no buffer is ever written on one side
// while read on the other.
//
// Determinism: every lane receives a deterministic subsequence of the
// trace in global order, each lane runner is seeded identically to a
// serial runner, and the merge folds lane results in fixed lane order —
// so the output is a pure function of (config, trace), independent of
// goroutine scheduling. See shardable for why the per-lane simulations
// compose exactly.
func (r *Runner) runParallel(ctx context.Context, d *drain, lanes int) ([]*Runner, error) {
	r.pstats.Lanes = lanes
	r.pstats.LaneRecords = make([]uint64, lanes)

	// Lane runners: identical configuration, but warm from record zero —
	// the fan-out replays the global warm-up boundary through the
	// warming flag (collecting() == warm && !warming), which is exactly
	// how sampled functional warming already keeps stats off.
	laneCfg := r.cfg
	laneCfg.WarmupAccesses = 0
	runners := make([]*Runner, lanes)
	for i := range runners {
		lr, err := NewRunner(laneCfg)
		if err != nil {
			return nil, err
		}
		runners[i] = lr
	}

	in := make([]chan laneBatch, lanes)
	free := make([]chan []trace.Record, lanes)
	for i := range in {
		in[i] = make(chan laneBatch, laneDepth)
		free[i] = make(chan []trace.Record, laneDepth+1)
		for j := 0; j < laneDepth+1; j++ {
			free[i] <- make([]trace.Record, 0, laneBatchRecords)
		}
	}

	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			rn := runners[l]
			for b := range in[l] {
				rn.warming = true
				for i := 0; i < b.nWarm; i++ {
					rn.Step(b.recs[i])
				}
				rn.warming = false
				for i := b.nWarm; i < len(b.recs); i++ {
					rn.Step(b.recs[i])
				}
				free[l] <- b.recs[:0]
			}
		}(l)
	}

	regionBits := uint(bits.TrailingZeros64(uint64(r.cfg.Geometry.RegionSize())))
	mask := uint64(lanes - 1)
	warmup := r.cfg.WarmupAccesses

	cur := make([][]trace.Record, lanes)
	curWarm := make([]int, lanes)
	for l := range cur {
		cur[l] = <-free[l]
	}
	flush := func(l int) {
		in[l] <- laneBatch{recs: cur[l], nWarm: curWarm[l]}
		curWarm[l] = 0
		cur[l] = <-free[l]
	}

	var err error
	for err == nil {
		batch := d.next(d.size)
		if len(batch) == 0 {
			break
		}
		if r.counted >= warmup {
			// Whole batch is past the warm-up prefix (the steady state):
			// the boundary comparison leaves the per-record loop.
			for i := range batch {
				rec := batch[i]
				l := int((uint64(rec.Addr) >> regionBits) & mask)
				cur[l] = append(cur[l], rec)
				if len(cur[l]) == laneBatchRecords {
					flush(l)
				}
			}
			r.counted += uint64(len(batch))
		} else {
			for i := range batch {
				rec := batch[i]
				l := int((uint64(rec.Addr) >> regionBits) & mask)
				cur[l] = append(cur[l], rec)
				r.counted++
				if r.counted <= warmup {
					curWarm[l]++
				}
				if len(cur[l]) == laneBatchRecords {
					flush(l)
				}
			}
		}
		err = d.pace(ctx)
	}
	if err == nil {
		for l := range cur {
			if len(cur[l]) > 0 {
				flush(l)
			}
		}
	}
	for l := range in {
		close(in[l])
	}
	wg.Wait()
	return runners, err
}

// mergeLanes folds the lane runners into r in fixed lane order. Lane
// finish() flushes open generations; every accumulated field is a
// commutative sum, so lane order only needs to be deterministic, which
// 0..lanes-1 is.
func (r *Runner) mergeLanes(runners []*Runner) error {
	for l, rn := range runners {
		rn.finish()
		r.pstats.LaneRecords[l] = rn.counted
		if err := r.res.accumulate(&rn.res); err != nil {
			return err
		}
	}
	return nil
}

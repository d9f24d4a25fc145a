package sim

import (
	"context"
	"fmt"

	"repro/internal/trace"
)

// drain is how a run consumes its source, shared by the serial loop and
// the sampled phase switch: batch sizing, the zero-copy view versus copy
// choice, progress/cancellation pacing and the end-of-run checks.
type drain struct {
	r   *Runner
	src trace.Source

	// view is the source's NextView for sources that hand out batches in
	// a buffer of their own: engine trace memo replays unpack into one,
	// mmap'd v2 replays decode into one, in-memory slices alias their
	// records. It is nil for every other source, whose batches are
	// copied through bs into r.batch.
	view func(max int) []trace.Record
	bs   trace.BatchSource

	size  uint64 // records per batch, never above every
	every uint64 // progress and cancellation interval
	due   uint64 // r.counted at which the next pace step fires
}

// newDrain resolves the batch size and progress interval and makes the
// view-versus-copy choice for src once.
func (r *Runner) newDrain(src trace.Source) drain {
	every := r.progressEvery
	if every == 0 {
		every = DefaultProgressInterval
	}
	size := uint64(DefaultBatchRecords)
	if size > every {
		size = every
	}
	d := drain{r: r, src: src, size: size, every: every, due: r.counted + every}
	if v, ok := src.(trace.ViewSource); ok {
		d.view = v.NextView
		return d
	}
	if uint64(len(r.batch)) != size {
		r.batch = make([]trace.Record, size)
	}
	d.bs = trace.Batched(src)
	return d
}

// next returns the next batch, at most max records (and never more than
// the batch size). An empty batch means the source is exhausted.
func (d *drain) next(max uint64) []trace.Record {
	if max > d.size {
		max = d.size
	}
	if d.view != nil {
		return d.view(int(max))
	}
	return d.r.batch[:d.bs.NextBatch(d.r.batch[:max])]
}

// pace fires the progress callback and checks for cancellation once the
// run has consumed another progress interval of records, so a cancelled
// run returns within one interval.
func (d *drain) pace(ctx context.Context) error {
	r := d.r
	if r.counted < d.due {
		return nil
	}
	d.due = r.counted + d.every
	if r.onProgress != nil {
		r.onProgress(r.counted)
	}
	return ctx.Err()
}

// end is the check every completed drain passes before its Result is
// built. Erring sources (trace.Reader, the v2 readers) report exhaustion
// on a decode failure exactly like a clean EOF; surfacing the latched
// error here keeps a truncated or corrupt trace — e.g. a damaged
// disk-tier artifact — from quietly producing (and persisting) a Result
// over a partial record stream.
func (d *drain) end(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if e, ok := d.src.(interface{ Err() error }); ok {
		if err := e.Err(); err != nil {
			return fmt.Errorf("sim: trace source failed mid-stream: %w", err)
		}
	}
	return nil
}

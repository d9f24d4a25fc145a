package engine

import (
	"context"
	"io"
	"sync"
	"time"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The engine serves every run's trace, and every custom cell's, through
// a two-level cache:
//
//  1. An in-memory memo (traceCache): the generated record slice, keyed
//     by workload name. Every run an engine executes uses the same
//     workload.Config, so all variants of one workload in a grid consume
//     byte-identical record sequences; generating once and replaying
//     from memory removes the generator (and its random-number stream)
//     from all but the first run. The memo is byte-bounded, and entries
//     are single-flight: concurrent workers requesting the same workload
//     block until the first finishes generating. An entry lives only
//     while a queued or running cell of its workload holds it
//     (hold/release): grids run their cells workload by workload
//     (admission.go), so a figure holds two or three traces at a time.
//     Reuse across grids and bare runs is the store's job: with one
//     attached, a later run replays the disk tier; without one, it
//     generates the trace again.
//
//  2. A disk tier (with a store attached): generated traces are written
//     through as content-addressed v2 files (store.ForTrace — workload
//     name + canonical generation config) and replayed by mmap
//     (trace.MappedSource) on any later miss of the memo — including in
//     a fresh process, so a warm store means TraceGenerations == 0
//     across restarts. Replay is zero-copy: blocks decode straight from
//     the mapping into a per-run reused buffer. Each replaying run maps
//     the artifact itself and unmaps it when the run ends, so a
//     long-lived engine holds no mapping between runs.
//
// Traces longer than the memo budget always stream from the generator
// (so production-scale runs never bloat the daemon) but still replay
// from the disk tier when a v2 artifact exists — bulk captures made
// with `smstrace gen -store` mmap-replay at any size, which is how a
// grid scales past RAM.
//
// Trace-file workloads (workload.External, the trace: family) are
// already file replays; they bypass both levels.
type traceCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[string]*traceEntry
	order   []string
	// holders counts each workload's queued and running cells: the last
	// release drops the workload's entry. Allocated by the first hold.
	holders map[string]int
}

type traceEntry struct {
	done chan struct{}
	recs []trace.Record
	size int64
	ok   bool // false: generation failed to fit or was abandoned
}

// recordBytes is the in-memory footprint of one trace.Record.
const recordBytes = int64(unsafe.Sizeof(trace.Record{}))

// DefaultTraceCacheBytes bounds the engine's in-memory trace memo: room
// for a handful of default-length (2M-record) traces.
const DefaultTraceCacheBytes = 256 << 20

func newTraceCache(budget int64) *traceCache {
	return &traceCache{budget: budget, entries: make(map[string]*traceEntry)}
}

// hold registers a queued cell that will read name's trace.
func (tc *traceCache) hold(name string) {
	if tc == nil {
		return
	}
	tc.mu.Lock()
	if tc.holders == nil {
		tc.holders = make(map[string]int)
	}
	tc.holders[name]++
	tc.mu.Unlock()
}

// release settles one holder of name's trace. The last one drops the
// completed memo entry; an in-flight generation is left alone.
func (tc *traceCache) release(name string) {
	if tc == nil {
		return
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.holders[name]--; tc.holders[name] > 0 {
		return
	}
	delete(tc.holders, name)
	ent, ok := tc.entries[name]
	if !ok {
		return
	}
	select {
	case <-ent.done:
	default:
		return
	}
	delete(tc.entries, name)
	tc.used -= ent.size
	for i, n := range tc.order {
		if n == name {
			tc.order = append(tc.order[:i], tc.order[i+1:]...)
			break
		}
	}
}

// lookup reports the memo's state for name: a completed entry to
// replay, or an in-flight generation the caller should join (via
// generate) instead of probing the disk tier — probing while the
// leader generates would count one logical miss once per worker.
func (tc *traceCache) lookup(name string) (ent *traceEntry, completed, inflight bool) {
	if tc == nil {
		return nil, false, false
	}
	tc.mu.Lock()
	ent, ok := tc.entries[name]
	tc.mu.Unlock()
	if !ok {
		return nil, false, false
	}
	select {
	case <-ent.done:
		return ent, ent.ok, false
	default:
		return nil, false, true
	}
}

// fits reports whether a trace of the given record count is admissible.
func (tc *traceCache) fits(length uint64) bool {
	return tc != nil && length <= uint64(tc.budget/recordBytes)
}

// traceSource returns a trace source for the workload of one run, and
// whether this call ran the generator itself (for the engine's
// generation counter): memory memo, then disk tier, then generate.
func (e *Engine) traceSource(w workload.Workload) (trace.Source, bool) {
	cfg := e.cfg.Workload
	if w.External {
		// The trace: family replays a file already; caching it would
		// only copy an mmap into memory.
		return w.Make(cfg), false
	}

	ent, completed, inflight := e.traces.lookup(w.Name)
	if completed {
		return trace.NewSliceSource(ent.recs), false
	}
	if !inflight {
		if src, ok := e.tierSource(w); ok {
			return src, false
		}
	}
	if !e.traces.fits(cfg.Canonical().Length) {
		// Too long to capture in memory: stream straight from the
		// generator. (Bulk captures enter the disk tier via
		// `smstrace gen -store`, not through the engine.)
		return w.Make(cfg), true
	}
	return e.generate(w, cfg)
}

// tierKey is the disk-tier content address of the engine's workload
// config under the given workload name.
func (e *Engine) tierKey(name string) string {
	return store.ForTrace(name, e.cfg.Workload)
}

// tierSource maps the trace artifact for w and returns a zero-copy
// replay stream that owns the mapping: closing it unmaps the file.
func (e *Engine) tierSource(w workload.Workload) (trace.Source, bool) {
	st := e.cfg.Store
	if st == nil {
		return nil, false
	}
	f, ok := st.OpenTrace(e.tierKey(w.Name))
	if ok && f.Info().CPUs != e.cfg.Workload.Canonical().CPUs {
		// The decoder bounds each record's CPU by the header's count;
		// only the run's own count keeps per-CPU state in range.
		_ = f.Close()
		ok = false
	}
	if !ok {
		e.tierMisses.Add(1)
		return nil, false
	}
	e.tierHits.Add(1)
	return f.NewOwnedSource(), true
}

// openTrace resolves the trace of one cell (traceSource), counts a
// generation when it ran the generator, and records the span. The caller
// closes the source (closeSource) once the cell is done with it.
func (e *Engine) openTrace(ctx context.Context, w workload.Workload) trace.Source {
	t0 := time.Now()
	src, generated := e.traceSource(w)
	tr := obs.TracerFrom(ctx)
	if generated {
		e.generations.Add(1)
		tr.Add("trace-generate", "engine", obs.TrackFrom(ctx), t0, time.Now())
	} else {
		// Memo/mmap replay: the source opens here in O(1); decode time
		// lands inside the run span (and the sim phase spans).
		tr.Add("trace-open", "engine", obs.TrackFrom(ctx), t0, time.Now())
	}
	return src
}

// closeSource releases what a cell's trace source holds: the mapping of
// a disk-tier replay. Memo and generator sources hold nothing.
func closeSource(src trace.Source) {
	if c, ok := src.(io.Closer); ok {
		_ = c.Close()
	}
}

// generate runs the workload generator under the memo's single-flight
// lock, captures the trace in memory, and writes it through to the disk
// tier (best effort) so later processes replay instead of regenerating.
func (e *Engine) generate(w workload.Workload, cfg workload.Config) (trace.Source, bool) {
	tc := e.traces
	tc.mu.Lock()
	if ent, ok := tc.entries[w.Name]; ok {
		tc.mu.Unlock()
		<-ent.done
		if ent.ok {
			return trace.NewSliceSource(ent.recs), false
		}
		return w.Make(cfg), true
	}
	ent := &traceEntry{done: make(chan struct{})}
	tc.entries[w.Name] = ent
	tc.mu.Unlock()

	// If the generator panics, drop the entry and release followers (who
	// see ok=false and generate for themselves) before propagating.
	released := false
	defer func() {
		if !ent.ok {
			tc.mu.Lock()
			delete(tc.entries, w.Name)
			tc.mu.Unlock()
		}
		if !released {
			close(ent.done)
		}
	}()

	length := cfg.Canonical().Length
	recs := make([]trace.Record, length)
	src := trace.Batched(w.Make(cfg))
	total := 0
	for total < len(recs) {
		// The BatchSource contract allows short non-zero reads; only a
		// zero return means exhaustion.
		n := src.NextBatch(recs[total:])
		if n == 0 {
			break
		}
		total += n
	}
	ent.recs = recs[:total]
	ent.size = int64(total) * recordBytes
	ent.ok = true
	// Release the singleflight followers before the disk write-through:
	// the tier write can take seconds on slow storage, and their runs
	// only need the in-memory records (which are immutable from here).
	released = true
	close(ent.done)

	tc.mu.Lock()
	tc.used += ent.size
	tc.order = append(tc.order, w.Name)
	for tc.used > tc.budget && len(tc.order) > 1 {
		oldest := tc.order[0]
		tc.order = tc.order[1:]
		if old, ok := tc.entries[oldest]; ok && old != ent {
			tc.used -= old.size
			delete(tc.entries, oldest)
		}
	}
	tc.mu.Unlock()

	e.persistTrace(w.Name, ent.recs)
	return trace.NewSliceSource(ent.recs), true
}

// persistTrace writes a freshly generated trace into the disk tier. The
// tier is a cache: failures are ignored — the worst outcome is a
// regeneration in some later process.
func (e *Engine) persistTrace(name string, recs []trace.Record) {
	st := e.cfg.Store
	if st == nil {
		return
	}
	key := e.tierKey(name)
	if st.HasTrace(key) {
		return
	}
	hdr := trace.Header{
		CPUs:     e.cfg.Workload.Canonical().CPUs,
		Geometry: mem.DefaultGeometry(),
		Workload: name,
	}
	_ = st.PutTraceRecords(key, hdr, recs)
}

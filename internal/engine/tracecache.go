package engine

import (
	"context"
	"io"
	"sync"
	"time"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The engine serves every run's trace, and every custom cell's, through
// a two-level cache:
//
//  1. An in-memory memo (traceCache): the generated trace, packed at 16
//     bytes a record (trace.Packed), keyed by workload name. Every run an
//     engine executes uses the same workload.Config, so all variants of
//     one workload in a grid consume byte-identical record sequences;
//     generating once and replaying from memory removes the generator
//     (and its random-number stream) from all but the first run. Entries
//     are single-flight: concurrent workers requesting the same workload
//     block until the first finishes generating. An entry lives only
//     while a queued or running cell of its workload, or a bare run,
//     holds it (hold/release): grids run their cells workload by
//     workload (admission.go), so a figure holds few traces at a time.
//     Reuse across grids and bare runs is the store's job: with one
//     attached, a later run replays the disk tier; without one, it
//     generates the trace again.
//
//     A released trace's arrays are not left to the garbage collector:
//     the last release keeps them as the memo's spare, and the next
//     generation packs into them (trace.PackInto). No source reads the
//     spare, because its workload has no holder left. The spare is
//     dropped once no workload is held, so an idle engine holds no
//     trace.
//
//     The memo's byte budget is hard. A generation reserves its trace's
//     packed size before it starts and gets it back when the last holder
//     releases the workload; a trace that would not fit beside the traces
//     already reserved streams from the generator instead, and so does a
//     trace that does not pack (a PC of 2^32 or more, a Seq step of 2^16
//     or more). Such runs still replay from the disk tier when a v2
//     artifact exists — bulk captures made with `smstrace gen -store`
//     mmap-replay at any size, which is how a grid scales past RAM.
//
//  2. A disk tier (with a store attached): generated traces are written
//     through as content-addressed v2 files (store.ForTrace — workload
//     name + canonical generation config), streamed from the packed
//     trace, and replayed by mmap (trace.MappedSource) on any later miss
//     of the memo — including in a fresh process, so a warm store means
//     TraceGenerations == 0 across restarts. Replay is zero-copy: blocks
//     decode straight from the mapping into a per-run reused buffer.
//     Each replaying run maps the artifact itself and unmaps it when the
//     run ends, so a long-lived engine holds no mapping between runs.
//
// Trace-file workloads (workload.External, the trace: family) are
// already file replays; they bypass both levels.
type traceCache struct {
	mu       sync.Mutex
	budget   int64
	reserved int64 // packed bytes of the entries, generated or in flight
	// entries holds each workload's packed trace, or its generation in
	// flight. Allocated by the first generate.
	entries map[string]*traceEntry
	// holders counts each workload's queued and running cells: the last
	// release drops the workload's entry. Allocated by the first hold.
	holders map[string]int
	// spare is the trace the last release dropped, for the next
	// generation to pack into; nil while no workload is held.
	spare *trace.Packed
}

type traceEntry struct {
	done   chan struct{}
	packed *trace.Packed // nil: generation failed or did not pack
	size   int64         // bytes reserved for the trace
}

// traceMemoBytes bounds every engine's in-memory trace memo: room for
// eight default-length (2M-record) traces, or one of 16M records.
const traceMemoBytes = 256 << 20

// hold registers a queued cell that will read name's trace.
func (tc *traceCache) hold(name string) {
	tc.mu.Lock()
	if tc.holders == nil {
		tc.holders = make(map[string]int)
	}
	tc.holders[name]++
	tc.mu.Unlock()
}

// release settles one holder of name's trace. The last one drops the
// completed memo entry, gives its bytes back and keeps its trace as the
// spare while other workloads are held; an entry still generating is
// dropped by generate when it completes.
func (tc *traceCache) release(name string) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.holders[name]--; tc.holders[name] > 0 {
		return
	}
	delete(tc.holders, name)
	if len(tc.holders) == 0 {
		tc.spare = nil
	}
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
	tc.reserved -= ent.size
	if len(tc.holders) > 0 {
		tc.spare = ent.packed
	}
}

// lookup reports the memo's state for name: a completed entry to
// replay, or an in-flight generation the caller should join (via
// generate) instead of probing the disk tier — probing while the
// leader generates would count one logical miss once per worker.
// Completed entries always hold a packed trace: a failed generation
// leaves the memo before it completes.
func (tc *traceCache) lookup(name string) (ent *traceEntry, inflight bool) {
	tc.mu.Lock()
	ent, ok := tc.entries[name]
	tc.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-ent.done:
		return ent, false
	default:
		return nil, true
	}
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

	ent, inflight := e.traces.lookup(w.Name)
	if ent != nil {
		return ent.packed.NewSource(), false
	}
	if !inflight {
		if src, ok := e.tierSource(w); ok {
			return src, false
		}
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
// lock, packs the trace in memory within the memo's budget (into the
// spare's arrays when there is one), and writes it through to the disk
// tier (best effort) so later processes replay instead of regenerating.
// A trace that does not fit beside the traces already reserved, or does
// not pack, streams from the generator.
func (e *Engine) generate(w workload.Workload, cfg workload.Config) (trace.Source, bool) {
	tc := &e.traces
	length := cfg.Canonical().Length
	size := trace.PackedBytes(length)
	tc.mu.Lock()
	if ent, ok := tc.entries[w.Name]; ok {
		tc.mu.Unlock()
		<-ent.done
		if ent.packed != nil {
			return ent.packed.NewSource(), false
		}
		return w.Make(cfg), true
	}
	if tc.reserved+size > tc.budget {
		tc.mu.Unlock()
		return w.Make(cfg), true
	}
	ent := &traceEntry{done: make(chan struct{}), size: size}
	if tc.entries == nil {
		tc.entries = make(map[string]*traceEntry)
	}
	tc.entries[w.Name] = ent
	tc.reserved += size
	spare := tc.spare
	tc.spare = nil
	tc.mu.Unlock()

	// Followers are released before the disk write-through, which can
	// take seconds on slow storage while their runs need only the packed
	// records, immutable from here. The deferred completion runs even if
	// the generator panics, so no follower waits forever.
	var p *trace.Packed
	func() {
		defer func() { tc.complete(w.Name, ent, p) }()
		p, _ = trace.PackInto(spare, w.Make(cfg), length)
	}()
	if p == nil {
		return w.Make(cfg), true
	}
	e.persistTrace(w.Name, p)
	return p.NewSource(), true
}

// complete publishes a generation's trace (nil if it failed or did not
// pack) and releases its followers. A failed generation, or one whose
// last holder left meanwhile, leaves the memo and gives its bytes back;
// followers already waiting still replay a trace that packed.
func (tc *traceCache) complete(name string, ent *traceEntry, p *trace.Packed) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	ent.packed = p
	if p == nil || tc.holders[name] == 0 {
		delete(tc.entries, name)
		tc.reserved -= ent.size
	}
	close(ent.done)
}

// persistTrace writes a freshly generated trace into the disk tier,
// streaming it from the packed records. The tier is a cache: failures
// are ignored — the worst outcome is a regeneration in some later
// process.
func (e *Engine) persistTrace(name string, p *trace.Packed) {
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
	_ = st.PutTrace(key, hdr, p.NewSource())
}

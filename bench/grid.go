package main

import (
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// gridRecorder times a figure grid from outside the engine, through the
// event sink: when each cell starts and settles, and how fast its records
// go by between progress events.
type gridRecorder struct {
	chunk uint64

	mu     sync.Mutex
	begin  time.Time
	cells  map[string]*cellClock
	order  []*cellClock
	chunks []float64 // host ns/record per chunk of a running cell
}

// cellClock is one executed cell's timeline.
type cellClock struct {
	workload, variant string
	started, settled  time.Time
	progress          chunkClock
	seen              bool // a progress event has set the chunk mark
}

func newGridRecorder(chunk uint64) *gridRecorder {
	return &gridRecorder{chunk: chunk, cells: map[string]*cellClock{}}
}

// start marks the moment the grid is submitted; queue waits count from it.
func (g *gridRecorder) start() {
	g.mu.Lock()
	g.begin = time.Now()
	g.mu.Unlock()
}

// sink is the engine event sink. Chunks start at a cell's first progress
// event, not at RunStarted, because the engine generates or opens the
// cell's trace between the two.
func (g *gridRecorder) sink(ev engine.Event) {
	now := time.Now()
	id := ev.Workload + "/" + ev.Variant + "/" + ev.Key
	g.mu.Lock()
	defer g.mu.Unlock()
	switch ev.Kind {
	case engine.RunStarted:
		c := &cellClock{workload: ev.Workload, variant: ev.Variant, started: now}
		c.progress.every = g.chunk
		g.cells[id] = c
		g.order = append(g.order, c)
	case engine.RunProgress:
		c := g.cells[id]
		if c == nil {
			return
		}
		if !c.seen {
			c.progress.mark(now, ev.Records)
			c.seen = true
			return
		}
		n := len(c.progress.ns)
		c.progress.progress(ev.Records)
		g.chunks = append(g.chunks, c.progress.ns[n:]...)
	case engine.RunFinished, engine.RunFailed:
		if c := g.cells[id]; c != nil {
			c.settled = now
		}
	}
}

// gridStats summarizes one executed grid.
type gridStats struct {
	cells                   int
	busyFrac                float64
	cellP50, cellMax        float64
	drainTail, queueWaitP50 float64
	customS                 float64
}

// stats reduces the recorded timelines; wall is the grid's wall time and
// parallel its worker count. customVariant names the custom cells.
func (g *gridRecorder) stats(wall float64, parallel int, customVariant string) gridStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	var durs, waits []float64
	var lastStart, lastSettle time.Time
	var st gridStats
	for _, c := range g.order {
		if c.settled.IsZero() {
			continue
		}
		d := c.settled.Sub(c.started).Seconds()
		durs = append(durs, d)
		waits = append(waits, c.started.Sub(g.begin).Seconds())
		if c.variant == customVariant {
			st.customS += d
		}
		if c.started.After(lastStart) {
			lastStart = c.started
		}
		if c.settled.After(lastSettle) {
			lastSettle = c.settled
		}
	}
	st.cells = len(durs)
	st.busyFrac = ratio(sum(durs), wall*float64(parallel))
	st.cellP50 = median(durs)
	st.cellMax = maxOf(durs)
	if st.cells > 0 {
		st.drainTail = lastSettle.Sub(lastStart).Seconds()
	}
	st.queueWaitP50 = median(waits)
	return st
}

// addSpans records one span per executed cell in the run's trace.
func (g *gridRecorder) addSpans(t *obs.Tracer) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range g.order {
		if !c.settled.IsZero() {
			t.Add("cell "+c.variant, "bench", "cell "+c.workload+"/"+c.variant, c.started, c.settled)
		}
	}
}

package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

func runFig8Exact(r *run) error   { return r.fig8(false) }
func runFig8Sampled(r *run) error { return r.fig8(true) }

// fig8Options is the session the figure workloads run: what `smsexp fig8`
// (or `smsexp -sample fig8`) runs at the scale's length, on nproc workers.
func fig8Options(seed int64, sc scale, nproc int, sampled bool) exp.Options {
	o := exp.Options{CPUs: 4, Seed: seed, Length: sc.fig8Len, Parallel: nproc}
	if sampled {
		o.Length = sc.sampledLen
		o.Sampling = exp.SampledConfig(o)
	}
	return o
}

// fig8Rep is one timed figure regeneration and what it left behind.
type fig8Rep struct {
	time        repTime
	err         error
	grid        gridStats
	chunks      []float64
	rows        []exp.Fig8Row
	render      string
	cells       map[string]*sim.Result // standard cells by "workload/variant"
	generations uint64
	memoHits    uint64
	store       store.Stats
	tracer      *obs.Tracer
}

// fig8Cell is one standard (non-custom) cell of the figure's plan, keyed
// "workload/variant".
type fig8Cell struct {
	key, workload string
	cfg           sim.Config
}

// fig8Cells lists the figure's standard cells as the session executes
// them.
func fig8Cells(o exp.Options) []fig8Cell {
	plan := engine.Sampled(exp.Fig8Plan(o), o.Sampling)
	var cells []fig8Cell
	for _, name := range plan.Workloads {
		for _, v := range plan.Variants {
			cells = append(cells, fig8Cell{key: name + "/" + v.Key, workload: name, cfg: v.Config})
		}
	}
	return cells
}

// fig8Rep regenerates the figure once on a fresh session. What is timed
// is opening the fresh store directory, when there is one, then Fig8 plus
// Render.
func (r *run) fig8Rep(i int, o exp.Options, withStore bool) fig8Rep {
	var out fig8Rep
	ctx, tr := r.repContext(i)
	out.tracer = tr

	s := exp.NewSession(o)
	var st *store.Store
	rec := newGridRecorder(r.sc.chunk)
	ctx = engine.WithEventSink(ctx, rec.sink)
	var res *exp.Fig8Result
	start := time.Now()
	out.time, out.err = timeRep(func() error {
		if withStore {
			var err error
			if st, err = store.Open(filepath.Join(r.work, fmt.Sprintf("store-%d", i))); err != nil {
				return err
			}
			s.SetStore(st)
		}
		rec.start()
		var err error
		if res, err = exp.Fig8(ctx, s); err == nil {
			out.render = res.Render()
		}
		return err
	})
	r.span(repName(tr), "bench", start)
	if out.err != nil {
		return out
	}
	out.grid = rec.stats(out.time.wall, o.Parallel, string(exp.TrainDS))
	out.chunks = rec.chunks
	out.rows = res.Rows
	out.generations = s.Engine().TraceGenerations()
	out.memoHits = s.Engine().MemoHits()
	if st != nil {
		out.store = st.Stats()
	}
	out.cells = map[string]*sim.Result{}
	for _, c := range fig8Cells(s.Options()) {
		if res, ok := s.CachedRun(c.workload, c.cfg); ok {
			out.cells[c.key] = res
		}
	}
	if tr != nil {
		rec.addSpans(r.tracer)
		r.absorb(tr)
	}
	return out
}

// fig8Reference simulates every standard cell of the exact figure
// directly — a Runner per cell over the workload generator, no engine,
// no trace memo — on nproc goroutines, and returns each cell's Result
// digest: the independent path the engine's cells must reproduce.
func fig8Reference(ctx context.Context, o exp.Options, nproc int) (map[string]string, error) {
	cells := fig8Cells(o)
	out := make(map[string]string, len(cells))
	var mu sync.Mutex
	var firstErr error
	jobs := make(chan fig8Cell)
	var wg sync.WaitGroup
	for i := 0; i < nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				sha, err := referenceCell(ctx, o, c.workload, c.cfg)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference cell %s: %w", c.key, err)
				}
				out[c.key] = sha
				mu.Unlock()
			}
		}()
	}
	for _, c := range cells {
		jobs <- c
	}
	close(jobs)
	wg.Wait()
	return out, firstErr
}

func referenceCell(ctx context.Context, o exp.Options, name string, cfg sim.Config) (string, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return "", err
	}
	cfg.WarmupAccesses = o.Length / 2
	runner, err := sim.NewRunner(cfg)
	if err != nil {
		return "", err
	}
	res, err := runner.RunContext(ctx, w.Make(workload.Config{CPUs: o.CPUs, Seed: o.Seed, Length: o.Length}))
	if err != nil {
		return "", err
	}
	return digest(res)
}

// exactRows regenerates the exact figure at o's length: the reference the
// sampled rows are held to.
func exactRows(ctx context.Context, o exp.Options) ([]exp.Fig8Row, error) {
	o.Sampling = sim.SamplingConfig{}
	res, err := exp.Fig8(ctx, exp.NewSession(o))
	if err != nil {
		return nil, fmt.Errorf("exact reference figure: %w", err)
	}
	return res.Rows, nil
}

func fig8Pin(sampled bool) func(ctx context.Context, seed int64, sc scale) (workloadPin, error) {
	return func(ctx context.Context, seed int64, sc scale) (workloadPin, error) {
		nproc := runtime.NumCPU()
		o := fig8Options(seed, sc, nproc, sampled)
		if sampled {
			rows, err := exactRows(ctx, o)
			return workloadPin{Length: o.Length, Rows: rows}, err
		}
		cells, err := fig8Reference(ctx, o, nproc)
		if err != nil {
			return workloadPin{}, err
		}
		res, err := exp.Fig8(ctx, exp.NewSession(o))
		if err != nil {
			return workloadPin{}, err
		}
		cells["render"] = digestString(res.Render())
		return workloadPin{Length: o.Length, SHA256: cells}, nil
	}
}

// fig8 runs a figure workload: timed reps on fresh sessions, then the
// reference outputs and the checks of every rep against them.
func (r *run) fig8(sampled bool) error {
	o := fig8Options(r.seed, r.sc, r.nproc, sampled)
	if err := r.checkPinScale(o.Length); err != nil {
		return err
	}
	setups := fig8Setups(o, r.sc.fig8Setups)
	var reps []fig8Rep
	var peak float64
	err := repeat(r.budget, r.sc.minReps, func(i int) error {
		reps = append(reps, r.fig8Rep(i, o, sampled))
		if i == r.sc.minReps-1 {
			peak = peakRSSMB()
		}
		return nil
	})
	if err != nil {
		return err
	}

	if sampled {
		err = r.checkSampled(o, reps)
	} else {
		err = r.checkExact(o, reps)
	}
	if err != nil {
		return err
	}

	var untraced, traced []repTime
	var chunks []float64
	for _, rep := range reps {
		if rep.err != nil {
			continue
		}
		if rep.tracer == nil {
			untraced = append(untraced, rep.time)
			chunks = append(chunks, rep.chunks...)
		} else {
			traced = append(traced, rep.time)
		}
	}
	if !r.traced {
		r.endToEnd(untraced, setups, chunks, peak)
		return nil
	}
	r.chunkTail(chunks)
	r.overhead(untraced, traced)
	r.fig8Layers(reps)
	return r.fig8Ladder(o, sampled)
}

// fig8Setups returns n samples of the time building one session takes.
// A session takes well under a microsecond to build, so each sample times
// a batch of them back to back, which also amortizes the clock reads. The
// sampled workload opens its store inside the timed rep instead: on a
// disk still discarding the blocks of an earlier run's deleted traces, a
// directory creation can take a hundred times its usual tens of
// microseconds, which would swamp the set-up time's median.
func fig8Setups(o exp.Options, n int) []float64 {
	const batch = 256
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			exp.NewSession(o)
		}
		out = append(out, time.Since(t0).Seconds()/batch)
	}
	return out
}

// checkExact holds every rep's cells to the independent reference (and
// the pin), and every rep's rendered figure to the first rep's (and the
// pin). The custom DS cells have no Result to compare; the rendered
// figure carries their rows.
func (r *run) checkExact(o exp.Options, reps []fig8Rep) error {
	t0 := time.Now()
	ref, err := fig8Reference(r.ctx, o, r.nproc)
	if err != nil {
		return err
	}
	r.span("reference cells", "bench", t0)
	cells := fig8Cells(o)
	customs := len(exp.WorkloadNames())
	first := ""
	for i, rep := range reps {
		if rep.err != nil {
			for j := 0; j < len(cells)+customs+1; j++ {
				r.rep.check(false, "rep %d: %v", i, rep.err)
			}
			continue
		}
		for _, c := range cells {
			sha, err := cellDigest(rep.cells[c.key])
			if err != nil {
				return err
			}
			r.rep.check(sha == ref[c.key] && r.expect(c.key, sha),
				"rep %d cell %s Result %s, reference %s, pin %s", i, c.key, sha, ref[c.key], r.pinned(c.key))
		}
		// The DS cells ran; their rows are checked through the rendered
		// figure.
		r.rep.attempted += customs
		sha := digestString(rep.render)
		if first == "" {
			first = sha
		}
		r.rep.check(sha == first && r.expect("render", sha),
			"rep %d rendered figure %s, first rep %s, pin %s", i, sha, first, r.pinned("render"))
	}
	return nil
}

// checkSampled holds every rep's sampled cells to the first rep's
// (sampling is deterministic too), requires each to carry a sampling
// summary with at least two windows, and holds the AGT, LS and NL rows
// to the exact figure within the scale's tolerance. DS rows are left out:
// the DS study counts every post-warm-up miss while the sampled baseline
// counts only in-window misses, so sampled DS rows are off by design.
func (r *run) checkSampled(o exp.Options, reps []fig8Rep) error {
	var exact []exp.Fig8Row
	if r.pin != nil {
		exact = r.pin.Rows
	} else {
		t0 := time.Now()
		var err error
		if exact, err = exactRows(r.ctx, o); err != nil {
			return err
		}
		r.span("reference figure", "bench", t0)
	}
	cells := fig8Cells(o)
	customs := len(exp.WorkloadNames())
	rows := 0
	for _, row := range exact {
		if row.Train != exp.TrainDS {
			rows++
		}
	}
	firstCells := map[string]string{}
	firstRender := ""
	for i, rep := range reps {
		if rep.err != nil {
			for j := 0; j < len(cells)+customs+rows+1; j++ {
				r.rep.check(false, "rep %d: %v", i, rep.err)
			}
			continue
		}
		for _, c := range cells {
			res := rep.cells[c.key]
			sha, err := cellDigest(res)
			if err != nil {
				return err
			}
			if _, ok := firstCells[c.key]; !ok {
				firstCells[c.key] = sha
			}
			ok := res != nil && res.Sampling != nil && res.Sampling.Windows >= 2
			r.rep.check(ok && sha == firstCells[c.key], "rep %d sampled cell %s: digest %s, first rep %s, summary %+v",
				i, c.key, sha, firstCells[c.key], samplingOf(res))
		}
		r.rep.attempted += customs
		if len(rep.rows) != len(exact) {
			return fmt.Errorf("sampled figure has %d rows, exact %d", len(rep.rows), len(exact))
		}
		for j, row := range rep.rows {
			if row.Train == exp.TrainDS {
				continue
			}
			off := rowOffPP(row, exact[j])
			same := row.Group == exact[j].Group && row.Train == exact[j].Train
			r.rep.check(same && off <= r.sc.rowTolPP, "rep %d row %s/%s is %.2f pp off exact row %s/%s (tolerance %.2f)",
				i, row.Group, row.Train, off, exact[j].Group, exact[j].Train, r.sc.rowTolPP)
		}
		sha := digestString(rep.render)
		if firstRender == "" {
			firstRender = sha
		}
		r.rep.check(sha == firstRender, "rep %d rendered figure %s, first rep %s", i, sha, firstRender)
	}

	if r.traced && len(reps) > 0 && reps[0].err == nil {
		var worst float64
		dsOff := 0
		for j, row := range reps[0].rows {
			off := rowOffPP(row, exact[j])
			if row.Train == exp.TrainDS {
				if off > r.sc.rowTolPP {
					dsOff++
				}
				continue
			}
			worst = math.Max(worst, off)
		}
		r.rep.set("exp.sampled_err_pp", worst)
		r.rep.set("exp.sampled_ds_rows_off", float64(dsOff))
		var measured, total uint64
		for _, res := range reps[0].cells {
			if s := samplingOf(res); s != nil {
				measured += s.MeasuredRecords
				total += s.TotalRecords
			}
		}
		r.rep.set("sim.measured_frac", ratio(float64(measured), float64(total)))
	}
	return nil
}

func samplingOf(res *sim.Result) *sim.SamplingSummary {
	if res == nil {
		return nil
	}
	return res.Sampling
}

// cellDigest is a cell Result's digest, "missing" for a cell the session
// could not serve.
func cellDigest(res *sim.Result) (string, error) {
	if res == nil {
		return "missing", nil
	}
	return digest(res)
}

// rowOffPP is the larger of a row's coverage and uncovered distances
// from the reference row, in percentage points.
func rowOffPP(got, want exp.Fig8Row) float64 {
	return 100 * math.Max(math.Abs(got.Coverage.Covered-want.Coverage.Covered),
		math.Abs(got.Coverage.Uncovered-want.Coverage.Uncovered))
}

// fig8Layers records the per-layer metrics of the traced reps: medians
// over those reps of the engine's event timelines, the obs phase spans
// and the store's counters.
func (r *run) fig8Layers(reps []fig8Rep) {
	perRep := map[string][]float64{}
	add := func(name string, v float64) { perRep[name] = append(perRep[name], v) }
	for _, rep := range reps {
		if rep.tracer == nil || rep.err != nil {
			continue
		}
		tr := rep.tracer
		add("trace.generate_s", phaseSeconds(tr, "trace-generate"))
		add("trace.generations", float64(rep.generations))
		add("trace.open_s", phaseSeconds(tr, "trace-open"))
		add("sim.warm_s", phaseSeconds(tr, "warm"))
		add("sim.window_s", phaseSeconds(tr, "window"))
		add("sim.gap_s", phaseSeconds(tr, "gap"))
		add("engine.cells", float64(rep.grid.cells))
		add("engine.memo_hits", float64(rep.memoHits))
		add("engine.busy_frac", rep.grid.busyFrac)
		add("engine.cell_p50_s", rep.grid.cellP50)
		add("engine.cell_max_s", rep.grid.cellMax)
		add("engine.drain_tail_s", rep.grid.drainTail)
		add("engine.queue_wait_p50_s", rep.grid.queueWaitP50)
		add("exp.custom_s", rep.grid.customS)
		add("store.put_s", phaseSeconds(tr, "store-put"))
		add("store.writes", float64(rep.store.Writes))
		add("store.bytes_written", float64(rep.store.BytesWritten))
		add("store.trace_writes", float64(rep.store.TraceWrites))
		add("store.trace_bytes_written", float64(rep.store.TraceBytesWritten))
	}
	for name, vs := range perRep {
		r.rep.set(name, median(vs))
	}
}

// fig8Ladder climbs the layer ladder on the oltp-oracle corpus with the
// figure's own prefetcher configurations, replayed from memory like the
// exact figure's trace memo, or from a store's trace tier like the
// sampled figure's cold-store runs.
func (r *run) fig8Ladder(o exp.Options, sampled bool) error {
	const generator = "oltp-oracle"
	wcfg := workload.Config{CPUs: o.CPUs, Seed: o.Seed, Length: r.sc.ladderLen}
	var source func() trace.Source
	if sampled {
		f, err := storeTrace(filepath.Join(r.work, "ladder-store"), generator, wcfg)
		if err != nil {
			return err
		}
		defer f.Close()
		source = func() trace.Source { return f.NewSource() }
	} else {
		in, err := singleSpec{generator: generator}.buildInput(wcfg, "")
		if err != nil {
			return err
		}
		source = in.source
	}
	exactPlan := exp.Fig8Plan(o)
	warm := r.sc.ladderLen / 2
	base := exactPlan.Variants[0].Config // the baseline variant
	base.WarmupAccesses = warm
	_, err := r.ladder(corpus{
		source:  source,
		records: r.sc.ladderLen,
		base:    base,
		variant: func(name string) sim.Config {
			for _, v := range exactPlan.Variants {
				if v.Config.PrefetcherName == name {
					c := v.Config
					c.WarmupAccesses = warm
					return c
				}
			}
			c := base
			c.PrefetcherName = name
			return c
		},
	})
	return err
}

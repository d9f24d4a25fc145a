// Package engine is the grid-native execution engine behind the
// experiment harness and the smsd daemon. Every result in the paper is a
// grid — workloads × configurations — so the engine makes the grid the
// first-class unit of work: a declarative Plan compiles into a
// deduplicated set of runs executed over a bounded worker pool, with
// store-backed memoization, streamed lifecycle events, and cancellation
// that propagates into the inner simulation loop (sim.Runner.RunContext).
//
// Layering: sim executes one run; engine executes grids of runs; exp
// declares the paper's figures as Plans over an engine; server turns
// HTTP jobs into cancellable engine executions.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// Config parameterizes an Engine.
type Config struct {
	// Workload is the trace-generation configuration every run uses
	// (CPUs, seed, length). Length zero selects the workload package
	// default. It is passed to the generators exactly as given — the
	// experiment harness's calibrated numbers depend on the raw form —
	// while store hashing uses its canonical form (store.ForRun).
	Workload workload.Config
	// Warmup is the number of leading accesses excluded from statistics.
	// Zero selects the paper's convention: half the trace. It overwrites
	// WarmupAccesses on every executed config, so plans need not (and
	// cannot) vary it.
	Warmup uint64
	// Parallel bounds concurrently executing simulations across all
	// plans and bare runs (0 = GOMAXPROCS). Execute takes a grid's
	// cells in the order admission.go describes.
	Parallel int
	// Store optionally persists results across processes. Completed runs
	// are written through; cancelled or failed runs never touch it.
	Store *store.Store
	// ProgressInterval is the record count between progress events and
	// cancellation checks inside a run (0 = sim.DefaultProgressInterval).
	ProgressInterval uint64
}

// Engine executes simulation runs and plans with memoization: any run
// whose canonical identity was already executed — by this engine or, with
// a store attached, by any earlier process — is served without
// simulating. Concurrent requests for the same run are single-flighted:
// exactly one simulation happens and every caller receives its result.
type Engine struct {
	cfg    Config
	sem    chan struct{}
	sched  CellScheduler   // where cells execute; localScheduler by default
	fault  *fault.Injector // chaos injector; nil in production
	traces traceCache      // the in-memory trace memo (tracecache.go)

	mu    sync.Mutex
	memo  map[string]*entry
	order []string // completed memo keys in insertion order, for eviction

	sims        atomic.Uint64
	customs     atomic.Uint64
	storeHits   atomic.Uint64
	memoHits    atomic.Uint64
	cancelled   atomic.Uint64
	generations atomic.Uint64
	tierHits    atomic.Uint64
	tierMisses  atomic.Uint64
}

// entry is one memoized (possibly in-flight) run; followers block on done.
type entry struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// maxMemoized bounds the in-memory result cache. A figure grid needs a
// few hundred distinct runs, so no figure regeneration ever evicts its
// own working set; the bound only matters to a long-running smsd serving
// unbounded distinct configurations, where evicted results remain a
// store read away.
const maxMemoized = 4096

// New builds an engine. The zero Config is usable: workload defaults,
// half-trace warm-up, GOMAXPROCS parallelism, no store.
func New(cfg Config) *Engine {
	if cfg.Warmup == 0 {
		cfg.Warmup = cfg.Workload.Canonical().Length / 2
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.Parallel),
		traces: traceCache{budget: traceMemoBytes},
		memo:   make(map[string]*entry),
	}
	e.sched = localScheduler{e}
	return e
}

// Config returns the engine's resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetFault installs a fault injector on the engine's scheduling site
// (engine.schedule). Like SetScheduler, call it before the engine runs
// anything.
func (e *Engine) SetFault(f *fault.Injector) { e.fault = f }

// Store returns the attached store (nil when none).
func (e *Engine) Store() *store.Store { return e.cfg.Store }

// Simulations returns how many simulations this engine actually executed
// — memoization and store hits excluded. It is the "did we really
// resimulate?" probe used by tests and the smsd metrics endpoint.
func (e *Engine) Simulations() uint64 { return e.sims.Load() }

// StoreHits returns how many runs were served from the persistent store.
func (e *Engine) StoreHits() uint64 { return e.storeHits.Load() }

// MemoHits returns how many runs were served from (or coalesced into)
// this engine's in-memory memoization layer.
func (e *Engine) MemoHits() uint64 { return e.memoHits.Load() }

// TraceGenerations returns how many times a workload generator actually
// ran; runs replayed from the trace memo or the disk trace tier do not
// count. With the memo enabled, a grid of N variants over one workload
// generates once — and with a store attached, a workload whose trace
// artifact is already stored generates zero times, even in a fresh
// process.
func (e *Engine) TraceGenerations() uint64 { return e.generations.Load() }

// TraceTierHits returns how many runs replayed an mmap'd trace artifact
// from the store's disk tier.
func (e *Engine) TraceTierHits() uint64 { return e.tierHits.Load() }

// TraceTierMisses returns how many disk-tier probes found no artifact.
func (e *Engine) TraceTierMisses() uint64 { return e.tierMisses.Load() }

// CancelledRuns returns how many started simulations were cancelled
// mid-run.
func (e *Engine) CancelledRuns() uint64 { return e.cancelled.Load() }

// CustomRuns returns how many custom plan cells this engine executed
// (they are simulations too, just not store-memoized ones).
func (e *Engine) CustomRuns() uint64 { return e.customs.Load() }

// resolve applies the engine's run conventions to a plan/config:
// warm-up is always the engine's, never the caller's.
func (e *Engine) resolve(cfg sim.Config) sim.Config {
	cfg.WarmupAccesses = e.cfg.Warmup
	return cfg
}

// Key returns the store content address the engine uses for (workload,
// cfg) — the memoization identity. The smsd daemon keys job dedup and
// responses on this, so it cannot diverge from what the engine persists.
func (e *Engine) Key(workloadName string, cfg sim.Config) string {
	return store.ForRun(workloadName, e.cfg.Workload, e.resolve(cfg))
}

// CheckCPUs refuses a run whose memory system has fewer CPUs than the
// engine's workload configuration issues accesses from: the simulator
// keeps per-CPU state for the memory system's count and indexes it with
// each record's CPU. Run and Execute apply it before anything starts.
func (e *Engine) CheckCPUs(cfg sim.Config) error {
	sys, want := cfg.Canonical().Coherence.CPUs, e.cfg.Workload.Canonical().CPUs
	if sys < want {
		return fmt.Errorf("engine: the memory system has %d CPUs, fewer than the workload's %d", sys, want)
	}
	return nil
}

// Cached reports a run already available without simulating — memoized
// in this engine or one store read away. The probe is cheap and does not
// count toward store miss statistics.
func (e *Engine) Cached(workloadName string, cfg sim.Config) (*sim.Result, bool) {
	key := e.Key(workloadName, cfg)
	e.mu.Lock()
	if ent, ok := e.memo[key]; ok {
		select {
		case <-ent.done:
			if ent.err == nil {
				e.mu.Unlock()
				return ent.res, true
			}
		default:
		}
	}
	e.mu.Unlock()
	if e.cfg.Store == nil {
		return nil, false
	}
	return e.cfg.Store.ProbeResult(key)
}

// Run executes one simulation, memoized: a run with the same canonical
// identity is simulated at most once per engine (and, with a store, at
// most once ever). Events are delivered to the sink attached to ctx.
func (e *Engine) Run(ctx context.Context, workloadName string, cfg sim.Config) (*sim.Result, error) {
	if err := e.CheckCPUs(cfg); err != nil {
		return nil, err
	}
	cfg = e.resolve(cfg)
	key := store.ForRun(workloadName, e.cfg.Workload, cfg)
	sink := eventSink(ctx)
	emit := func(ev Event) {
		ev.Workload = workloadName
		ev.Key = key
		sink(ev)
	}
	e.traces.hold(workloadName)
	defer e.traces.release(workloadName)
	return e.run(ctx, workloadName, cfg, key, emit)
}

// isCtxErr reports whether err is a cancellation/deadline error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// run is the memoizing single-flight core. cfg must be resolved and key
// must be its store address.
func (e *Engine) run(ctx context.Context, workloadName string, cfg sim.Config, key string, emit func(Event)) (*sim.Result, error) {
	for {
		e.mu.Lock()
		if ent, ok := e.memo[key]; ok {
			e.mu.Unlock()
			e.memoHits.Add(1)
			select {
			case <-ent.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if ent.err == nil {
				emit(Event{Kind: RunCached})
				return ent.res, nil
			}
			if !isCtxErr(ent.err) {
				return nil, ent.err
			}
			// The owner was cancelled, not the run itself; retry under
			// our own context (it may still be live).
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			continue
		}
		ent := &entry{done: make(chan struct{})}
		e.memo[key] = ent
		e.mu.Unlock()

		ent.res, ent.err = e.simulate(ctx, workloadName, cfg, key, emit)
		e.mu.Lock()
		if ent.err != nil {
			// Never memoize failure: a cancelled owner must not poison
			// later callers, and real errors should re-surface fresh.
			delete(e.memo, key)
		} else {
			e.order = append(e.order, key)
			for len(e.order) > maxMemoized {
				oldest := e.order[0]
				e.order = e.order[1:]
				delete(e.memo, oldest)
			}
		}
		e.mu.Unlock()
		close(ent.done)
		return ent.res, ent.err
	}
}

// simulate performs the store lookup and, on a miss, hands the cell to
// the scheduler (the local pool by default, a cluster coordinator when
// one is installed). The settling events and store write-through happen
// here, above the scheduler, so every placement policy shares them.
func (e *Engine) simulate(ctx context.Context, workloadName string, cfg sim.Config, key string, emit func(Event)) (*sim.Result, error) {
	tr := obs.TracerFrom(ctx)
	// Each run gets its own trace row: workload/prefetcher plus a key
	// prefix, so concurrent runs don't interleave on one Chrome track.
	var track string
	runCtx := ctx
	if tr != nil {
		pf := cfg.PrefetcherName
		if pf == "" {
			pf = "none"
		}
		short := key
		if len(short) > 8 {
			short = short[:8]
		}
		track = workloadName + "/" + pf + " " + short
		runCtx = obs.WithTrack(ctx, track)
	}

	if e.cfg.Store != nil {
		sp := tr.Start("store-get", "store", track)
		res, ok := e.cfg.Store.GetResult(key)
		sp.End()
		if ok {
			e.storeHits.Add(1)
			emit(Event{Kind: RunCached})
			return res, nil
		}
	}

	// started mirrors whether the scheduler committed execution
	// somewhere: pre-start failures (cancelled while queued, unknown
	// workload) settle silently so Execute can report RunSkipped, while
	// post-start ones emit RunFailed — the pre-scheduler semantics.
	// Schedulers never emit after Schedule returns, so the flag is safe
	// to read here.
	started := false
	wrapped := func(ev Event) {
		if ev.Kind == RunStarted {
			started = true
		}
		emit(ev)
	}
	res, err := e.sched.Schedule(runCtx, RunSpec{Workload: workloadName, Config: cfg, Key: key}, wrapped)
	if err != nil {
		if started {
			if isCtxErr(err) {
				e.cancelled.Add(1)
			}
			emit(Event{Kind: RunFailed, Err: err})
		}
		return nil, err
	}
	if e.cfg.Store != nil {
		sp := tr.Start("store-put", "store", track)
		// The store is a cache: a failed write must not lose the result.
		_ = e.cfg.Store.PutResult(key, res)
		sp.End()
	}
	emit(Event{Kind: RunFinished})
	return res, nil
}

// Execute runs every cell of the plan over the worker pool and returns
// the populated Grid. Identical cells (canonically equal configurations)
// are simulated exactly once; results already memoized or stored are
// served without simulating.
//
// Cancellation: once ctx is cancelled, runs in flight stop within one
// progress interval (RunFailed), unstarted runs are skipped (RunSkipped,
// never touching the store), and Execute returns the partial Grid
// together with ctx's error. Events stream to the sink attached to ctx;
// a GridDone event carrying the Grid and error is always the last event.
func (e *Engine) Execute(ctx context.Context, plan Plan) (*Grid, error) {
	sink := eventSink(ctx)
	compileSpan := obs.TracerFrom(ctx).Start("compile", "engine", "")
	c, err := e.compile(plan)
	compileSpan.End()
	if err != nil {
		sink(Event{Kind: GridDone, Plan: plan.Name, Err: err})
		return nil, err
	}

	total := len(c.nodes) + len(plan.Customs)
	var done atomic.Int64
	grid := &Grid{plan: plan, cells: c.cells, customs: make(map[cellRef]*customCell, len(plan.Customs))}
	grid.counts.Runs = len(c.nodes)
	emitter := func(workload, variant string, n *node) func(Event) {
		return func(ev Event) {
			if n != nil {
				switch ev.Kind {
				case RunStarted:
					n.started = true
				case RunCached:
					n.cached = true
				}
				ev.Key = n.key
			}
			ev.Plan = plan.Name
			ev.Workload = workload
			ev.Variant = variant
			if ev.Kind != RunProgress {
				ev.Done = int(done.Load())
			}
			ev.Total = total
			sink(ev)
		}
	}

	// Workers take the cells in admission order (admission.go); with a
	// cluster coordinator, every cell starts at once.
	order := admissionOrder(c, plan.Customs)
	workers := len(order)
	if _, local := e.sched.(localScheduler); local {
		workers = min(workers, e.cfg.Parallel)
	}
	for _, gc := range order {
		e.traces.hold(gc.workload)
		if gc.n == nil {
			cu := plan.Customs[gc.custom]
			grid.customs[cellRef{cu.Workload, cu.Key}] = &customCell{}
		}
	}
	runNode := func(n *node) {
		emit := emitter(n.cells[0].workload, n.cells[0].key, n)
		n.res, n.err = e.run(ctx, n.workload, n.cfg, n.key, emit)
		done.Add(1)
		if n.err != nil && isCtxErr(n.err) && !n.started {
			emit(Event{Kind: RunSkipped})
		}
	}
	runCustom := func(cu Custom) {
		cc := grid.customs[cellRef{cu.Workload, cu.Key}]
		defer done.Add(1)
		emit := emitter(cu.Workload, cu.Key, nil)
		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			cc.err = ctx.Err()
			emit(Event{Kind: RunSkipped})
			return
		}
		defer func() { <-e.sem }()
		if err := ctx.Err(); err != nil {
			cc.err = err
			emit(Event{Kind: RunSkipped})
			return
		}
		emit(Event{Kind: RunStarted})
		cc.started = true
		e.customs.Add(1)
		cc.val, cc.err = e.runCustom(ctx, cu)
		if cc.err != nil {
			emit(Event{Kind: RunFailed, Err: cc.err})
			return
		}
		emit(Event{Kind: RunFinished})
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(order); i = int(next.Add(1)) - 1 {
				gc := order[i]
				if gc.n != nil {
					runNode(gc.n)
				} else {
					runCustom(plan.Customs[gc.custom])
				}
				e.traces.release(gc.workload)
			}
		}()
	}
	wg.Wait()

	execErr := grid.settle()
	if ctxErr := ctx.Err(); ctxErr != nil {
		execErr = ctxErr
	}
	sink(Event{Kind: GridDone, Plan: plan.Name, Grid: grid, Err: execErr, Done: int(done.Load()), Total: total})
	return grid, execErr
}

// runCustom computes a custom cell over the trace the engine resolves
// for its workload, and closes that trace after the cell.
func (e *Engine) runCustom(ctx context.Context, cu Custom) (any, error) {
	w, err := workload.ByName(cu.Workload)
	if err != nil {
		return nil, err
	}
	src := e.openTrace(ctx, w)
	defer closeSource(src)
	return cu.Run(ctx, src)
}

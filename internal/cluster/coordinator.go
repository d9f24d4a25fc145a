package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// Scheduling defaults; all overridable through Config.
const (
	DefaultHeartbeatInterval = 2 * time.Second
	DefaultHeartbeatMisses   = 3
	DefaultMaxAttempts       = 4
	DefaultRetryBaseDelay    = 100 * time.Millisecond
	DefaultRetryMaxDelay     = 5 * time.Second
	// DefaultBreakerThreshold is how many consecutive failed attempts
	// put a worker on probation (the per-worker circuit breaker).
	DefaultBreakerThreshold = 3
)

// ErrKeyMismatch reports a worker that refused a cell because it
// computes a different content address for it — the daemons were
// launched with different simulation options, so the worker's result
// would answer a different question. The coordinator quarantines such
// workers instead of retrying them.
var ErrKeyMismatch = errors.New("cluster: cell key mismatch (worker launched with different options)")

// Config parameterizes a Coordinator.
type Config struct {
	// Local executes cells on the coordinator itself: the fallback when
	// no workers are registered (or none remain alive), so a cluster of
	// zero degrades to exactly the single-node engine. Required.
	Local engine.CellScheduler
	// Store is the coordinator's result store; used only for artifact
	// sync (trace-tier pulls and the TraceFrom hint). Optional.
	Store *store.Store
	// Workload is the engine's trace-generation config, used to compute
	// trace artifact keys for sync hints.
	Workload workload.Config
	// SelfURL is the coordinator's own base URL as reachable from
	// workers; when set (and Store holds the artifact), dispatched cells
	// carry a TraceFrom hint so workers pull traces instead of
	// regenerating. Optional.
	SelfURL string
	// Metrics receives the cluster instruments (nil: a private registry,
	// for coordinators that are not scraped).
	Metrics *obs.Registry
	// HeartbeatInterval is how often workers must beat; a worker silent
	// for HeartbeatMisses intervals is declared dead and its cells are
	// re-scattered.
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	// MaxAttempts bounds how many times one cell is dispatched before
	// its run fails (first attempt included).
	MaxAttempts int
	// RetryBaseDelay/RetryMaxDelay shape the jittered exponential
	// backoff between a cell's attempts.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// worker's circuit breaker: once tripped, the worker is on
	// probation — no new scatters, one canary cell at a time — until a
	// canary succeeds. 0 selects DefaultBreakerThreshold; negative
	// disables the breaker.
	BreakerThreshold int
	// Client performs the HTTP dispatches (nil: a client with sane
	// dial/header timeouts and no overall timeout — cells legitimately
	// run for minutes; death is detected by heartbeats, not deadlines).
	Client *http.Client
	// Logger receives scheduling decisions worth an operator's
	// attention (nil: slog.Default()).
	Logger *slog.Logger
	// Fault optionally injects deterministic faults into the transport
	// sites (cluster.cell.post, cluster.trace.pull, cluster.heartbeat);
	// nil in production.
	Fault *fault.Injector
}

// task is one cell making its way through the cluster. All mutable
// state is guarded by Coordinator.mu; emit is only ever called with mu
// held and never after the task settles, which is what makes the
// engine's event contract race-free.
type task struct {
	spec    engine.RunSpec
	emit    func(engine.Event)
	ctx     context.Context
	created time.Time

	attempts   int
	started    bool
	lastWorker string

	queuedOn   *worker
	inflightOn *worker
	// localCancel stops an in-progress local fallback run when a late
	// remote result settles the task first, so the coordinator does not
	// finish a simulation nobody is waiting for.
	localCancel context.CancelFunc
	settled     bool
	res         *sim.Result
	err         error
	done        chan struct{}
}

// worker is the coordinator's view of one registered worker daemon.
type worker struct {
	id       string
	url      string
	capacity int

	alive       bool
	quarantined bool
	lastBeat    time.Time

	// Circuit breaker: consecFails counts attempt failures since the
	// last success; at the threshold the worker goes on probation — no
	// new scatters, one canary cell at a time — until a canary succeeds.
	consecFails int
	probation   bool

	queue    []*task
	inflight map[*task]context.CancelFunc

	done, failed, stolen uint64
}

// Coordinator scatters engine run cells across registered workers. It
// implements engine.CellScheduler: install it with Engine.SetScheduler
// and every plan the engine executes is distributed transparently —
// memoization, store write-through and event settlement stay in the
// engine, exactly as for local execution.
type Coordinator struct {
	cfg    Config
	client *http.Client
	logger *slog.Logger
	m      *coordMetrics

	stop     chan struct{}
	stopOnce sync.Once

	mu      sync.Mutex
	closed  bool
	seq     int
	workers map[string]*worker
	byURL   map[string]*worker
	syncing map[string]bool // trace keys with a pull in flight
}

// New builds a coordinator and starts its heartbeat monitor. Close it
// when done.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Local == nil {
		return nil, fmt.Errorf("cluster: Config.Local scheduler is required")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = DefaultHeartbeatMisses
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = DefaultRetryBaseDelay
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = DefaultRetryMaxDelay
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost:   16,
			ResponseHeaderTimeout: 0, // cells answer when the run finishes
		}}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Coordinator{
		cfg:     cfg,
		client:  client,
		logger:  logger,
		stop:    make(chan struct{}),
		workers: make(map[string]*worker),
		byURL:   make(map[string]*worker),
		syncing: make(map[string]bool),
	}
	c.m = newCoordMetrics(reg, c)
	go c.monitor()
	return c, nil
}

// Close stops the heartbeat monitor. Outstanding cells settle through
// their own contexts (the daemon cancels jobs on shutdown).
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// Register adds (or re-adds) a worker. Re-registering a URL retires the
// previous identity — a restarted worker must not inherit a dead
// ancestor's bookkeeping — and re-scatters any cells it held.
func (c *Coordinator) Register(req RegisterRequest) (RegisterResponse, error) {
	u, err := url.Parse(req.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return RegisterResponse{}, fmt.Errorf("cluster: worker URL %q is not an absolute URL", req.URL)
	}
	capacity := req.Capacity
	if capacity <= 0 {
		capacity = 1
	}
	c.mu.Lock()
	var orphans []*task
	if old := c.byURL[req.URL]; old != nil {
		orphans = c.retireLocked(old)
	}
	c.seq++
	w := &worker{
		id:       fmt.Sprintf("w%d", c.seq),
		url:      req.URL,
		capacity: capacity,
		alive:    true,
		lastBeat: time.Now(),
		inflight: make(map[*task]context.CancelFunc),
	}
	c.workers[w.id] = w
	c.byURL[w.url] = w
	c.m.workersRegistered.Inc()
	locals := c.rescatterLocked(orphans)
	c.dispatchLocked()
	c.mu.Unlock()
	c.runLocals(locals)
	c.logger.Info("cluster: worker registered", "worker", w.id, "url", w.url, "capacity", capacity)
	return RegisterResponse{WorkerID: w.id, HeartbeatMillis: c.cfg.HeartbeatInterval.Milliseconds()}, nil
}

// Heartbeat records a beat; false tells the worker to re-register (it
// is unknown, or was declared dead and its identity retired).
func (c *Coordinator) Heartbeat(id string) bool {
	if c.cfg.Fault.Point("cluster.heartbeat") != nil {
		// Injected blackout: the beat is swallowed without being
		// recorded, and the worker is none the wiser — an asymmetric
		// partition. The reaper must notice on its own.
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil || !w.alive {
		return false
	}
	w.lastBeat = time.Now()
	return true
}

// Workers snapshots the registry for listings and reconciliation.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerInfo{
			ID:            w.id,
			URL:           w.url,
			Capacity:      w.capacity,
			Alive:         w.alive,
			Quarantined:   w.quarantined,
			Probation:     w.probation,
			ConsecFails:   w.consecFails,
			Queued:        len(w.queue),
			Inflight:      len(w.inflight),
			Done:          w.done,
			Failed:        w.failed,
			Stolen:        w.stolen,
			LastHeartbeat: w.lastBeat,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Schedule implements engine.CellScheduler: dispatch the cell to a
// worker (queued under its affinity worker, stolen by whoever has room
// first), fall back to local execution when the cluster is empty, and
// block until the cell settles or ctx is cancelled.
func (c *Coordinator) Schedule(ctx context.Context, spec engine.RunSpec, emit func(engine.Event)) (*sim.Result, error) {
	t := &task{
		spec:    spec,
		emit:    emit,
		ctx:     ctx,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	c.mu.Lock()
	if c.closed || !c.assignLocked(t, "") {
		c.mu.Unlock()
		c.m.cellsLocal.Inc()
		return c.cfg.Local.Schedule(ctx, spec, emit)
	}
	c.dispatchLocked()
	c.mu.Unlock()

	select {
	case <-t.done:
		return t.res, t.err
	case <-ctx.Done():
		c.mu.Lock()
		c.settleLocked(t, nil, ctx.Err())
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// settleLocked finalizes a task exactly once: detach it from whatever
// queue or in-flight slot holds it, record the outcome, release the
// waiter. Late duplicate settlements (a stale attempt racing a
// re-scatter) are dropped here, which is what makes duplicate execution
// harmless instead of double-counted.
func (c *Coordinator) settleLocked(t *task, res *sim.Result, err error) {
	if t.settled {
		return
	}
	t.settled = true
	t.res, t.err = res, err
	if w := t.queuedOn; w != nil {
		for i, q := range w.queue {
			if q == t {
				w.queue = append(w.queue[:i], w.queue[i+1:]...)
				break
			}
		}
		t.queuedOn = nil
	}
	if w := t.inflightOn; w != nil {
		if cancel, ok := w.inflight[t]; ok {
			cancel()
			delete(w.inflight, t)
		}
		t.inflightOn = nil
	}
	if t.localCancel != nil {
		// A local fallback run is still simulating this cell; stop it —
		// its result is no longer needed.
		t.localCancel()
		t.localCancel = nil
	}
	c.m.cellDuration.Observe(time.Since(t.created).Seconds())
	close(t.done)
}

// assignLocked queues the task on its affinity worker (rendezvous
// hashing over worker id × workload, so one workload's variants share
// one worker's trace), avoiding exclude when any alternative
// exists. Workers on probation receive new cells only when no healthy
// worker remains — and even then the dispatch window clamps them to
// one canary at a time. False means no live worker can take it.
func (c *Coordinator) assignLocked(t *task, exclude string) bool {
	pick := func(allowProbation bool) *worker {
		var best *worker
		var bestScore uint64
		for _, w := range c.workers {
			if !w.alive || w.quarantined || w.id == exclude {
				continue
			}
			if w.probation && !allowProbation {
				continue
			}
			h := fnv.New64a()
			io.WriteString(h, w.id)
			h.Write([]byte{0})
			io.WriteString(h, t.spec.Workload)
			if score := h.Sum64(); best == nil || score > bestScore {
				best, bestScore = w, score
			}
		}
		return best
	}
	best := pick(false)
	if best == nil {
		best = pick(true)
	}
	if best == nil && exclude != "" {
		// The excluded worker is the only one left; better it than
		// nothing.
		return c.assignLocked(t, "")
	}
	if best == nil {
		return false
	}
	t.queuedOn = best
	best.queue = append(best.queue, t)
	return true
}

// nextTaskLocked picks the worker's next cell: its own queue first, then
// the tail of the longest other queue (work stealing — a drained fast
// worker eats a slow worker's backlog instead of idling).
func (c *Coordinator) nextTaskLocked(w *worker) *task {
	if len(w.queue) > 0 {
		t := w.queue[0]
		w.queue = w.queue[1:]
		t.queuedOn = nil
		return t
	}
	var (
		victim *worker
		steal  = -1
	)
	for _, v := range c.workers {
		if v == w || len(v.queue) == 0 {
			continue
		}
		if victim != nil && len(v.queue) <= len(victim.queue) {
			continue
		}
		// Steal from the tail (the coldest work), but never a cell this
		// worker already failed: a fast-failing worker must not yank its
		// own retries back from the healthy node's queue and burn the
		// attempt budget.
		for i := len(v.queue) - 1; i >= 0; i-- {
			if v.queue[i].lastWorker != w.id {
				victim, steal = v, i
				break
			}
		}
	}
	if victim == nil {
		return nil
	}
	t := victim.queue[steal]
	victim.queue = append(victim.queue[:steal], victim.queue[steal+1:]...)
	t.queuedOn = nil
	w.stolen++
	c.m.cellsStolen.Inc()
	return t
}

// dispatchLocked fills every live worker's in-flight window from the
// queues. It is called after every state change that can free capacity
// or add work, so the windows stay saturated.
func (c *Coordinator) dispatchLocked() {
	for {
		progress := false
		for _, w := range c.workers {
			capacity := w.capacity
			if w.probation {
				// Probation window: one canary cell at a time probes
				// whether the worker recovered, instead of burning the
				// retry budget of a full window.
				capacity = 1
			}
			if !w.alive || w.quarantined || len(w.inflight) >= capacity {
				continue
			}
			t := c.nextTaskLocked(w)
			if t == nil {
				continue
			}
			c.launchLocked(w, t)
			progress = true
		}
		if !progress {
			break
		}
	}
	c.m.refreshWorkerGaugesLocked(c)
}

// launchLocked starts one HTTP attempt for the cell on the worker.
func (c *Coordinator) launchLocked(w *worker, t *task) {
	attemptCtx, cancel := context.WithCancel(t.ctx)
	w.inflight[t] = cancel
	t.inflightOn = w
	t.lastWorker = w.id
	t.attempts++
	if !t.started {
		t.started = true
		c.m.scatterLatency.Observe(time.Since(t.created).Seconds())
		t.emit(engine.Event{Kind: engine.RunStarted})
	}
	c.m.cellsScattered.Inc()
	if w.probation {
		c.m.cellsCanary.Inc()
	}
	go c.execute(w, t, attemptCtx, t.attempts)
}

// breakerSuccessLocked records a successful attempt on the breaker:
// the failure streak resets and probation lifts (the canary came back).
func (c *Coordinator) breakerSuccessLocked(w *worker) {
	w.consecFails = 0
	if w.probation {
		w.probation = false
		c.m.breakerRecoveries.Inc()
		c.logger.Info("cluster: worker probation lifted (canary cell succeeded)",
			"worker", w.id, "url", w.url)
	}
}

// breakerFailureLocked records a failed attempt; at the threshold the
// worker trips onto probation and its queued (not yet launched) cells
// move to healthier homes. Returns tasks that must now run locally.
func (c *Coordinator) breakerFailureLocked(w *worker) []*task {
	w.consecFails++
	if c.cfg.BreakerThreshold <= 0 || w.probation || w.quarantined || !w.alive ||
		w.consecFails < c.cfg.BreakerThreshold {
		return nil
	}
	w.probation = true
	c.m.breakerTrips.Inc()
	c.logger.Warn("cluster: worker on probation (circuit breaker tripped)",
		"worker", w.id, "url", w.url, "consecutive_failures", w.consecFails)
	moved := w.queue
	w.queue = nil
	for _, qt := range moved {
		qt.queuedOn = nil
	}
	return c.rescatterLocked(moved)
}

// execute performs one dispatch attempt and folds its outcome back into
// the scheduler state. attempt is the launch token this goroutine was
// started with: if the task has since been re-launched (or taken away),
// this attempt is stale no matter what the maps say.
func (c *Coordinator) execute(w *worker, t *task, ctx context.Context, attempt int) {
	resp, err := c.postCell(ctx, w.url, t.spec)
	if err == nil {
		// Injected between the worker's answer and the coordinator folding
		// it in: a latency rule here holds a completed response in limbo
		// (letting a reap re-scatter the cell under it — the stale-success
		// race), an error rule drops the response on the floor.
		if ferr := c.cfg.Fault.Point("cluster.cell.result"); ferr != nil {
			resp, err = nil, ferr
		}
	}

	c.mu.Lock()
	if _, mine := w.inflight[t]; !mine || t.inflightOn != w || t.attempts != attempt {
		// Stale attempt: a death re-scatter (or settlement) already took
		// the cell away. A successful result is still valid — the cell
		// is deterministic and content-addressed — so use it, but count
		// it as a duplicate, not as fresh scheduler work: the cell's
		// duration histogram and the worker's live accounting were (or
		// will be) settled by the current attempt, and settleLocked's
		// guard keeps this late landing from double-observing them.
		if err == nil {
			c.m.cellsDuplicate.Inc()
			if !t.settled {
				w.done++
				if resp.Cached {
					c.m.cellsRemoteCached.Inc()
				}
				c.settleLocked(t, resp.Result, nil)
				c.maybeSyncTraceLocked(w, resp)
			}
		}
		c.dispatchLocked()
		c.mu.Unlock()
		return
	}
	delete(w.inflight, t)
	t.inflightOn = nil

	var locals []*task
	switch {
	case err == nil:
		w.lastBeat = time.Now() // a responsive worker is a live worker
		w.done++
		c.breakerSuccessLocked(w)
		if resp.Cached {
			c.m.cellsRemoteCached.Inc()
		}
		c.settleLocked(t, resp.Result, nil)
		c.maybeSyncTraceLocked(w, resp)
	case t.ctx.Err() != nil:
		c.settleLocked(t, nil, t.ctx.Err())
	case errors.Is(err, ErrKeyMismatch):
		w.quarantined = true
		c.m.workersQuarantined.Inc()
		c.logger.Warn("cluster: worker quarantined (cell key mismatch — launched with different options?)",
			"worker", w.id, "url", w.url, "key", shortKey(t.spec.Key))
		if !c.assignLocked(t, w.id) {
			locals = append(locals, t)
			c.m.cellsLocal.Inc()
		}
	default:
		w.failed++
		locals = append(locals, c.breakerFailureLocked(w)...)
		if t.attempts >= c.cfg.MaxAttempts {
			c.settleLocked(t, nil, fmt.Errorf("cluster: cell %s failed after %d attempts: %w",
				shortKey(t.spec.Key), t.attempts, err))
		} else {
			delay := c.backoff(t.attempts)
			c.m.cellsRetried.Inc()
			c.logger.Debug("cluster: cell attempt failed; backing off",
				"worker", w.id, "key", shortKey(t.spec.Key), "attempt", t.attempts, "delay", delay, "err", err)
			time.AfterFunc(delay, func() { c.requeue(t) })
		}
	}
	c.dispatchLocked()
	c.mu.Unlock()
	c.runLocals(locals)
}

// requeue re-enters a cell after its retry backoff, preferring a worker
// other than the one that just failed it.
func (c *Coordinator) requeue(t *task) {
	c.mu.Lock()
	if t.settled {
		c.mu.Unlock()
		return
	}
	if err := t.ctx.Err(); err != nil {
		c.settleLocked(t, nil, err)
		c.mu.Unlock()
		return
	}
	if !c.assignLocked(t, t.lastWorker) {
		c.mu.Unlock()
		c.m.cellsLocal.Inc()
		c.runLocal(t)
		return
	}
	c.dispatchLocked()
	c.mu.Unlock()
}

// runLocal executes a cell on the coordinator's own scheduler and
// settles it. Events are re-guarded so nothing is emitted after a
// concurrent settlement (cancellation) released the engine, and the
// run itself is cancelled if something else — a late remote result —
// settles the task first.
func (c *Coordinator) runLocal(t *task) {
	ctx, cancel := context.WithCancel(t.ctx)
	defer cancel()
	c.mu.Lock()
	if t.settled {
		c.mu.Unlock()
		return
	}
	t.localCancel = cancel
	c.mu.Unlock()
	res, err := c.cfg.Local.Schedule(ctx, t.spec, func(ev engine.Event) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if t.settled {
			return
		}
		if ev.Kind == engine.RunStarted {
			if t.started {
				return
			}
			t.started = true
		}
		t.emit(ev)
	})
	c.mu.Lock()
	t.localCancel = nil
	c.settleLocked(t, res, err)
	c.mu.Unlock()
}

func (c *Coordinator) runLocals(tasks []*task) {
	for _, t := range tasks {
		go c.runLocal(t)
	}
}

// retireLocked removes a worker from service and returns the tasks it
// held; callers re-scatter them.
func (c *Coordinator) retireLocked(w *worker) []*task {
	if c.byURL[w.url] == w {
		delete(c.byURL, w.url)
	}
	w.alive = false
	var orphans []*task
	for t, cancel := range w.inflight {
		cancel()
		t.inflightOn = nil
		orphans = append(orphans, t)
		delete(w.inflight, t)
	}
	for _, t := range w.queue {
		t.queuedOn = nil
		orphans = append(orphans, t)
	}
	w.queue = nil
	return orphans
}

// rescatterLocked reassigns orphaned tasks, returning the ones that
// must run locally (no live workers). Callers pass those to runLocals
// outside the lock.
func (c *Coordinator) rescatterLocked(orphans []*task) []*task {
	var locals []*task
	for _, t := range orphans {
		if t.settled {
			continue
		}
		c.m.cellsRescattered.Inc()
		if !c.assignLocked(t, "") {
			locals = append(locals, t)
			c.m.cellsLocal.Inc()
		}
	}
	return locals
}

// monitor is the liveness loop: every heartbeat interval it reaps
// workers that have missed too many beats and re-scatters their cells.
func (c *Coordinator) monitor() {
	ticker := time.NewTicker(c.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.reap()
		}
	}
}

// reap declares workers dead after HeartbeatMisses silent intervals and
// re-scatters everything they held.
func (c *Coordinator) reap() {
	cutoff := time.Now().Add(-time.Duration(c.cfg.HeartbeatMisses) * c.cfg.HeartbeatInterval)
	c.mu.Lock()
	var orphans []*task
	for _, w := range c.workers {
		if !w.alive || w.lastBeat.After(cutoff) {
			continue
		}
		held := c.retireLocked(w)
		orphans = append(orphans, held...)
		c.m.workersLost.Inc()
		c.logger.Warn("cluster: worker dead (missed heartbeats); re-scattering its cells",
			"worker", w.id, "url", w.url, "orphans", len(held))
	}
	locals := c.rescatterLocked(orphans)
	c.dispatchLocked()
	c.mu.Unlock()
	c.runLocals(locals)
}

// backoff returns the jittered exponential delay before attempt n+1.
func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.cfg.RetryBaseDelay << (attempt - 1)
	if d > c.cfg.RetryMaxDelay || d <= 0 {
		d = c.cfg.RetryMaxDelay
	}
	// Half deterministic, half uniform jitter: retries from one burst
	// spread out instead of thundering back together.
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// postCell performs one cell dispatch over HTTP.
func (c *Coordinator) postCell(ctx context.Context, baseURL string, spec engine.RunSpec) (*CellResponse, error) {
	if err := c.cfg.Fault.Point("cluster.cell.post"); err != nil {
		return nil, err
	}
	creq := CellRequest{Workload: spec.Workload, Config: spec.Config, Key: spec.Key}
	if c.cfg.Store != nil && c.cfg.SelfURL != "" {
		if tk := store.ForTrace(spec.Workload, c.cfg.Workload); c.cfg.Store.HasTrace(tk) {
			creq.TraceFrom = c.cfg.SelfURL
			creq.TraceKey = tk
		}
	}
	body, err := json.Marshal(creq)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding cell: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var cresp CellResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&cresp); err != nil {
			return nil, fmt.Errorf("cluster: decoding cell response: %w", err)
		}
		if cresp.Result == nil {
			return nil, fmt.Errorf("cluster: cell response carries no result")
		}
		if cresp.Key != "" && cresp.Key != spec.Key {
			return nil, fmt.Errorf("cluster: cell response key %s does not match %s",
				shortKey(cresp.Key), shortKey(spec.Key))
		}
		return &cresp, nil
	case http.StatusConflict:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("%w: %s", ErrKeyMismatch, bytes.TrimSpace(msg))
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("cluster: worker answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
}

// maybeSyncTraceLocked pulls a trace artifact the worker holds and the
// coordinator's store is missing, in the background, at most one pull
// per key at a time. Sync is strictly by content address: a key that
// exists is never re-fetched, and a fetched file is validated before it
// is published.
func (c *Coordinator) maybeSyncTraceLocked(w *worker, resp *CellResponse) {
	if c.cfg.Store == nil || resp.TraceKey == "" || c.syncing[resp.TraceKey] {
		return
	}
	if c.cfg.Store.HasTrace(resp.TraceKey) {
		return
	}
	c.syncing[resp.TraceKey] = true
	go c.pullTrace(w.url, resp.TraceKey)
}

// pullTrace fetches one artifact from a worker's store tier.
func (c *Coordinator) pullTrace(baseURL, key string) {
	defer func() {
		c.mu.Lock()
		delete(c.syncing, key)
		c.mu.Unlock()
	}()
	if err := c.cfg.Fault.Point("cluster.trace.pull"); err != nil {
		c.logger.Debug("cluster: trace pull failed", "key", shortKey(key), "err", err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/store/traces/"+key, nil)
	if err != nil {
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.logger.Debug("cluster: trace pull failed", "key", shortKey(key), "err", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	n, err := c.cfg.Store.PutTraceRaw(key, resp.Body)
	if err != nil {
		c.logger.Warn("cluster: pulled trace artifact rejected", "key", shortKey(key), "err", err)
		return
	}
	c.m.artifactsSynced.Inc()
	c.m.artifactSyncBytes.Add(uint64(n))
	c.logger.Info("cluster: trace artifact synced", "key", shortKey(key), "bytes", n, "from", baseURL)
}

// shortKey abbreviates a content address for logs and errors.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

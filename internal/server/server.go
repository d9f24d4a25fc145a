// Package server implements the smsd experiment daemon: an HTTP front end
// over the grid-native execution engine that serves the paper's figures
// and ad-hoc simulation runs, backed by the persistent result store.
//
// Endpoints:
//
//	GET    /v1/figures/{name}  rendered figure text (synchronous; cached figures bypass the pool)
//	POST   /v1/figures/{name}  async figure job → 202 + job id
//	POST   /v1/runs            async simulation job → 202 + job id
//	GET    /v1/jobs            all jobs, newest first (?state=, ?kind= filters)
//	GET    /v1/jobs/{id}       job status, progress, phase timings, and (when done) result
//	GET    /v1/jobs/{id}/events  live engine events as Server-Sent Events
//	DELETE /v1/jobs/{id}       cancel the job's in-flight simulations
//	POST   /v1/cells           execute one cluster run cell (worker side; synchronous)
//	POST   /v1/cluster/workers            register a worker (coordinator side)
//	POST   /v1/cluster/workers/{id}/heartbeat  worker liveness beat
//	GET    /v1/cluster/workers            registered workers and their queues
//	GET    /v1/store/results/{key}        stored result JSON by content address
//	PUT    /v1/store/results/{key}        store a result (cluster artifact sync)
//	GET    /v1/store/traces/{key}         raw trace artifact by content address
//	PUT    /v1/store/traces/{key}         store a trace artifact (validated before publish)
//	GET    /v1/prefetchers     registered prefetcher names
//	GET    /v1/workloads       registered workloads (name, group, description)
//	GET    /v1/traces          trace artifacts cached in the store's disk trace tier
//	GET    /healthz            liveness probe
//	GET    /metrics            Prometheus text exposition (internal/obs registry)
//	GET    /debug/pprof/...    runtime profiles (only with Config.Pprof)
//
// All simulation work funnels through a bounded worker pool with a job
// queue; when the queue is full the server sheds load with 503 instead of
// queueing unbounded work. Below the pool, the engine deduplicates
// identical runs singleflight-style and memoizes them (backed by the
// store), so N jobs for one uncached simulation trigger exactly one
// underlying computation. Every job carries a context: DELETE cancels it,
// and Shutdown cancels all of them, stopping in-flight simulations within
// one progress interval instead of draining arbitrarily long runs.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// ErrBusy is returned (as 503) when the job queue is full.
var ErrBusy = errors.New("server: job queue full")

// Config parameterizes a Server.
type Config struct {
	// Session executes and caches the simulations (required). Attach a
	// store to it for cross-process persistence.
	Session *exp.Session
	// Workers bounds concurrently executing jobs (0 = GOMAXPROCS).
	Workers int
	// Queue bounds jobs waiting for a worker (0 = DefaultQueue,
	// negative = no queueing: a job either starts immediately or is
	// rejected).
	Queue int
	// Experiments overrides the figure registry (nil = exp.Experiments()).
	// Tests use this to observe and stall figure computations.
	Experiments map[string]exp.Runner
	// Logger receives the daemon's structured logs (nil = slog.Default()).
	Logger *slog.Logger
	// EventHeartbeat is the idle-stream heartbeat period for
	// /v1/jobs/{id}/events (0 = DefaultEventHeartbeat).
	EventHeartbeat time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ when true.
	Pprof bool
	// Coordinator, when set, makes this daemon a cluster coordinator: the
	// /v1/cluster/* endpoints accept worker registrations and heartbeats
	// for it. Workers and single-node daemons leave it nil (the endpoints
	// then answer 404).
	Coordinator *cluster.Coordinator
	// Metrics is the registry behind /metrics (nil = a fresh private
	// registry). A coordinator daemon shares one registry between the
	// server and the cluster scheduler so one scrape covers both.
	Metrics *obs.Registry
	// JournalPath, when set, makes the daemon crash-safe: every job
	// state transition is appended to the durable journal at this path
	// (fsync'd, CRC-framed — see journal.go), and New replays it so jobs
	// survive a kill. Settled jobs reappear in GET /v1/jobs with results
	// refilled from the store; live jobs are re-queued through the pool.
	JournalPath string
	// Fault optionally injects deterministic faults into the journal
	// sites (journal.append.*, journal.compact) and exports
	// smsd_fault_injections_total; nil in production.
	Fault *fault.Injector
}

// DefaultQueue is the default job-queue bound.
const DefaultQueue = 64

// maxFinishedJobs bounds how many settled jobs are kept for polling; the
// oldest settled jobs are evicted first. Active jobs are never evicted.
const maxFinishedJobs = 256

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobProgress reports how much of a job's simulation grid has settled.
type JobProgress struct {
	// TotalRuns and DoneRuns count the job's deduplicated runs; for a
	// /v1/runs job TotalRuns is 1.
	TotalRuns int `json:"total_runs"`
	DoneRuns  int `json:"done_runs"`
	// CachedRuns of the done runs were served without simulating.
	CachedRuns int `json:"cached_runs"`
	// Records is the total simulated trace records processed so far,
	// including runs still in flight.
	Records uint64 `json:"records"`
}

// job is the server-side job state.
type job struct {
	id      string
	kind    string // "run" | "figure"
	target  string // human-readable subject
	dedupe  string // active-job dedup key ("" = never deduped)
	created time.Time
	cancel  context.CancelFunc
	// spec is the journaled description a restart resubmits from.
	spec jobSpec
	// journaled means an accepted record for this job is on disk, so
	// its later transitions must be journaled too. restored marks a job
	// rebuilt from the journal on recovery.
	journaled bool
	restored  bool
	// tracer collects the job's run-phase spans (nil for cache-settled
	// jobs); doc() surfaces its totals as the phase-timing block.
	tracer *obs.Tracer
	// done closes when the job settles; synchronous waiters (the GET
	// figure path) block on it.
	done chan struct{}

	// subs are the live /v1/jobs/{id}/events streams (see events.go).
	subsMu sync.Mutex
	subs   map[*subscriber]struct{}

	mu        sync.Mutex
	state     JobState
	progress  JobProgress
	inflight  map[string]uint64    // run key → records, for runs in flight
	runStarts map[string]time.Time // run key → RunStarted time, for duration metrics
	completed uint64               // records folded in from settled runs
	result    *RunResponse         // run jobs
	figure    string               // figure jobs
	errText   string
	finished  time.Time
}

// observeEvent folds one engine event into the job's progress, records
// run-level metrics, and fans the event out to the job's event streams.
// It is the event sink attached to the job's context, called from
// worker goroutines.
func (s *Server) observeEvent(j *job, ev engine.Event) {
	now := time.Now()
	j.mu.Lock()
	if ev.Total > 0 {
		j.progress.TotalRuns = ev.Total
	}
	switch ev.Kind {
	case engine.RunStarted:
		j.runStarts[ev.Key] = now
	case engine.RunProgress:
		j.inflight[ev.Key] = ev.Records
	case engine.RunCached:
		j.progress.CachedRuns++
		j.progress.DoneRuns++
	case engine.RunFinished, engine.RunFailed, engine.RunSkipped:
		j.progress.DoneRuns++
		records := j.inflight[ev.Key]
		j.completed += records
		delete(j.inflight, ev.Key)
		if start, ok := j.runStarts[ev.Key]; ok {
			delete(j.runStarts, ev.Key)
			if ev.Kind == engine.RunFinished {
				// The final RunProgress callback fires before RunFinished,
				// so records holds the run's full count here.
				dur := now.Sub(start).Seconds()
				s.metrics.runDuration.Observe(dur)
				if dur > 0 && records > 0 {
					s.metrics.runRecRate.Observe(float64(records) / dur)
				}
			}
		}
	}
	j.mu.Unlock()
	s.publishEvent(j, ev)
}

// doc renders the job for the HTTP API.
func (j *job) doc() JobDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	d := JobDoc{
		ID:       j.id,
		Kind:     j.kind,
		Target:   j.target,
		State:    j.state,
		Created:  j.created,
		Progress: j.progress,
		Error:    j.errText,
		Result:   j.result,
		Figure:   j.figure,
	}
	d.Progress.Records = j.completed
	for _, rec := range j.inflight {
		d.Progress.Records += rec
	}
	if !j.finished.IsZero() {
		t := j.finished
		d.Finished = &t
	}
	d.Phases = j.tracer.PhaseTotals()
	return d
}

// JobDoc is the job representation served by the /v1/jobs endpoints.
type JobDoc struct {
	ID      string    `json:"id"`
	Kind    string    `json:"kind"`
	Target  string    `json:"target"`
	State   JobState  `json:"state"`
	Created time.Time `json:"created"`
	// Finished is set once the job reaches a terminal state.
	Finished *time.Time  `json:"finished,omitempty"`
	Progress JobProgress `json:"progress"`
	Error    string      `json:"error,omitempty"`
	// Result carries a run job's outcome once done.
	Result *RunResponse `json:"result,omitempty"`
	// Figure carries a figure job's rendered text once done.
	Figure string `json:"figure,omitempty"`
	// Phases aggregates the job's span tracing per phase name (trace
	// generation, sampled gap/warm/window, store round trips, render),
	// sorted by descending wall time. It flows from the run-phase
	// tracer, never from sim.Result.
	Phases []obs.PhaseTotal `json:"phases,omitempty"`
}

// Server is the smsd HTTP daemon state.
type Server struct {
	session     *exp.Session
	experiments map[string]exp.Runner
	names       []string

	// baseCtx parents every job context; baseCancel is the shutdown
	// switch that stops in-flight simulations.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	jobsCh  chan func()
	closing sync.Once
	done    chan struct{}
	wg      sync.WaitGroup
	workers int

	logger      *slog.Logger
	heartbeat   time.Duration
	pprof       bool
	coordinator *cluster.Coordinator
	// syncClient fetches trace artifacts from peers (worker pull-through).
	syncClient *http.Client
	// metrics is the obs registry behind /metrics plus every instrument
	// the daemon records into (see metrics.go).
	metrics *serverMetrics
	// journal is the durable job log (nil when Config.JournalPath is
	// unset: journaling off, every append a no-op).
	journal *journal
	// fault is the daemon's injector (nil in production).
	fault *fault.Injector
	// recRequeued / recRestored count jobs recovered on startup.
	recRequeued atomic.Uint64
	recRestored atomic.Uint64
	// settleCount drives periodic journal compaction.
	settleCount atomic.Uint64

	mu          sync.Mutex
	jobs        map[string]*job
	activeByKey map[string]*job // dedup key → unsettled job
	settled     []string        // settled job ids in completion order, for eviction
	active      int             // jobs in state running
	pending     int             // jobs in state queued
	jobsSeq     uint64
}

// New builds a Server and starts its worker pool. Call Close (or
// Shutdown) to stop it.
func New(cfg Config) (*Server, error) {
	if cfg.Session == nil {
		return nil, fmt.Errorf("server: Config.Session is required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := cfg.Queue
	switch {
	case queue == 0:
		queue = DefaultQueue
	case queue < 0:
		queue = 0
	}
	experiments := cfg.Experiments
	var names []string
	if experiments == nil {
		experiments = exp.Experiments()
		names = exp.ExperimentNames()
	} else {
		for name := range experiments {
			names = append(names, name)
		}
		sort.Strings(names)
	}

	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	heartbeat := cfg.EventHeartbeat
	if heartbeat <= 0 {
		heartbeat = DefaultEventHeartbeat
	}

	baseCtx, baseCancel := context.WithCancel(context.Background())
	s := &Server{
		session:     cfg.Session,
		experiments: experiments,
		names:       names,
		baseCtx:     baseCtx,
		baseCancel:  baseCancel,
		jobsCh:      make(chan func(), queue),
		done:        make(chan struct{}),
		workers:     workers,
		logger:      logger,
		heartbeat:   heartbeat,
		pprof:       cfg.Pprof,
		coordinator: cfg.Coordinator,
		syncClient:  &http.Client{Timeout: 5 * time.Minute},
		fault:       cfg.Fault,
		jobs:        make(map[string]*job),
		activeByKey: make(map[string]*job),
	}
	var replayed []*journalJob
	if cfg.JournalPath != "" {
		jl, jobs, err := openJournal(cfg.JournalPath, cfg.Fault, logger)
		if err != nil {
			baseCancel()
			return nil, err
		}
		s.journal = jl
		replayed = jobs
	}
	s.metrics = newMetrics(s, cfg.Metrics)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case <-s.done:
					// Drain tasks queued at the instant of shutdown so no
					// caller blocks forever on an abandoned task; their
					// contexts are already cancelled, so each settles
					// immediately.
					for {
						select {
						case task := <-s.jobsCh:
							s.metrics.poolExecuted.Inc()
							task()
						default:
							return
						}
					}
				case task := <-s.jobsCh:
					s.metrics.poolExecuted.Inc()
					task()
				}
			}
		}()
	}
	if s.journal != nil {
		s.recover(replayed)
	}
	return s, nil
}

// Close stops the server, cancelling every in-flight simulation through
// the engine's context path, and waits for the workers to drain.
func (s *Server) Close() { _ = s.Shutdown(context.Background()) }

// CancelJobs cancels every job context — in-flight simulations stop
// within one progress interval — without stopping the worker pool, so
// requests still in the HTTP pipeline settle fast instead of hanging.
// It is the first step of a graceful daemon exit: CancelJobs, drain the
// HTTP listener, then Shutdown.
func (s *Server) CancelJobs() { s.baseCancel() }

// Shutdown cancels all jobs (in-flight simulations stop within one
// progress interval) and waits for the worker pool to drain, bounded by
// ctx. It returns ctx's error if the workers did not drain in time.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Do(func() {
		s.baseCancel()
		close(s.done)
	})
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		s.journal.close()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// submit hands a task to the pool without blocking.
func (s *Server) submit(task func()) bool {
	select {
	case s.jobsCh <- task:
		return true
	default:
		s.metrics.rejected.Inc()
		return false
	}
}

// isCtxErr reports whether err is a cancellation/deadline error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// newJobID returns a fresh random job identifier.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable for a daemon; fall back to
		// a counter-free constant-prefix that still cannot collide within
		// a process thanks to the sequence check in startJob.
		return "job-entropy-failure"
	}
	return hex.EncodeToString(b[:])
}

// registerJob assigns the job a collision-free id and records it. The
// caller must hold s.mu.
func (s *Server) registerJobLocked(j *job) {
	for s.jobs[j.id] != nil { // vanishing collision odds, but never clobber
		j.id = newJobID() + fmt.Sprintf("-%d", s.jobsSeq)
	}
	s.jobsSeq++
	s.jobs[j.id] = j
	if j.dedupe != "" {
		s.activeByKey[j.dedupe] = j
	}
}

// startJob registers a job and submits its body to the pool. The body
// runs under a per-job context (cancelled by DELETE and by Shutdown)
// carrying the job's event sink; run reports the outcome.
//
// A non-empty dedupe key single-flights the job: if an unsettled job
// with the same key exists, it is returned (joined=true) instead of a
// new one — figure jobs use this so N concurrent requests for one
// figure execute one computation, including the custom plan cells the
// engine's run-level memoization cannot dedupe.
func (s *Server) startJob(spec jobSpec, totalRuns int, run func(ctx context.Context, j *job) error) (j *job, joined bool, err error) {
	j = &job{
		id:      newJobID(),
		kind:    spec.Kind,
		target:  spec.Target,
		dedupe:  spec.Dedupe,
		created: time.Now(),
		spec:    spec,
	}
	return s.launchJob(j, totalRuns, run)
}

// launchJob finishes constructing j and submits its body to the pool.
// The identity fields (id, kind, target, dedupe, created, spec,
// journaled, restored) are the caller's: startJob mints fresh ones,
// recovery preserves journaled identities through here so a restart
// does not reissue job ids.
func (s *Server) launchJob(j *job, totalRuns int, run func(ctx context.Context, j *job) error) (_ *job, joined bool, err error) {
	j.state = JobQueued
	j.tracer = obs.NewTracer()
	j.inflight = make(map[string]uint64)
	j.runStarts = make(map[string]time.Time)
	j.done = make(chan struct{})
	j.progress.TotalRuns = totalRuns

	ctx, cancel := context.WithCancel(s.baseCtx)
	ctx = obs.WithTracer(ctx, j.tracer)
	ctx = engine.WithEventSink(ctx, func(ev engine.Event) { s.observeEvent(j, ev) })
	j.cancel = cancel

	s.mu.Lock()
	if j.dedupe != "" {
		if existing, ok := s.activeByKey[j.dedupe]; ok {
			s.mu.Unlock()
			cancel()
			s.metrics.deduped.Inc()
			return existing, true, nil
		}
	}
	s.registerJobLocked(j)
	s.pending++
	s.mu.Unlock()

	// Journal the acceptance before the pool can pick the body up, so
	// the started/settled records that follow always land after it.
	// Cell jobs stay out of the journal: cells belong to the
	// coordinator's retry loop, and a restarted worker must not re-run
	// cells already rescattered elsewhere.
	if s.journal != nil && !j.restored && j.kind != "cell" {
		rec := journalRecord{Op: journalOpAccepted, ID: j.id, Time: j.created, Spec: &j.spec}
		if aerr := s.journal.append(rec); aerr != nil {
			s.logger.Warn("journal: accepted append failed", "job_id", j.id, "err", aerr)
		} else {
			j.journaled = true
		}
	}

	body := func() {
		s.metrics.queueWait.Observe(time.Since(j.created).Seconds())
		j.mu.Lock()
		cancelled := j.state == JobCancelled
		if !cancelled {
			j.state = JobRunning
		}
		j.mu.Unlock()
		s.mu.Lock()
		s.pending--
		if !cancelled {
			s.active++
		}
		s.mu.Unlock()
		if cancelled {
			s.settleJob(j)
			return
		}
		if j.journaled {
			rec := journalRecord{Op: journalOpStarted, ID: j.id, Time: time.Now()}
			if aerr := s.journal.append(rec); aerr != nil {
				s.logger.Warn("journal: started append failed", "job_id", j.id, "err", aerr)
			}
		}
		err := run(ctx, j)
		cancel()

		j.mu.Lock()
		switch {
		case err == nil:
			j.state = JobDone
			s.metrics.jobsDone.Inc()
		case isCtxErr(err):
			j.state = JobCancelled
			s.metrics.jobsCancelled.Inc()
		default:
			j.state = JobFailed
			j.errText = err.Error()
			s.metrics.jobsFailed.Inc()
		}
		j.finished = time.Now()
		j.mu.Unlock()
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
		s.settleJob(j)
	}
	if !s.submit(body) {
		cancel()
		s.mu.Lock()
		s.pending--
		s.mu.Unlock()
		// Settle (rather than delete) the stillborn job: a concurrent
		// caller may already have joined it through the dedup key and
		// must unblock with its outcome.
		j.mu.Lock()
		j.state = JobFailed
		j.errText = ErrBusy.Error()
		j.mu.Unlock()
		s.metrics.jobsFailed.Inc()
		s.settleJob(j)
		return nil, false, ErrBusy
	}
	s.metrics.jobsCreated.Inc()
	s.logger.Debug("job accepted",
		"job_id", j.id, "kind", j.kind, "target", j.target, "total_runs", totalRuns)
	return j, false, nil
}

// settledJob registers a job that is already done — the cached fast
// path: a result one memo/store probe away needs no worker slot, so it
// stays served even when the pool is saturated with simulations.
func (s *Server) settledJob(spec jobSpec, fill func(j *job)) *job {
	now := time.Now()
	j := &job{
		id:        newJobID(),
		kind:      spec.Kind,
		target:    spec.Target,
		created:   now,
		finished:  now,
		state:     JobDone,
		spec:      spec,
		cancel:    func() {},
		inflight:  make(map[string]uint64),
		runStarts: make(map[string]time.Time),
		done:      make(chan struct{}),
	}
	// The settled record written by settleJob is self-contained (it
	// carries the spec), so cache-settled jobs survive restarts without
	// ever having an accepted record.
	j.journaled = s.journal != nil && spec.Kind != "cell"
	fill(j)
	s.mu.Lock()
	s.registerJobLocked(j)
	s.mu.Unlock()
	s.metrics.jobsCreated.Inc()
	s.metrics.jobsDone.Inc()
	s.settleJob(j)
	return j
}

// settleJob records a terminal job for bounded retention, releases its
// dedup key, records its duration and phase metrics, and wakes
// synchronous waiters.
func (s *Server) settleJob(j *job) {
	j.mu.Lock()
	if j.finished.IsZero() {
		j.finished = time.Now()
	}
	state, created, finished := j.state, j.created, j.finished
	errText := j.errText
	j.mu.Unlock()
	if j.journaled {
		// The settled record carries the spec and creation time so it is
		// self-contained: replay restores the job from this one frame even
		// after compaction discards its accepted record.
		rec := journalRecord{
			Op: journalOpSettled, ID: j.id, Time: finished,
			State: state, Error: errText, Spec: &j.spec, Created: created,
		}
		if err := s.journal.append(rec); err != nil {
			s.logger.Warn("journal: settled append failed", "job_id", j.id, "err", err)
		}
		if n := s.settleCount.Add(1); n%journalCompactEvery == 0 {
			go s.compactJournal()
		}
	}
	s.metrics.jobDuration.With(j.kind).Observe(finished.Sub(created).Seconds())
	for _, p := range j.tracer.PhaseTotals() {
		s.metrics.phaseSeconds.With(p.Name).Observe(p.Seconds)
	}
	s.logger.Info("job settled",
		"job_id", j.id, "kind", j.kind, "target", j.target,
		"state", state, "duration", finished.Sub(created))
	s.mu.Lock()
	if j.dedupe != "" && s.activeByKey[j.dedupe] == j {
		delete(s.activeByKey, j.dedupe)
	}
	s.settled = append(s.settled, j.id)
	for len(s.settled) > maxFinishedJobs {
		oldest := s.settled[0]
		s.settled = s.settled[1:]
		delete(s.jobs, oldest)
	}
	s.mu.Unlock()
	close(j.done)
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/prefetchers", s.handlePrefetchers)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/figures/{name}", s.handleFigure)
	mux.HandleFunc("POST /v1/figures/{name}", s.handleFigureJob)
	mux.HandleFunc("POST /v1/runs", s.handleRunJob)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("POST /v1/cells", s.handleCell)
	mux.HandleFunc("POST /v1/cluster/workers", s.handleWorkerRegister)
	mux.HandleFunc("POST /v1/cluster/workers/{id}/heartbeat", s.handleWorkerHeartbeat)
	mux.HandleFunc("GET /v1/cluster/workers", s.handleWorkerList)
	mux.HandleFunc("GET /v1/store/results/{key}", s.handleStoreResultGet)
	mux.HandleFunc("PUT /v1/store/results/{key}", s.handleStoreResultPut)
	mux.HandleFunc("GET /v1/store/traces/{key}", s.handleStoreTraceGet)
	mux.HandleFunc("PUT /v1/store/traces/{key}", s.handleStoreTracePut)
	if s.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.withRequestID(mux)
}

// withRequestID counts requests, tags each with an id (propagating a
// caller-provided X-Request-ID), and logs it at debug level.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requests.Inc()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newJobID()
		}
		w.Header().Set("X-Request-ID", id)
		start := time.Now()
		next.ServeHTTP(w, r)
		s.logger.Debug("request",
			"method", r.Method, "path", r.URL.Path,
			"request_id", id, "duration", time.Since(start))
	})
}

// errorDoc is the JSON error body.
type errorDoc struct {
	Error string   `json:"error"`
	Known []string `json:"known,omitempty"`
}

// clearWriteDeadline exempts one response from the daemon-wide write
// timeout: SSE streams, synchronous figure/cell waits and artifact
// transfers are legitimately long-lived, while the timeout stays on to
// bound every ordinary response.
func clearWriteDeadline(w http.ResponseWriter) {
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
}

// clearReadDeadline exempts one request body from the daemon-wide read
// timeout (large artifact uploads).
func clearReadDeadline(w http.ResponseWriter) {
	_ = http.NewResponseController(w).SetReadDeadline(time.Time{})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// figureJob creates — or joins, via the dedup key — the job computing
// the named figure. Both the synchronous GET and the async POST funnel
// through it, so at most one computation per figure is ever in flight,
// including the custom plan cells run-level memoization cannot dedupe.
func (s *Server) figureJob(name string) (*job, error) {
	spec := jobSpec{Kind: "figure", Target: name, Dedupe: "figure/" + name, Figure: name}
	totalRuns, run, err := s.jobBody(spec)
	if err != nil {
		return nil, err
	}
	j, _, err := s.startJob(spec, totalRuns, run)
	return j, err
}

// handleFigure is the synchronous figure form: it waits on the (shared)
// figure job and serves its text. The leader's body always runs on a
// worker it already holds, so waiting here — on the handler goroutine —
// can never deadlock the pool.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.experiments[name]; !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{
			Error: fmt.Sprintf("unknown figure %q", name),
			Known: s.names,
		})
		return
	}
	// The wait below can exceed the daemon's write timeout; the figure
	// computation itself is the bound.
	clearWriteDeadline(w)
	for {
		// Fast path: a figure already persisted in the store is one disk
		// read — serve it without burning a worker slot, so cached
		// figures stay available even when the pool is saturated.
		if text, ok := s.session.CachedFigure(name); ok {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, text)
			return
		}
		j, err := s.figureJob(name)
		if err != nil {
			s.metrics.failures.Inc()
			writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: err.Error()})
			return
		}
		select {
		case <-j.done:
		case <-r.Context().Done():
			// The client went away; the job keeps computing for other
			// consumers and stays pollable at /v1/jobs.
			return
		}
		d := j.doc()
		switch {
		case d.State == JobDone:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, d.Figure)
			return
		case d.State == JobCancelled:
			if s.baseCtx.Err() != nil {
				// Server-wide cancellation (shutdown), not a DELETE on
				// the shared job: a fresh job would settle cancelled
				// instantly, so bail out instead of spinning.
				s.metrics.failures.Inc()
				writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: "server shutting down"})
				return
			}
			// Someone cancelled the shared job — not this request. Retry
			// with a fresh job while the client is still here.
			continue
		case d.Error == ErrBusy.Error():
			s.metrics.failures.Inc()
			writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: d.Error})
			return
		default:
			s.metrics.failures.Inc()
			writeJSON(w, http.StatusInternalServerError, errorDoc{Error: d.Error})
			return
		}
	}
}

// handleFigureJob is the async figure form: 202 + a pollable, cancellable
// job that regenerates the figure through its declarative plan.
// Duplicate requests join the in-flight job and receive the same id.
func (s *Server) handleFigureJob(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.experiments[name]; !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{
			Error: fmt.Sprintf("unknown figure %q", name),
			Known: s.names,
		})
		return
	}
	if text, ok := s.session.CachedFigure(name); ok {
		j := s.settledJob(jobSpec{Kind: "figure", Target: name, Figure: name}, func(j *job) { j.figure = text })
		w.Header().Set("Location", "/v1/jobs/"+j.id)
		writeJSON(w, http.StatusAccepted, j.doc())
		return
	}
	j, err := s.figureJob(name)
	if err != nil {
		s.metrics.failures.Inc()
		writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: err.Error()})
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.doc())
}

// RunRequest asks for one simulation under the daemon's session options.
type RunRequest struct {
	// Workload is a registered workload name (see GET /v1/workloads).
	Workload string `json:"workload"`
	// Prefetcher is a registered prefetcher name (see GET /v1/prefetchers);
	// empty selects the baseline system.
	Prefetcher string `json:"prefetcher"`
	// RegionSize optionally overrides the spatial region size in bytes
	// (power of two, ≥ the 64 B block size).
	RegionSize int `json:"region_size,omitempty"`
	// Sampling optionally runs the simulation in SMARTS-style sampled
	// mode (windowed measurement with confidence intervals in
	// Result.Sampling). Omitted or zero keeps the exact mode; sampled and
	// exact runs have distinct keys.
	Sampling *sim.SamplingConfig `json:"sampling,omitempty"`
}

// RunResponse carries one simulation outcome.
type RunResponse struct {
	Workload   string      `json:"workload"`
	Prefetcher string      `json:"prefetcher"`
	Key        string      `json:"key"`
	Result     *sim.Result `json:"result"`
}

// runConfig translates a request into the simulator config the session
// will execute, mirroring the experiment harness conventions (standard
// memory system, half-trace warm-up applied by the engine). It builds
// the run once to validate it, so a config the simulator rejects (an
// unknown prefetcher, an inconsistent sampling schedule, a region wider
// than a spatial pattern under SMS) is a bad request rather than a
// failed job.
func (s *Server) runConfig(req RunRequest) (sim.Config, error) {
	cfg := sim.Config{
		Coherence:      s.session.Options().MemorySystem(64),
		PrefetcherName: req.Prefetcher,
	}
	if cfg.PrefetcherName == "" {
		cfg.PrefetcherName = "none"
	}
	if req.RegionSize < 0 {
		return sim.Config{}, fmt.Errorf("region_size %d is negative", req.RegionSize)
	}
	if req.RegionSize > 0 {
		geo, err := mem.NewGeometry(mem.DefaultBlockSize, req.RegionSize)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Geometry = geo
	}
	if req.Sampling != nil {
		cfg.Sampling = *req.Sampling
	}
	if _, err := sim.NewRunner(cfg); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// maxRunRequestBytes caps the /v1/runs request body; a RunRequest is a
// few short fields, so anything larger is abuse of an open endpoint.
const maxRunRequestBytes = 64 << 10

// handleRunJob accepts a simulation request and returns 202 with a
// pollable, cancellable job. Cached results settle the job on its first
// poll (the engine serves them without simulating); fresh ones report
// record-level progress while they run.
func (s *Server) handleRunJob(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRunRequestBytes)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("decoding request: %v", err)})
		return
	}
	if _, err := workload.ByName(req.Workload); err != nil {
		known := make([]string, 0, len(workload.All()))
		for _, wl := range workload.All() {
			known = append(known, wl.Name)
		}
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error(), Known: known})
		return
	}
	cfg, run, err := s.runBody(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}

	spec := jobSpec{Kind: "run", Target: fmt.Sprintf("%s/%s", req.Workload, cfg.Canonical().PrefetcherName), Run: &req}
	if res, ok := s.session.CachedRun(req.Workload, cfg); ok {
		j := s.settledJob(spec, func(j *job) {
			j.progress = JobProgress{TotalRuns: 1, DoneRuns: 1, CachedRuns: 1}
			j.result = s.runResponse(req, cfg, res)
		})
		w.Header().Set("Location", "/v1/jobs/"+j.id)
		writeJSON(w, http.StatusAccepted, j.doc())
		return
	}
	j, _, err := s.startJob(spec, 1, run)
	if err != nil {
		s.metrics.failures.Inc()
		writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: err.Error()})
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.doc())
}

// jobStateFilter translates the ?state= query value into a predicate.
// Besides the five lifecycle states it accepts the aggregates "active"
// (queued or running) and "settled" (any terminal state).
func jobStateFilter(value string) (func(JobState) bool, bool) {
	switch JobState(value) {
	case "":
		return func(JobState) bool { return true }, true
	case JobQueued, JobRunning, JobDone, JobFailed, JobCancelled:
		want := JobState(value)
		return func(st JobState) bool { return st == want }, true
	}
	switch value {
	case "active":
		return func(st JobState) bool { return !st.terminal() }, true
	case "settled":
		return func(st JobState) bool { return st.terminal() }, true
	}
	return nil, false
}

// handleJobs lists jobs newest-first, optionally filtered with
// ?state= (queued|running|done|failed|cancelled|active|settled) and
// ?kind= (run|figure|cell).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	stateOK, ok := jobStateFilter(r.URL.Query().Get("state"))
	if !ok {
		writeJSON(w, http.StatusBadRequest, errorDoc{
			Error: fmt.Sprintf("unknown state filter %q", r.URL.Query().Get("state")),
			Known: []string{"queued", "running", "done", "failed", "cancelled", "active", "settled"},
		})
		return
	}
	kind := r.URL.Query().Get("kind")
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	docs := make([]JobDoc, 0, len(jobs))
	for _, j := range jobs {
		d := j.doc()
		if !stateOK(d.State) || (kind != "" && d.Kind != kind) {
			continue
		}
		docs = append(docs, d)
	}
	sort.Slice(docs, func(i, k int) bool { return docs[i].Created.After(docs[k].Created) })
	writeJSON(w, http.StatusOK, docs)
}

// lookupJob resolves a job id or writes a 404.
func (s *Server) lookupJob(w http.ResponseWriter, id string) (*job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: fmt.Sprintf("unknown job %q", id)})
		return nil, false
	}
	return j, true
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.doc())
}

// handleJobCancel cancels a job: queued jobs settle as cancelled without
// running; running jobs stop within one progress interval. Cancelling a
// settled job is a no-op that reports its final state.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	j.mu.Lock()
	if j.state == JobQueued {
		// The pool has not picked the body up yet; mark it so the body
		// settles immediately when it runs.
		j.state = JobCancelled
		s.metrics.jobsCancelled.Inc()
	}
	j.mu.Unlock()
	j.cancel()
	writeJSON(w, http.StatusOK, j.doc())
}

func (s *Server) handlePrefetchers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, sim.Names())
}

// workloadDoc describes one registered workload.
type workloadDoc struct {
	Name        string `json:"name"`
	Group       string `json:"group"`
	Description string `json:"description"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	var out []workloadDoc
	for _, wl := range workload.All() {
		out = append(out, workloadDoc{Name: wl.Name, Group: wl.Group, Description: wl.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTraces lists the trace artifacts cached in the store's disk
// trace tier — the v2 files the engine replays by mmap instead of
// regenerating. Without a store the tier does not exist and the list is
// empty.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	st := s.session.Store()
	if st == nil {
		writeJSON(w, http.StatusOK, []store.TraceInfo{})
		return
	}
	infos, err := st.ListTraces()
	if err != nil {
		s.metrics.failures.Inc()
		writeJSON(w, http.StatusInternalServerError, errorDoc{Error: err.Error()})
		return
	}
	if infos == nil {
		infos = []store.TraceInfo{}
	}
	writeJSON(w, http.StatusOK, infos)
}

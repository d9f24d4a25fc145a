package server

import (
	"net/http"

	"repro/internal/obs"
	"repro/internal/store"
)

// serverMetrics is every smsd instrument, registered on one obs
// registry rendered by /metrics. Counters the daemon owns are real
// obs.Counters; state owned elsewhere (engine accessors, store.Stats,
// queue depth) is bridged with scrape-time callbacks, so the legacy
// series names keep reporting without a second bookkeeping path.
type serverMetrics struct {
	reg *obs.Registry

	requests      *obs.Counter
	poolExecuted  *obs.Counter
	deduped       *obs.Counter
	rejected      *obs.Counter
	failures      *obs.Counter
	jobsCreated   *obs.Counter
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobsCancelled *obs.Counter

	queueWait     *obs.Histogram
	jobDuration   *obs.HistogramVec // by job kind
	runDuration   *obs.Histogram
	runRecRate    *obs.Histogram    // records per second per finished run
	phaseSeconds  *obs.HistogramVec // by sampled-run phase
	subscribers   *obs.Gauge
	eventsSent    *obs.Counter
	eventsDropped *obs.Counter
}

// newMetrics wires the registry against a fully-constructed Server.
// reg lets the daemon share one registry with other subsystems (the
// cluster coordinator); nil gets a private one.
func newMetrics(s *Server, reg *obs.Registry) *serverMetrics {
	r := reg
	if r == nil {
		r = obs.NewRegistry()
	}
	m := &serverMetrics{reg: r}

	r.GaugeFunc("smsd_up", "Whether the daemon is serving.", func() float64 { return 1 })
	r.GaugeFunc("smsd_workers", "Worker pool size.", func() float64 { return float64(s.workers) })
	r.GaugeFunc("smsd_queue_depth", "Jobs waiting in the pool queue.", func() float64 { return float64(len(s.jobsCh)) })
	r.GaugeFunc("smsd_jobs_active", "Jobs currently running.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.active)
	})
	r.GaugeFunc("smsd_jobs_pending", "Jobs queued but not yet started.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.pending)
	})

	m.requests = r.Counter("smsd_requests_total", "HTTP requests received.")
	m.poolExecuted = r.Counter("smsd_pool_tasks_executed_total", "Tasks executed by the worker pool.")
	m.jobsCreated = r.Counter("smsd_jobs_created_total", "Jobs accepted (created or settled from cache).")
	m.jobsDone = r.Counter("smsd_jobs_completed_total", "Jobs that finished successfully.")
	m.jobsFailed = r.Counter("smsd_jobs_failed_total", "Jobs that failed.")
	m.jobsCancelled = r.Counter("smsd_jobs_cancelled_total", "Jobs cancelled before or during execution.")
	m.deduped = r.Counter("smsd_jobs_deduplicated_total", "Requests joined onto an in-flight job.")
	m.rejected = r.Counter("smsd_jobs_rejected_total", "Tasks shed because the queue was full.")
	m.failures = r.Counter("smsd_request_failures_total", "Requests answered with a 5xx error.")

	eng := s.session.Engine()
	r.CounterFunc("smsd_simulations_total", "Simulations actually executed (cache hits excluded).", s.session.Simulations)
	r.CounterFunc("smsd_engine_store_hits_total", "Runs served from the persistent store.", eng.StoreHits)
	r.CounterFunc("smsd_engine_memo_hits_total", "Runs served from or coalesced into the in-memory memo.", eng.MemoHits)
	r.CounterFunc("smsd_engine_cancelled_runs_total", "Started simulations cancelled mid-run.", eng.CancelledRuns)
	r.CounterFunc("smsd_engine_trace_generations_total", "Workload generator executions.", eng.TraceGenerations)
	r.CounterFunc("smsd_trace_tier_hits_total", "Runs replayed from an mmap'd trace artifact.", eng.TraceTierHits)
	r.CounterFunc("smsd_trace_tier_misses_total", "Disk trace-tier probes that found no artifact.", eng.TraceTierMisses)

	// Store series render as 0 when no store is attached; previously they
	// were omitted entirely, which real scrapers treat as a series reset.
	storeStat := func(pick func(st store.Stats) uint64) func() uint64 {
		return func() uint64 {
			st := s.session.Store()
			if st == nil {
				return 0
			}
			return pick(st.Stats())
		}
	}
	r.CounterFunc("smsd_store_hits_total", "Store objects read from disk and decoded.", storeStat(func(st store.Stats) uint64 { return st.Hits }))
	r.CounterFunc("smsd_store_misses_total", "Store object misses.", storeStat(func(st store.Stats) uint64 { return st.Misses }))
	r.CounterFunc("smsd_store_writes_total", "Objects written to the store.", storeStat(func(st store.Stats) uint64 { return st.Writes }))
	r.CounterFunc("smsd_store_corrupt_total", "Corrupt store objects treated as misses.", storeStat(func(st store.Stats) uint64 { return st.Corrupt }))
	r.CounterFunc("smsd_store_corrupt_quarantined_total", "Corrupt store objects moved to the quarantine directory.", storeStat(func(st store.Stats) uint64 { return st.Quarantined }))
	r.CounterFunc("smsd_store_bytes_read_total", "Bytes read from store objects on disk.", storeStat(func(st store.Stats) uint64 { return st.BytesRead }))
	r.CounterFunc("smsd_store_bytes_written_total", "Bytes written to store objects on disk.", storeStat(func(st store.Stats) uint64 { return st.BytesWritten }))
	r.CounterFunc("smsd_trace_tier_artifact_hits_total", "Trace-tier artifact opens that found a file.", storeStat(func(st store.Stats) uint64 { return st.TraceHits }))
	r.CounterFunc("smsd_trace_tier_artifact_misses_total", "Trace-tier artifact opens that found nothing.", storeStat(func(st store.Stats) uint64 { return st.TraceMisses }))
	r.CounterFunc("smsd_trace_tier_writes_total", "Trace artifacts written to the tier.", storeStat(func(st store.Stats) uint64 { return st.TraceWrites }))
	r.CounterFunc("smsd_trace_tier_bytes_read_total", "Bytes read from trace artifacts.", storeStat(func(st store.Stats) uint64 { return st.TraceBytesRead }))
	r.CounterFunc("smsd_trace_tier_bytes_written_total", "Bytes written to trace artifacts.", storeStat(func(st store.Stats) uint64 { return st.TraceBytesWritten }))

	// Sub-second through multi-hour: jobs range from cached probes to
	// multi-figure grids over hundred-million-record traces.
	durBuckets := obs.ExpBuckets(0.001, 4, 12)
	m.queueWait = r.Histogram("smsd_job_queue_wait_seconds", "Time jobs spent queued before a worker picked them up.", durBuckets)
	m.jobDuration = r.HistogramVec("smsd_job_duration_seconds", "Job wall time from creation to settlement.", durBuckets, "kind")
	m.runDuration = r.Histogram("smsd_run_duration_seconds", "Wall time of individual simulation runs.", durBuckets)
	m.runRecRate = r.Histogram("smsd_run_records_per_second", "Simulated trace records per second per finished run.", obs.ExpBuckets(10_000, 4, 12))
	m.phaseSeconds = r.HistogramVec("smsd_run_phase_seconds", "Wall time per run phase (gap/warm/window/trace-generate/...).", durBuckets, "phase")

	// Journal/recovery series render as 0 when journaling is off (the
	// accessors are nil-safe), mirroring the no-store convention above.
	r.GaugeFunc("smsd_journal_enabled", "Whether the durable job journal is on.", func() float64 {
		if s.journal != nil {
			return 1
		}
		return 0
	})
	r.CounterFunc("smsd_journal_appends_total", "Records appended to the job journal.", s.journal.appendCount)
	r.CounterFunc("smsd_journal_fsyncs_total", "Journal fsync calls.", s.journal.fsyncCount)
	r.CounterFunc("smsd_journal_bytes_total", "Bytes written to the job journal.", s.journal.byteCount)
	r.CounterFunc("smsd_journal_compactions_total", "Journal compaction rewrites.", s.journal.compactionCount)
	r.CounterFunc("smsd_journal_torn_records_total", "Torn journal tails truncated during replay.", s.journal.tornCount)
	r.CounterFunc("smsd_recovery_jobs_requeued_total", "Live jobs requeued from the journal on startup.", s.recRequeued.Load)
	r.CounterFunc("smsd_recovery_jobs_restored_total", "Settled jobs restored from the journal on startup.", s.recRestored.Load)
	r.CounterFunc("smsd_fault_injections_total", "Faults injected by the deterministic fault plan.", s.fault.Injections)

	m.subscribers = r.Gauge("smsd_job_event_subscribers", "Live /v1/jobs/{id}/events streams.")
	m.eventsSent = r.Counter("smsd_job_events_sent_total", "Events delivered to job event streams.")
	m.eventsDropped = r.Counter("smsd_job_events_dropped_total", "Events dropped from slow job event streams.")
	return m
}

// handleMetrics renders the registry as Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WritePrometheus(w)
}

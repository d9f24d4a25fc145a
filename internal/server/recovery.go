package server

// Restart recovery: how a journal replay turns back into live state.
// Settled jobs are adopted directly — re-registered for GET /v1/jobs
// with their results refilled from the content-addressed store, no
// worker slot spent. Live jobs (accepted or started when the daemon
// died) are resubmitted through the normal pool with their identities
// preserved, so a client polling a job id across the crash sees the
// same job finish. Because the engine probes the store before
// simulating, a warm recovery — everything already content-addressed —
// settles the whole backlog without scattering a single cell.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/workload"
)

// journalCompactEvery is how many settlements pass between journal
// compactions; it bounds the journal to roughly this many settled
// records beyond the retained job list.
const journalCompactEvery = 256

// jobBody builds the executable body of a job spec, and the run count its
// progress reports against, or reports why the spec cannot run (a figure
// or workload unknown, or renamed across a restart). figureJob and
// handleRunJob build their jobs through it, and recovery rebuilds
// journaled jobs through it.
func (s *Server) jobBody(spec jobSpec) (totalRuns int, run func(ctx context.Context, j *job) error, err error) {
	switch spec.Kind {
	case "figure":
		runner, ok := s.experiments[spec.Figure]
		if !ok {
			return 0, nil, fmt.Errorf("unknown figure %q", spec.Figure)
		}
		totalRuns = 0
		if plan, ok := exp.PlanFor(spec.Figure, s.session.Options()); ok {
			totalRuns = len(plan.Workloads)*len(plan.Variants) + len(plan.Customs)
		}
		return totalRuns, func(ctx context.Context, j *job) error {
			text, err := s.session.RunFigure(ctx, spec.Figure, runner)
			if err != nil {
				return err
			}
			j.mu.Lock()
			j.figure = text
			j.mu.Unlock()
			return nil
		}, nil
	case "run":
		if spec.Run == nil {
			return 0, nil, fmt.Errorf("run job without a request")
		}
		_, run, err := s.runBody(*spec.Run)
		return 1, run, err
	default:
		return 0, nil, fmt.Errorf("unknown job kind %q", spec.Kind)
	}
}

// runBody validates one run request and returns the simulator config it
// runs and its job body.
func (s *Server) runBody(req RunRequest) (sim.Config, func(ctx context.Context, j *job) error, error) {
	if _, err := workload.ByName(req.Workload); err != nil {
		return sim.Config{}, nil, err
	}
	cfg, err := s.runConfig(req)
	if err != nil {
		return sim.Config{}, nil, err
	}
	return cfg, func(ctx context.Context, j *job) error {
		res, err := s.session.Run(ctx, req.Workload, cfg)
		if err != nil {
			return err
		}
		j.mu.Lock()
		j.result = s.runResponse(req, cfg, res)
		j.mu.Unlock()
		return nil
	}, nil
}

// runResponse is the response document of one run request's result.
func (s *Server) runResponse(req RunRequest, cfg sim.Config, res *sim.Result) *RunResponse {
	return &RunResponse{
		Workload:   req.Workload,
		Prefetcher: cfg.Canonical().PrefetcherName,
		Key:        s.session.RunKey(req.Workload, cfg),
		Result:     res,
	}
}

// recover folds the replayed journal back into the server: adopt the
// settled jobs, compact the journal down to what matters (one summary
// per retained settled job, one accepted record per live job — so the
// file stops growing across restart loops), then resubmit the live
// jobs. Compaction comes first so a resubmitted job's started/settled
// appends land after its compacted accepted record.
func (s *Server) recover(jobs []*journalJob) {
	var live []*journalJob
	for _, jj := range jobs {
		if jj.settled {
			s.adoptSettled(jj)
			s.recRestored.Add(1)
		} else {
			live = append(live, jj)
		}
	}

	recs := make([]journalRecord, 0, len(jobs))
	s.mu.Lock()
	for _, id := range s.settled {
		j := s.jobs[id]
		if j == nil || !j.journaled {
			continue
		}
		recs = append(recs, journalRecord{
			Op: journalOpSettled, ID: j.id, Time: j.finished,
			State: j.state, Error: j.errText, Spec: &j.spec, Created: j.created,
		})
	}
	s.mu.Unlock()
	for _, jj := range live {
		recs = append(recs, journalRecord{
			Op: journalOpAccepted, ID: jj.id, Time: jj.created, Spec: &jj.spec,
		})
	}
	if err := s.journal.rewrite(recs); err != nil {
		s.logger.Warn("journal: recovery compaction failed", "err", err)
	}

	for _, jj := range live {
		s.resubmit(jj)
	}
	if len(jobs) > 0 {
		s.logger.Info("journal recovery complete",
			"restored", s.recRestored.Load(), "requeued", s.recRequeued.Load(),
			"torn_records", s.journal.tornCount())
	}
}

// adoptSettled re-registers one settled job from its journal summary,
// refilling the result from the store when it is still there. It
// bypasses settleJob on purpose: the job settled in a previous life,
// so it must not re-count metrics or re-journal.
func (s *Server) adoptSettled(jj *journalJob) {
	j := &job{
		id:        jj.id,
		kind:      jj.spec.Kind,
		target:    jj.spec.Target,
		created:   jj.created,
		finished:  jj.finished,
		state:     jj.state,
		errText:   jj.errText,
		spec:      jj.spec,
		journaled: true,
		restored:  true,
		cancel:    func() {},
		inflight:  make(map[string]uint64),
		runStarts: make(map[string]time.Time),
		done:      make(chan struct{}),
	}
	if j.state == "" {
		j.state = JobDone
	}
	if j.state == JobDone {
		switch jj.spec.Kind {
		case "figure":
			if text, ok := s.session.CachedFigure(jj.spec.Figure); ok {
				j.figure = text
			}
		case "run":
			if jj.spec.Run != nil {
				req := *jj.spec.Run
				if cfg, err := s.runConfig(req); err == nil {
					if res, ok := s.session.CachedRun(req.Workload, cfg); ok {
						j.progress = JobProgress{TotalRuns: 1, DoneRuns: 1, CachedRuns: 1}
						j.result = s.runResponse(req, cfg, res)
					}
				}
			}
		}
	}
	// The dedupe field stays empty: a settled job must not occupy the
	// single-flight slot its spec's key names.
	s.mu.Lock()
	s.registerJobLocked(j)
	s.settled = append(s.settled, j.id)
	for len(s.settled) > maxFinishedJobs {
		oldest := s.settled[0]
		s.settled = s.settled[1:]
		delete(s.jobs, oldest)
	}
	s.mu.Unlock()
	close(j.done)
}

// resubmit requeues one live journal job through the normal pool with
// its identity preserved. A spec that can no longer run (or a full
// queue) settles the job failed instead — visible at /v1/jobs, never
// silently dropped.
func (s *Server) resubmit(jj *journalJob) {
	adoptFailed := func(reason string) {
		s.logger.Warn("journal: cannot requeue job",
			"job_id", jj.id, "kind", jj.spec.Kind, "target", jj.spec.Target, "err", reason)
		failed := *jj
		failed.settled = true
		failed.state = JobFailed
		failed.errText = reason
		failed.finished = time.Now()
		s.adoptSettled(&failed)
		s.recRequeued.Add(1)
		if err := s.journal.append(journalRecord{
			Op: journalOpSettled, ID: jj.id, Time: failed.finished,
			State: JobFailed, Error: reason, Spec: &jj.spec, Created: jj.created,
		}); err != nil {
			s.logger.Warn("journal: settled append failed", "job_id", jj.id, "err", err)
		}
		return
	}

	totalRuns, body, err := s.jobBody(jj.spec)
	if err != nil {
		adoptFailed(err.Error())
		return
	}
	j := &job{
		id:        jj.id,
		kind:      jj.spec.Kind,
		target:    jj.spec.Target,
		dedupe:    jj.spec.Dedupe,
		created:   jj.created,
		spec:      jj.spec,
		journaled: true, // the compacted journal already holds its accepted record
		restored:  true,
	}
	if _, joined, err := s.launchJob(j, totalRuns, body); err != nil {
		// launchJob already settled the job failed (ErrBusy) and journaled
		// the settlement; nothing more to do.
		s.logger.Warn("journal: requeued job rejected", "job_id", jj.id, "err", err)
	} else if joined {
		// Two live journal entries shared a dedupe key — possible only if
		// a past compaction raced a settlement. The earlier resubmission
		// owns the key; this duplicate is already represented by it.
		s.logger.Warn("journal: requeued job joined an earlier recovery job", "job_id", jj.id)
	}
	s.recRequeued.Add(1)
	s.logger.Info("journal: requeued job",
		"job_id", jj.id, "kind", jj.spec.Kind, "target", jj.spec.Target, "started_before_crash", jj.started)
}

// compactJournal rewrites the journal to the live truth: one summary
// per retained settled job, one accepted record per live journaled
// job. A settlement racing the snapshot is rewritten as live and
// merely replays one state earlier on the next restart — the engine's
// store probe settles it again without re-simulating.
func (s *Server) compactJournal() {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, id := range s.settled {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	for _, j := range s.jobs {
		live := false
		j.mu.Lock()
		live = !j.state.terminal()
		j.mu.Unlock()
		if live {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()

	recs := make([]journalRecord, 0, len(jobs))
	for _, j := range jobs {
		if !j.journaled {
			continue
		}
		j.mu.Lock()
		if j.state.terminal() {
			recs = append(recs, journalRecord{
				Op: journalOpSettled, ID: j.id, Time: j.finished,
				State: j.state, Error: j.errText, Spec: &j.spec, Created: j.created,
			})
		} else {
			recs = append(recs, journalRecord{
				Op: journalOpAccepted, ID: j.id, Time: j.created, Spec: &j.spec,
			})
		}
		j.mu.Unlock()
	}
	if err := s.journal.rewrite(recs); err != nil {
		s.logger.Warn("journal: compaction failed", "err", err)
		return
	}
	s.logger.Debug("journal compacted", "records", len(recs))
}

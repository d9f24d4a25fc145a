package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ladderReps is how many times each rung runs; its value is the median
// chunk over all of them, the same estimator as ns_per_record_p50.
const ladderReps = 3

// corpus is the trace a ladder climbs, replayed the way its workload
// replays it (from memory or from the trace tier), so every rung pays the
// same source cost and rung differences isolate one layer each.
type corpus struct {
	source  func() trace.Source
	records uint64
	// base is the workload's memory system and warm-up with no prefetcher
	// and no generation tracking.
	base sim.Config
	// variant returns the workload's configuration of a prefetcher.
	variant func(name string) sim.Config
}

// ladderSink keeps the replay rung's reads observable to the compiler.
var ladderSink mem.Addr

// ladder times the layers of the simulator on c, one rung per layer:
//
//	replay → access → step_none → step_gens | step_sms | step_ls | step_nextline
//
// and records each layer's cost as the difference between rungs. It
// returns the Result of each step rung, for checks against the workload's
// own outputs.
func (r *run) ladder(c corpus) (map[string]*sim.Result, error) {
	results := map[string]*sim.Result{}
	rung := func(name string, fn func(clock *chunkClock) error) (float64, error) {
		var ns []float64
		for i := 0; i < ladderReps; i++ {
			clock := chunkClock{every: r.sc.chunk}
			t0 := time.Now()
			if err := fn(&clock); err != nil {
				return 0, fmt.Errorf("ladder rung %s: %w", name, err)
			}
			r.span("rung "+name, "ladder", t0)
			ns = append(ns, clock.ns...)
		}
		return median(ns), nil
	}
	step := func(name string, cfg sim.Config) (float64, error) {
		return rung(name, func(clock *chunkClock) error {
			res, err := stepRun(r.ctx, cfg, c.source(), clock)
			results[name] = res
			return err
		})
	}

	replay, err := rung("replay", func(clock *chunkClock) error {
		return replayViews(c.source(), clock)
	})
	if err != nil {
		return nil, err
	}
	var counts accessCounts
	access, err := rung("access", func(clock *chunkClock) error {
		return counts.run(c.source(), c.base.Canonical().Coherence, clock)
	})
	if err != nil {
		return nil, err
	}
	none, err := step("step_none", c.base)
	if err != nil {
		return nil, err
	}
	gensCfg := c.base
	gensCfg.TrackGenerations = true
	gens, err := step("step_gens", gensCfg)
	if err != nil {
		return nil, err
	}
	pf := map[string]float64{}
	for _, name := range []string{"sms", "ls", "nextline"} {
		if pf[name], err = step("step_"+name, c.variant(name)); err != nil {
			return nil, err
		}
	}

	rep := r.rep
	rep.set("trace.replay_ns_per_record", replay)
	rep.set("coherence.access_ns_per_record", access-replay)
	rep.set("sim.account_ns_per_record", none-access)
	rep.set("sim.gens_ns_per_record", gens-none)
	rep.set("sim.prefetch_sms_ns_per_record", pf["sms"]-none)
	rep.set("sim.prefetch_ls_ns_per_record", pf["ls"]-none)
	rep.set("sim.prefetch_nextline_ns_per_record", pf["nextline"]-none)
	n := float64(counts.accesses)
	rep.set("coherence.l1_miss_ratio", ratio(float64(counts.l1Misses), n))
	rep.set("coherence.l2_miss_ratio", ratio(float64(counts.l2Misses), n))
	rep.set("coherence.l2_evictions_per_access", ratio(float64(counts.l2Evictions), n))
	rep.set("coherence.invalidations_per_access", ratio(float64(counts.invalidations), n))
	rep.note("ladder.replay_ns_per_record", replay, "ns")
	rep.note("ladder.access_ns_per_record", access, "ns")
	rep.note("ladder.step_none_ns_per_record", none, "ns")
	rep.note("ladder.step_gens_ns_per_record", gens, "ns")
	for _, name := range []string{"sms", "ls", "nextline"} {
		rep.note("ladder.step_"+name+"_ns_per_record", pf[name], "ns")
	}

	if err := r.coreProbe(c, pf["sms"]-none, results["step_sms"]); err != nil {
		return nil, err
	}
	return results, nil
}

// stepRun runs one full simulation of src under cfg, timing chunks.
func stepRun(ctx context.Context, cfg sim.Config, src trace.Source, clock *chunkClock) (*sim.Result, error) {
	runner, err := sim.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	runner.OnProgress(clock.every, clock.progress)
	clock.start()
	return runner.RunContext(ctx, src)
}

// replayViews reads every record of src a batch at a time, the way the
// simulator's drain loop reads them, timing chunks.
func replayViews(src trace.Source, clock *chunkClock) error {
	views, ok := src.(trace.ViewSource)
	if !ok {
		return fmt.Errorf("corpus source %T does not serve views", src)
	}
	var n uint64
	var sink mem.Addr
	clock.start()
	for {
		v := views.NextView(sim.DefaultBatchRecords)
		if len(v) == 0 {
			break
		}
		for i := range v {
			sink ^= v[i].Addr
		}
		n += uint64(len(v))
		clock.progress(n)
	}
	ladderSink ^= sink
	if e, ok := src.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// accessCounts tallies the coherence outcomes of a replay.
type accessCounts struct {
	accesses, l1Misses, l2Misses, l2Evictions, invalidations uint64
}

// run replays src through a fresh memory system. The loop is written
// out, not passed to replayViews as a callback, so the rung costs what the
// runner's own call to AccessInto costs.
func (a *accessCounts) run(src trace.Source, cfg coherence.Config, clock *chunkClock) error {
	sys, err := coherence.New(cfg)
	if err != nil {
		return err
	}
	views, ok := src.(trace.ViewSource)
	if !ok {
		return fmt.Errorf("corpus source %T does not serve views", src)
	}
	var acc coherence.AccessResult
	var n, l1, l2, evictions, invalidations uint64
	clock.start()
	for {
		v := views.NextView(sim.DefaultBatchRecords)
		if len(v) == 0 {
			break
		}
		for i := range v {
			rec := &v[i]
			sys.AccessInto(&acc, int(rec.CPU), rec.Addr, rec.IsWrite())
			if acc.Missed(coherence.LevelL1) {
				l1++
			}
			if acc.Missed(coherence.LevelL2) {
				l2++
			}
			evictions += uint64(len(acc.L2Evictions))
			invalidations += uint64(len(acc.Invalidations))
		}
		n += uint64(len(v))
		clock.progress(n)
	}
	*a = accessCounts{accesses: n, l1Misses: l1, l2Misses: l2, l2Evictions: evictions, invalidations: invalidations}
	if e, ok := src.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// coreProbe runs the SMS rung again with the timing probe around every
// engine and splits the prefetcher's cost into Train, Drain and the
// stream fills the runner does with what Drain returns. The probed run
// must reproduce the plain rung's Result.
func (r *run) coreProbe(c corpus, prefetchSMS float64, plain *sim.Result) error {
	cfg := c.variant("sms")
	cfg.PrefetcherName = probeName
	clk := clockCost(c.variant("sms"))
	probe.reset(r.tracer)
	defer probe.reset(nil)
	t0 := time.Now()
	res, err := stepRun(r.ctx, cfg, c.source(), &chunkClock{every: r.sc.chunk})
	if err != nil {
		return fmt.Errorf("probed SMS run: %w", err)
	}
	r.span("probed step_sms", "ladder", t0)
	got, err := digest(res)
	if err != nil {
		return err
	}
	want, err := digest(plain)
	if err != nil {
		return err
	}
	r.rep.check(got == want, "probed SMS Result %s differs from the plain rung's %s", got, want)

	t := probe.totals()
	var st core.Stats
	for _, s := range res.SMSStats {
		st.Accesses += s.Accesses
		st.Triggers += s.Triggers
		st.Predictions += s.Predictions
		st.StreamsIssued += s.StreamsIssued
	}
	train := perCall(t.trainNS, t.trainTimed, clk)
	drain := perCall(t.drainNS, t.drainTimed, clk)
	rep := r.rep
	rep.set("core.train_ns_per_call", train)
	rep.set("core.trains", float64(t.trains))
	rep.set("core.drain_ns_per_call", drain)
	rep.set("core.drains", float64(t.drains))
	rep.set("core.drain_empty_ratio", ratio(float64(t.emptyDrains), float64(t.drains)))
	rep.set("core.prediction_ratio", ratio(float64(st.Predictions), float64(st.Triggers)))
	rep.set("core.streams_per_access", ratio(float64(st.StreamsIssued), float64(st.Accesses)))
	perRecord := (train*float64(t.trains) + drain*float64(t.drains)) / float64(c.records)
	rep.set("sim.stream_fill_ns_per_record", prefetchSMS-perRecord)
	rep.note("core.clock_ns", clk, "ns")
	return nil
}

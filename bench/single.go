package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// singleSpec is a workload that times one exact simulation run.
type singleSpec struct {
	generator string
	// cfg is the run's configuration; the warm-up is half the trace.
	cfg sim.Config
	// tier replays the trace from a store's trace tier (mmap'd v2 file)
	// instead of from memory.
	tier bool
}

var (
	smsTier  = singleSpec{generator: "oltp-oracle", cfg: sim.Config{PrefetcherName: "sms"}, tier: true}
	gensScan = singleSpec{generator: "dss-q1", cfg: sim.Config{PrefetcherName: "none", TrackGenerations: true}}
)

func runSMSTier(r *run) error  { return r.single(smsTier) }
func runGensScan(r *run) error { return r.single(gensScan) }

func singleWorkloadConfig(seed int64, records uint64) workload.Config {
	return workload.Config{CPUs: 4, Seed: seed, Length: records}
}

func (s singleSpec) simConfig(records uint64) sim.Config {
	cfg := s.cfg
	cfg.WarmupAccesses = records / 2
	return cfg
}

// singleInput is the trace a single-run workload replays.
type singleInput struct {
	file *trace.File    // tier replay
	recs []trace.Record // memory replay
}

func (in *singleInput) source() trace.Source {
	if in.file != nil {
		return in.file.NewSource()
	}
	return trace.NewSliceSource(in.recs)
}

func (in *singleInput) close() {
	if in != nil && in.file != nil {
		in.file.Close()
	}
}

// buildInput generates the workload's trace, into a fresh store's trace
// tier under dir or into memory.
func (s singleSpec) buildInput(wcfg workload.Config, dir string) (*singleInput, error) {
	w, err := workload.ByName(s.generator)
	if err != nil {
		return nil, err
	}
	if !s.tier {
		recs := make([]trace.Record, wcfg.Length)
		src := trace.Batched(w.Make(wcfg))
		n := 0
		for n < len(recs) {
			k := src.NextBatch(recs[n:])
			if k == 0 {
				break
			}
			n += k
		}
		return &singleInput{recs: recs[:n]}, nil
	}
	f, err := storeTrace(dir, s.generator, wcfg)
	if err != nil {
		return nil, err
	}
	return &singleInput{file: f}, nil
}

// storeTrace streams a generated trace into a fresh store's trace tier
// and opens it for replay, the way the engine's tier path does.
func storeTrace(dir, name string, wcfg workload.Config) (*trace.File, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	key := store.ForTrace(name, wcfg)
	sink, err := st.BeginTrace(key, trace.Header{CPUs: wcfg.CPUs, Geometry: mem.DefaultGeometry(), Workload: name, WorkloadHash: key})
	if err != nil {
		return nil, err
	}
	src := trace.Batched(w.Make(wcfg))
	buf := make([]trace.Record, sim.DefaultBatchRecords)
	for {
		n := src.NextBatch(buf)
		if n == 0 {
			break
		}
		if err := sink.W.WriteBatch(buf[:n]); err != nil {
			sink.Abort()
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := sink.Commit(); err != nil {
		return nil, err
	}
	f, ok := st.OpenTrace(key)
	if !ok {
		return nil, fmt.Errorf("trace %s did not open after writing it", key)
	}
	return f, nil
}

// reference simulates the workload straight from its generator: the
// independent path every replayed Result must reproduce.
func (s singleSpec) reference(ctx context.Context, runner *sim.Runner, wcfg workload.Config) (string, error) {
	w, err := workload.ByName(s.generator)
	if err != nil {
		return "", err
	}
	res, err := runner.RunContext(ctx, w.Make(wcfg))
	if err != nil {
		return "", fmt.Errorf("reference run: %w", err)
	}
	return digest(res)
}

func (s singleSpec) pin(ctx context.Context, seed int64, sc scale) (workloadPin, error) {
	runner, err := sim.NewRunner(s.simConfig(sc.records))
	if err != nil {
		return workloadPin{}, err
	}
	sha, err := s.reference(ctx, runner, singleWorkloadConfig(seed, sc.records))
	if err != nil {
		return workloadPin{}, err
	}
	return workloadPin{Length: sc.records, SHA256: map[string]string{"result": sha}}, nil
}

// single runs a single-run workload: build the inputs (timed, several
// times), one untimed reference rep from the generator, then timed reps
// replaying the inputs with a fresh Runner each.
func (r *run) single(s singleSpec) error {
	n := r.sc.records
	if err := r.checkPinScale(n); err != nil {
		return err
	}
	wcfg := singleWorkloadConfig(r.seed, n)
	cfg := s.simConfig(n)

	var in *singleInput
	var runner *sim.Runner
	var setups []float64
	for i := 0; i < r.sc.setups; i++ {
		in.close()
		in = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = s.buildInput(wcfg, filepath.Join(r.work, fmt.Sprintf("store-%d", i))); err != nil {
			return fmt.Errorf("building inputs: %w", err)
		}
		if runner, err = sim.NewRunner(cfg); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.span("setup", "bench", t0)
	}
	defer in.close()

	t0 := time.Now()
	ref, err := s.reference(r.ctx, runner, wcfg)
	if err != nil {
		return err
	}
	r.span("reference rep", "bench", t0)

	var untraced, traced []repTime
	var chunks []float64
	var windowS []float64
	var peak float64
	err = repeat(r.budget, r.sc.minReps, func(i int) error {
		runner, err := sim.NewRunner(cfg)
		if err != nil {
			return err
		}
		clock := chunkClock{every: r.sc.chunk}
		runner.OnProgress(r.sc.chunk, clock.progress)
		ctx, tr := r.repContext(i)
		src := in.source()
		var res *sim.Result
		start := time.Now()
		t, err := timeRep(func() error {
			clock.start()
			var err error
			res, err = runner.RunContext(ctx, src)
			return err
		})
		r.span(repName(tr), "bench", start)
		if i == r.sc.minReps-1 {
			peak = peakRSSMB()
		}
		if err != nil {
			r.rep.check(false, "rep %d: %v", i, err)
			return nil
		}
		sha, err := digest(res)
		if err != nil {
			return err
		}
		r.rep.check(sha == ref && r.expect("result", sha),
			"rep %d Result %s, reference %s, pin %s", i, sha, ref, r.pinned("result"))
		if tr == nil {
			untraced = append(untraced, t)
			chunks = append(chunks, clock.ns...)
			return nil
		}
		traced = append(traced, t)
		windowS = append(windowS, phaseSeconds(tr, "window"))
		r.absorb(tr)
		return nil
	})
	if err != nil {
		return err
	}

	if !r.traced {
		r.endToEnd(untraced, setups, chunks, peak)
		return nil
	}
	r.chunkTail(chunks)
	r.rep.set("sim.window_s", median(windowS))
	r.overhead(untraced, traced)
	results, err := r.ladder(corpus{
		source:  in.source,
		records: n,
		base:    sim.Config{Coherence: cfg.Coherence, WarmupAccesses: cfg.WarmupAccesses},
		variant: func(name string) sim.Config {
			c := cfg
			c.PrefetcherName, c.TrackGenerations = name, false
			return c
		},
	})
	if err != nil {
		return err
	}
	// The ladder rung with this workload's own configuration replays the
	// same corpus, so it must reproduce the workload's Result.
	rung := "step_sms"
	if s.cfg.TrackGenerations {
		rung = "step_gens"
	}
	sha, err := digest(results[rung])
	if err != nil {
		return err
	}
	r.rep.check(sha == ref, "ladder rung %s Result %s differs from the reference %s", rung, sha, ref)
	return nil
}

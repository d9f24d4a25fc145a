package sim_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// execTrace builds the shared input stream for the pipelined/parallel
// differentials: a generator-shaped workload trace.
func execTrace(t *testing.T, length uint64) []trace.Record {
	t.Helper()
	w, err := workload.ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	return trace.Collect(w.Make(workload.Config{CPUs: 4, Seed: 11, Length: length}), 0)
}

// TestPipelinedRunMatchesSerial is the lanes' bit-identity gate: for
// every registered prefetcher, Result JSON must be byte-identical across
// the plain serial path and the lane-parallel path (which conflict-
// replays serially for prefetcher configs and genuinely shards for the
// baseline). Run with -race this also exercises the hand-off rings under
// the race detector.
func TestPipelinedRunMatchesSerial(t *testing.T) {
	recs := execTrace(t, 50_000)
	for _, pf := range []string{"none", "sms", "ls", "ghb", "stride", "nextline"} {
		t.Run(pf, func(t *testing.T) {
			cfg := sim.Config{
				PrefetcherName:   pf,
				WarmupAccesses:   20_001, // deliberately not batch-aligned
				TrackGenerations: true,
			}
			serial := sim.MustNewRunner(cfg)
			want, err := serial.RunContext(context.Background(), trace.NewSliceSource(recs))
			if err != nil {
				t.Fatal(err)
			}
			wantJSON := resultJSON(t, want)

			for _, x := range []sim.Exec{
				{Lanes: 2},
				{Lanes: 4},
				{Lanes: 8},
			} {
				r := sim.MustNewRunner(cfg)
				r.SetExec(x)
				got, err := r.RunContext(context.Background(), trace.NewSliceSource(recs))
				if err != nil {
					t.Fatalf("exec %+v: %v", x, err)
				}
				if gotJSON := resultJSON(t, got); gotJSON != wantJSON {
					t.Fatalf("exec %+v Result JSON differs from serial:\n%s\nvs\n%s", x, gotJSON, wantJSON)
				}
				ps := r.PipelineStats()
				if x.Lanes > 1 && pf != "none" {
					if ps.ConflictReplays != 1 || ps.Lanes != 1 {
						t.Fatalf("exec %+v with prefetcher %s: want serial conflict replay, got %+v", x, pf, ps)
					}
				}
				if x.Lanes > 1 && pf == "none" {
					if ps.Lanes < 2 {
						t.Fatalf("exec %+v baseline: expected sharded lanes, got %+v", x, ps)
					}
					var n uint64
					for _, ln := range ps.LaneRecords {
						n += ln
					}
					if n != uint64(len(recs)) {
						t.Fatalf("lanes simulated %d records, trace has %d", n, len(recs))
					}
					if occ := ps.Occupancy(); occ <= 0 || occ > 100 {
						t.Fatalf("implausible lane occupancy %v", occ)
					}
				}
			}
		})
	}
}

// TestParallelMatchesSerialFromGeneratorSource covers the non-ViewSource
// fan-out path (batched generator source instead of an in-memory slice).
func TestParallelMatchesSerialFromGeneratorSource(t *testing.T) {
	w, err := workload.ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.Config{CPUs: 4, Seed: 7, Length: 40_000}
	cfg := sim.Config{WarmupAccesses: 13_333, TrackGenerations: true}

	serial := sim.MustNewRunner(cfg)
	want, err := serial.RunContext(context.Background(), w.Make(wcfg))
	if err != nil {
		t.Fatal(err)
	}
	par := sim.MustNewRunner(cfg)
	par.SetExec(sim.Exec{Lanes: 4})
	got, err := par.RunContext(context.Background(), w.Make(wcfg))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultJSON(t, want), resultJSON(t, got); a != b {
		t.Fatalf("parallel Result JSON differs from serial:\n%s\nvs\n%s", b, a)
	}
}

// TestLaneClampRespectsGeometry pins the safe-lane-count derivation: with
// the default geometry (64 B blocks, 2 KiB regions, 256-set L1) the lane
// key may use at most min(setBits) - log2(blocksPerRegion) = 3 bits, so
// an extravagant request must clamp to 8 lanes, and a non-power-of-two
// request rounds down to a mask-friendly count.
func TestLaneClampRespectsGeometry(t *testing.T) {
	recs := execTrace(t, 4_000)
	for _, tc := range []struct{ want, effective int }{
		{64, 8},
		{8, 8},
		{3, 2},
		{2, 2},
	} {
		r := sim.MustNewRunner(sim.Config{WarmupAccesses: 1_000})
		r.SetExec(sim.Exec{Lanes: tc.want})
		if _, err := r.RunContext(context.Background(), trace.NewSliceSource(recs)); err != nil {
			t.Fatal(err)
		}
		if got := r.PipelineStats().Lanes; got != tc.effective {
			t.Errorf("Lanes=%d: effective %d, want %d", tc.want, got, tc.effective)
		}
	}
}

// TestExecDoesNotChangeCanonicalIdentity guards the store-key contract:
// execution tuning lives outside Config, so a Config's canonical form —
// the identity the result store hashes — cannot observe it.
func TestExecDoesNotChangeCanonicalIdentity(t *testing.T) {
	cfg := sim.Config{PrefetcherName: "sms", WarmupAccesses: 100}
	r := sim.MustNewRunner(cfg)
	r.SetExec(sim.Exec{Lanes: 8})
	if r.Config().Canonical() != cfg.Canonical() {
		t.Fatal("SetExec perturbed the runner's canonical Config")
	}
}

// TestParallelCancellation covers mid-run cancellation of the lane path:
// the run must return the context error, never a partial Result, and all
// lane goroutines must wind down (the -race build catches leaks touching
// freed batches).
func TestParallelCancellation(t *testing.T) {
	recs := execTrace(t, 120_000)
	r := sim.MustNewRunner(sim.Config{WarmupAccesses: 10_000})
	r.SetExec(sim.Exec{Lanes: 4})
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	r.OnProgress(4096, func(records uint64) {
		if records > 20_000 {
			once.Do(cancel)
		}
	})
	res, err := r.RunContext(ctx, trace.NewSliceSource(recs))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled parallel run returned a partial Result")
	}
}

// erringSource yields n records and then fails like a corrupt trace
// artifact: exhaustion plus a latched Err.
type erringSource struct {
	n    int
	fail error
}

func (s *erringSource) Next() (trace.Record, bool) {
	if s.n == 0 {
		return trace.Record{}, false
	}
	s.n--
	return trace.Record{Addr: mem.Addr(64 * s.n), CPU: uint8(s.n % 2)}, true
}

func (s *erringSource) Err() error { return s.fail }

// erringSlice is a seekable in-memory source with a latched Err: the
// sampled consumer skips its cold gaps by seeking, and must still see the
// error once the slice runs out.
type erringSlice struct {
	*trace.SliceSource
	fail error
}

func (s erringSlice) Err() error { return s.fail }

// TestParallelSurfacesLatchedDecodeError pins the latched-error contract
// for every consumer of RunContext's drive loop — serial, lane fan-out,
// and sampled over both a seekable and a streamed source: a source that
// fails mid-stream must fail the run, so a corrupt trace never yields a
// persistable Result.
func TestParallelSurfacesLatchedDecodeError(t *testing.T) {
	const n = 10_000
	recs := trace.Collect(&erringSource{n: n}, 0)
	sampling := sim.SamplingConfig{WindowRecords: 256, IntervalRecords: 2048}
	for _, tc := range []struct {
		name string
		cfg  sim.Config
		exec sim.Exec
		seek bool // a seekable in-memory source instead of a stream
	}{
		{"serial", sim.Config{}, sim.Exec{}, false},
		{"lanes", sim.Config{}, sim.Exec{Lanes: 4}, false},
		{"sampled-seek", sim.Config{Sampling: sampling}, sim.Exec{}, true},
		{"sampled-stream", sim.Config{Sampling: sampling}, sim.Exec{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var src trace.Source = &erringSource{n: n, fail: trace.ErrBadFormat}
			if tc.seek {
				src = erringSlice{trace.NewSliceSource(recs), trace.ErrBadFormat}
			}
			tc.cfg.WarmupAccesses = 100
			r := sim.MustNewRunner(tc.cfg)
			r.SetExec(tc.exec)
			res, err := r.RunContext(context.Background(), src)
			if err == nil || !strings.Contains(err.Error(), "trace source failed mid-stream") {
				t.Fatalf("err = %v, want latched decode error", err)
			}
			if res != nil {
				t.Fatal("erring source produced a Result")
			}
			if got := r.PipelineStats().Lanes; got != max(tc.exec.Lanes, 1) {
				t.Fatalf("ran on %d lanes, want %d", got, max(tc.exec.Lanes, 1))
			}
		})
	}
}

package sim

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tinyCoherence is a small hierarchy for unit scenarios.
func tinyCoherence(cpus int) coherence.Config {
	return coherence.Config{
		CPUs: cpus,
		L1:   cache.Config{Size: 4 << 10, Assoc: 2, BlockSize: 64},
		L2:   cache.Config{Size: 64 << 10, Assoc: 8, BlockSize: 64},
	}
}

func runWorkload(t *testing.T, name string, cfg Config, n uint64) *Result {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.Config{CPUs: cfg.Coherence.CPUs, Seed: 11, Length: n}
	if cfg.Coherence.CPUs == 0 {
		wcfg.CPUs = coherence.DefaultConfig().CPUs
	}
	cfg.WarmupAccesses = n / 2
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.Run(w.Make(wcfg))
}

func TestBaselineCountsConsistent(t *testing.T) {
	res := runWorkload(t, "oltp-db2", Config{Coherence: tinyCoherence(2)}, 100_000)
	if res.Accesses != 50_000 {
		t.Fatalf("Accesses = %d, want 50000 (post-warm-up half)", res.Accesses)
	}
	if res.Reads+res.Writes != res.Accesses {
		t.Fatal("reads+writes != accesses")
	}
	if res.L1ReadMisses == 0 || res.OffChipReadMisses == 0 {
		t.Fatalf("no misses recorded: %+v", res)
	}
	if res.OffChipReadMisses > res.L1ReadMisses {
		t.Fatal("off-chip misses exceed L1 misses")
	}
	if res.L1CoveredMisses != 0 || res.StreamRequests != 0 {
		t.Fatal("baseline recorded prefetch activity")
	}
}

func TestSMSCoversMissesEndToEnd(t *testing.T) {
	base := runWorkload(t, "oltp-db2", Config{Coherence: tinyCoherence(2)}, 400_000)
	sms := runWorkload(t, "oltp-db2", Config{
		Coherence:      tinyCoherence(2),
		PrefetcherName: "sms",
	}, 400_000)
	cov := sms.L1Coverage(base)
	if cov.Covered < 0.15 {
		t.Fatalf("SMS L1 coverage %.3f too low — pipeline broken", cov.Covered)
	}
	if cov.Uncovered > 1.1 {
		t.Fatalf("SMS uncovered %.3f — prefetching made things much worse", cov.Uncovered)
	}
	off := sms.OffChipCoverage(base)
	if off.Covered <= 0 {
		t.Fatal("no off-chip coverage")
	}
	if sms.StreamRequests == 0 || len(sms.SMSStats) != 2 {
		t.Fatalf("stream bookkeeping missing: %d reqs, %d stats", sms.StreamRequests, len(sms.SMSStats))
	}
}

func TestSMSBeatsGHBOnOLTP(t *testing.T) {
	// The paper's headline comparison (Fig. 11): interleaved commercial
	// access streams favour SMS over GHB.
	const n = 400_000
	cc := tinyCoherence(2)
	base := runWorkload(t, "oltp-db2", Config{Coherence: cc}, n)
	sms := runWorkload(t, "oltp-db2", Config{Coherence: cc, PrefetcherName: "sms"}, n)
	ghbRes := runWorkload(t, "oltp-db2", Config{Coherence: cc, PrefetcherName: "ghb"}, n)
	smsCov := sms.OffChipCoverage(base).Covered
	ghbCov := ghbRes.OffChipCoverage(base).Covered
	if smsCov <= ghbCov {
		t.Fatalf("SMS off-chip coverage %.3f not above GHB %.3f on OLTP", smsCov, ghbCov)
	}
}

func TestScientificHighCoverage(t *testing.T) {
	// sparse has the suite's most predictable patterns (92% in the
	// paper); demand a high bar here.
	const n = 400_000
	cc := tinyCoherence(2)
	base := runWorkload(t, "sparse", Config{Coherence: cc}, n)
	sms := runWorkload(t, "sparse", Config{Coherence: cc, PrefetcherName: "sms"}, n)
	cov := sms.OffChipCoverage(base)
	if cov.Covered < 0.5 {
		t.Fatalf("sparse off-chip coverage %.3f, want >= 0.5", cov.Covered)
	}
}

func TestGenerationTracking(t *testing.T) {
	res := runWorkload(t, "oltp-db2", Config{
		Coherence:        tinyCoherence(2),
		TrackGenerations: true,
	}, 200_000)
	if res.OracleGenerationsL1 == 0 || res.OracleGenerationsL2 == 0 {
		t.Fatalf("no generations scored: %+v", res)
	}
	// The oracle takes one miss per generation: it cannot exceed the
	// actual miss count (read+write misses bound).
	if res.OracleGenerationsL1 > res.L1ReadMisses+res.L1WriteMisses {
		t.Fatalf("oracle L1 %d exceeds misses %d", res.OracleGenerationsL1, res.L1ReadMisses+res.L1WriteMisses)
	}
	if res.DensityL1.Total() == 0 || res.DensityL2.Total() == 0 {
		t.Fatal("density histograms empty")
	}
	// Histogram totals are miss-weighted: equal to scored misses, which
	// cannot exceed total misses at the level.
	if res.DensityL1.Total() > res.L1ReadMisses+res.L1WriteMisses {
		t.Fatalf("density total %d exceeds L1 misses", res.DensityL1.Total())
	}
}

func TestWindowSampling(t *testing.T) {
	res := runWorkload(t, "dss-q1", Config{
		Coherence:          tinyCoherence(2),
		WindowInstructions: 10_000,
	}, 200_000)
	if len(res.Windows) < 5 {
		t.Fatalf("only %d windows", len(res.Windows))
	}
	var offReads, offGroups uint64
	for _, w := range res.Windows {
		if w.Instructions == 0 {
			t.Fatal("zero-instruction window")
		}
		if w.OffChipReadGroups > w.OffChipReads {
			t.Fatal("more groups than misses")
		}
		offReads += w.OffChipReads
		offGroups += w.OffChipReadGroups
	}
	if offReads == 0 {
		t.Fatal("windows saw no off-chip reads")
	}
	if offGroups == 0 || offGroups > offReads {
		t.Fatalf("groups=%d reads=%d", offGroups, offReads)
	}
	if res.Instructions() == 0 {
		t.Fatal("Instructions() zero")
	}
}

func TestDSSQ1StoreBufferPressure(t *testing.T) {
	// Qry 1's defining property (§4.7): heavy off-chip write misses.
	res := runWorkload(t, "dss-q1", Config{Coherence: tinyCoherence(2)}, 200_000)
	if res.OffChipWriteMisses == 0 {
		t.Fatal("q1 shows no off-chip write misses")
	}
	q2 := runWorkload(t, "dss-q2", Config{Coherence: tinyCoherence(2)}, 200_000)
	r1 := float64(res.OffChipWriteMisses) / float64(res.Accesses)
	r2 := float64(q2.OffChipWriteMisses) / float64(q2.Accesses)
	if r1 <= r2 {
		t.Fatalf("q1 write-miss rate %.4f not above q2 %.4f", r1, r2)
	}
}

func TestLSRunnerWorks(t *testing.T) {
	const n = 200_000
	cc := tinyCoherence(2)
	base := runWorkload(t, "web-apache", Config{Coherence: cc}, n)
	ls := runWorkload(t, "web-apache", Config{Coherence: cc, PrefetcherName: "ls"}, n)
	if ls.L1Coverage(base).Covered <= 0 {
		t.Fatal("LS produced no coverage")
	}
}

func TestStrideRunnerWorks(t *testing.T) {
	const n = 200_000
	cc := tinyCoherence(2)
	base := runWorkload(t, "ocean", Config{Coherence: cc}, n)
	st := runWorkload(t, "ocean", Config{Coherence: cc, PrefetcherName: "stride"}, n)
	if st.OffChipCoverage(base).Covered <= 0 {
		t.Fatal("stride produced no coverage on a dense sequential workload")
	}
}

func TestUnknownPrefetcherRejected(t *testing.T) {
	_, err := NewRunner(Config{Coherence: tinyCoherence(1), PrefetcherName: "no-such-scheme"})
	if err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
}

// TestRegionsWiderThanAPatternRejected: a spatial pattern tracks at most
// mem.MaxPatternWidth blocks, so every structure that records one (SMS,
// LS, generation tracking) must refuse a wider region when the run is
// built instead of panicking mid-run; schemes without patterns still run.
func TestRegionsWiderThanAPatternRejected(t *testing.T) {
	wide, err := mem.NewGeometry(mem.DefaultBlockSize, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pf     string
		gens   bool
		reject bool
	}{
		{"sms", false, true},
		{"ls", false, true},
		{"none", true, true},
		{"none", false, false},
		{"ghb", false, false},
		{"stride", false, false},
	} {
		// The paper's 32 kB L1 holds two 16 kB sectors, so LS accepts the
		// geometry on every count but the pattern width.
		cc := coherence.Config{
			CPUs: 1,
			L1:   cache.Config{Size: 32 << 10, Assoc: 2, BlockSize: 64},
			L2:   cache.Config{Size: 1 << 20, Assoc: 8, BlockSize: 64},
		}
		cfg := Config{Coherence: cc, Geometry: wide, PrefetcherName: tc.pf, TrackGenerations: tc.gens}
		r, err := NewRunner(cfg)
		if tc.reject {
			if err == nil || !strings.Contains(err.Error(), "spatial pattern") {
				t.Errorf("%s (gens %v): err = %v, want a pattern-width error", tc.pf, tc.gens, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.pf, err)
		}
		w, _ := workload.ByName("sparse")
		r.Run(w.Make(workload.Config{CPUs: 1, Seed: 1, Length: 5_000}))
	}
}

func TestStepDeterminism(t *testing.T) {
	w, _ := workload.ByName("em3d")
	mk := func() *Result {
		r := MustNewRunner(Config{Coherence: tinyCoherence(2), PrefetcherName: "sms"})
		return r.Run(trace.Limit(w.Make(workload.Config{CPUs: 2, Seed: 5, Length: 100_000}), 100_000))
	}
	a, b := mk(), mk()
	if a.L1ReadMisses != b.L1ReadMisses || a.L1CoveredMisses != b.L1CoveredMisses ||
		a.StreamRequests != b.StreamRequests || a.Overpredictions != b.Overpredictions {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestCoverageRatios(t *testing.T) {
	base := &Result{L1ReadMisses: 100, OffChipReadMisses: 50}
	r := &Result{L1ReadMisses: 40, L1CoveredMisses: 55, OffChipReadMisses: 20,
		OffChipCoveredMisses: 25, Overpredictions: 10}
	c := r.L1Coverage(base)
	if c.Covered != 0.60 || c.Uncovered != 0.40 || c.Overpredicted != 0.10 {
		t.Fatalf("L1Coverage = %+v", c)
	}
	o := r.OffChipCoverage(base)
	if o.Covered != 0.6 || o.Uncovered != 0.4 || o.Overpredicted != 0.2 {
		t.Fatalf("OffChipCoverage = %+v", o)
	}
	// A variant that doubles the miss rate has zero coverage, not
	// negative.
	worse := &Result{L1ReadMisses: 200}
	if got := worse.L1Coverage(base); got.Covered != 0 || got.Uncovered != 2.0 {
		t.Fatalf("worse-variant coverage = %+v", got)
	}
	var m mem.Geometry
	_ = m
}

func TestRunReturnsDetachedResult(t *testing.T) {
	// Results outlive runners in the experiment session cache; Run must
	// return a copy so retaining it does not pin the simulation state,
	// and further Steps must not mutate it.
	w, _ := workload.ByName("sparse")
	r := MustNewRunner(Config{Coherence: tinyCoherence(1)})
	res := r.Run(trace.Limit(w.Make(workload.Config{CPUs: 1, Seed: 1, Length: 10_000}), 10_000))
	before := res.Accesses
	// Keep stepping the same runner: the returned result must not move.
	src := w.Make(workload.Config{CPUs: 1, Seed: 2, Length: 1_000})
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		r.Step(rec)
	}
	if res.Accesses != before {
		t.Fatal("returned Result aliases the runner's accumulator")
	}
	if r.Result().Accesses <= before {
		t.Fatal("runner's own result did not advance")
	}
}

// driveModes are the consumers of RunContext's one drive loop: serial,
// and sampled over a seekable and a streamed source. src wraps a record
// stream in the mode's source shape.
var driveModes = []struct {
	name string
	cfg  Config
	src  func(trace.Source) trace.Source
}{
	{"serial", Config{PrefetcherName: "sms"}, func(s trace.Source) trace.Source { return s }},
	{"sampled-seek", Config{PrefetcherName: "sms", Sampling: SamplingConfig{WindowRecords: 512, IntervalRecords: 4096}},
		func(s trace.Source) trace.Source { return trace.NewSliceSource(trace.Collect(s, 200_000)) }},
	{"sampled-stream", Config{PrefetcherName: "sms", Sampling: SamplingConfig{WindowRecords: 512, IntervalRecords: 4096}},
		func(s trace.Source) trace.Source { return nextOnly{s} }},
}

// nextOnly hides every batching and seeking capability of a source.
type nextOnly struct{ src trace.Source }

func (s nextOnly) Next() (trace.Record, bool) { return s.src.Next() }

func TestRunContextCancelsPromptly(t *testing.T) {
	for _, m := range driveModes {
		t.Run(m.name, func(t *testing.T) {
			// An unbounded synthetic trace: only cancellation can end
			// this run (the seekable mode holds a long prefix of it).
			var seq uint64
			endless := trace.Func(func() (trace.Record, bool) {
				seq++
				return trace.Record{Seq: seq, PC: 0x400, Addr: mem.Addr(seq*64) & 0xFFFFFF}, true
			})
			src := m.src(endless)
			r := MustNewRunner(m.cfg)

			ctx, cancel := context.WithCancel(context.Background())
			var calls atomic.Uint64
			var last uint64
			r.OnProgress(1024, func(records uint64) {
				last = records
				if calls.Add(1) == 3 {
					cancel()
				}
			})

			done := make(chan error, 1)
			go func() {
				res, err := r.RunContext(ctx, src)
				if res != nil {
					t.Error("cancelled run returned a partial Result")
				}
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled run did not return")
			}
			// Cancellation is checked once per progress interval: the
			// run must have stopped within one interval of the
			// cancelling callback.
			if got := calls.Load(); got > 4 {
				t.Errorf("run kept going for %d progress intervals after cancel", got-3)
			}
			// The last callback reports exactly the records the run
			// consumed (skipped ones included).
			if last != r.counted {
				t.Errorf("last progress %d, run consumed %d records", last, r.counted)
			}
		})
	}
}

// In every drive mode, RunContext completes exactly like Run, and its
// final progress callback reports every record the run consumed.
func TestRunContextCompletesLikeRun(t *testing.T) {
	w, _ := workload.ByName("sparse")
	const n = 30_001 // deliberately not batch- or interval-aligned
	wcfg := workload.Config{CPUs: 4, Seed: 9, Length: n}
	for _, m := range driveModes {
		t.Run(m.name, func(t *testing.T) {
			viaRun := MustNewRunner(m.cfg).Run(m.src(w.Make(wcfg)))
			rc := MustNewRunner(m.cfg)
			var last uint64
			rc.OnProgress(0, func(records uint64) {
				if records < last {
					t.Errorf("progress went backwards: %d after %d", records, last)
				}
				last = records
			})
			viaCtx, err := rc.RunContext(context.Background(), m.src(w.Make(wcfg)))
			if err != nil {
				t.Fatal(err)
			}
			if viaCtx.Accesses != viaRun.Accesses || viaCtx.L1ReadMisses != viaRun.L1ReadMisses {
				t.Fatalf("RunContext diverged from Run: %+v vs %+v", viaCtx, viaRun)
			}
			if last != n {
				t.Errorf("final progress callback saw %d records, want %d", last, n)
			}
			if viaCtx.Sampling != nil && viaCtx.Sampling.TotalRecords != n {
				t.Errorf("sampled run accounted %d records, want %d", viaCtx.Sampling.TotalRecords, n)
			}
		})
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

// TestRunContextSurfacesLatchedDecodeError pins the latched-error
// contract for every consumer of RunContext's drive loop — serial, and
// sampled over both a seekable and a streamed source: a source that
// fails mid-stream must fail the run, so a corrupt trace never yields a
// persistable Result.
func TestRunContextSurfacesLatchedDecodeError(t *testing.T) {
	const n = 10_000
	recs := trace.Collect(&erringSource{n: n}, 0)
	sampling := SamplingConfig{WindowRecords: 256, IntervalRecords: 2048}
	for _, tc := range []struct {
		name string
		cfg  Config
		seek bool // a seekable in-memory source instead of a stream
	}{
		{"serial", Config{}, false},
		{"sampled-seek", Config{Sampling: sampling}, true},
		{"sampled-stream", Config{Sampling: sampling}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var src trace.Source = &erringSource{n: n, fail: trace.ErrBadFormat}
			if tc.seek {
				src = erringSlice{trace.NewSliceSource(recs), trace.ErrBadFormat}
			}
			tc.cfg.WarmupAccesses = 100
			res, err := MustNewRunner(tc.cfg).RunContext(context.Background(), src)
			if err == nil || !strings.Contains(err.Error(), "trace source failed mid-stream") {
				t.Fatalf("err = %v, want latched decode error", err)
			}
			if res != nil {
				t.Fatal("erring source produced a Result")
			}
		})
	}
}

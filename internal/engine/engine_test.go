package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tinyEngine builds a fast engine for unit scenarios.
func tinyEngine(t *testing.T, st *store.Store, parallel int) *Engine {
	t.Helper()
	return New(Config{
		Workload: workload.Config{CPUs: 1, Seed: 1, Length: 20_000},
		Parallel: parallel,
		Store:    st,
	})
}

func memSys() coherence.Config {
	return coherence.Config{
		CPUs: 1,
		L1:   cache.Config{Size: 32 << 10, Assoc: 2, BlockSize: 64},
		L2:   cache.Config{Size: 1 << 20, Assoc: 8, BlockSize: 64},
	}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPlanValidate(t *testing.T) {
	base := sim.Config{Coherence: memSys()}
	for name, p := range map[string]Plan{
		"empty":             {Name: "p"},
		"no variants":       {Name: "p", Workloads: []string{"sparse"}},
		"empty variant key": {Name: "p", Workloads: []string{"sparse"}, Variants: []Variant{{Config: base}}},
		"duplicate key": {Name: "p", Workloads: []string{"sparse"},
			Variants: []Variant{{Key: "a", Config: base}, {Key: "a", Config: base}}},
		"unknown baseline": {Name: "p", Workloads: []string{"sparse"}, Baseline: "nope",
			Variants: []Variant{{Key: "a", Config: base}}},
		"custom without run": {Name: "p", Customs: []Custom{{Workload: "sparse", Key: "c"}}},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: invalid plan accepted", name)
		}
	}
	ok := Plan{Name: "p", Workloads: []string{"sparse"}, Baseline: "a",
		Variants: []Variant{{Key: "a", Config: base}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestExecuteDeduplicatesEquivalentCells: cells whose configs
// canonicalize identically (defaults spelled out vs implicit) compile to
// one run.
func TestExecuteDeduplicatesEquivalentCells(t *testing.T) {
	e := tinyEngine(t, nil, 0)
	p := Plan{
		Name:      "dedup",
		Workloads: []string{"sparse"},
		Baseline:  "base",
		Variants: []Variant{
			{Key: "base", Config: sim.Config{Coherence: memSys()}},
			{Key: "base-explicit", Config: sim.Config{Coherence: memSys(), PrefetcherName: "none", StreamRate: sim.DefaultStreamRate}},
			{Key: "sms", Config: sim.Config{Coherence: memSys(), PrefetcherName: "sms"}},
		},
	}
	grid, err := e.Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Simulations(); got != 2 {
		t.Fatalf("simulations = %d, want 2 (base deduped)", got)
	}
	if grid.Result("sparse", "base") != grid.Result("sparse", "base-explicit") {
		t.Error("equivalent cells did not share a run")
	}
	if grid.Baseline("sparse") != grid.Result("sparse", "base") {
		t.Error("baseline linkage broken")
	}
	c := grid.Counts()
	if c.Runs != 2 || c.Simulated != 2 || c.Skipped != 0 || c.Failed != 0 {
		t.Errorf("counts = %+v", c)
	}
}

// TestMergedPlansShareBaselinesExactlyOnce is the PR's acceptance
// criterion: a plan covering two figures that share baseline runs
// executes each unique (workload, config, prefetcher) simulation exactly
// once, asserted via store.Stats() and engine run counts.
func TestMergedPlansShareBaselinesExactlyOnce(t *testing.T) {
	st := openStore(t, t.TempDir())
	e := tinyEngine(t, st, 0)

	base := sim.Config{Coherence: memSys()}
	figA := Plan{
		Name: "figA", Workloads: []string{"sparse", "ocean"}, Baseline: "base",
		Variants: []Variant{
			{Key: "base", Config: base},
			{Key: "sms", Config: sim.Config{Coherence: memSys(), PrefetcherName: "sms"}},
		},
	}
	figB := Plan{
		Name: "figB", Workloads: []string{"sparse", "ocean"}, Baseline: "base",
		Variants: []Variant{
			{Key: "base", Config: base}, // shared with figA
			{Key: "ghb", Config: sim.Config{Coherence: memSys(), PrefetcherName: "ghb"}},
		},
	}
	merged := Merge("figA+figB", figA, figB)
	grid, err := e.Execute(context.Background(), merged)
	if err != nil {
		t.Fatal(err)
	}
	// 2 workloads × {base, sms, ghb} = 6 unique runs, though the merged
	// grid has 8 cells.
	if got := e.Simulations(); got != 6 {
		t.Fatalf("simulations = %d, want 6 (baselines shared)", got)
	}
	if len(grid.cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(grid.cells))
	}
	stats := st.Stats()
	if stats.Writes != 6 {
		t.Fatalf("store writes = %d, want 6", stats.Writes)
	}
	if grid.Result("sparse", "figA/base") != grid.Result("sparse", "figB/base") {
		t.Error("shared baseline not deduplicated across merged plans")
	}

	// A second engine over the same store re-executes the merged plan
	// with zero simulations: every run is a store hit.
	e2 := tinyEngine(t, st, 0)
	if _, err := e2.Execute(context.Background(), merged); err != nil {
		t.Fatal(err)
	}
	if got := e2.Simulations(); got != 0 {
		t.Fatalf("warm re-execution simulated %d times, want 0", got)
	}
	if got := e2.StoreHits(); got != 6 {
		t.Fatalf("store hits = %d, want 6", got)
	}
}

// TestConcurrentRunsSingleflight: concurrent Run calls for one identity
// perform exactly one simulation, every caller receiving its result.
func TestConcurrentRunsSingleflight(t *testing.T) {
	e := tinyEngine(t, nil, 4)
	cfg := sim.Config{Coherence: memSys(), PrefetcherName: "sms"}
	const n = 16
	var wg sync.WaitGroup
	results := make([]*sim.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Run(context.Background(), "sparse", cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if got := e.Simulations(); got != 1 {
		t.Fatalf("simulations = %d, want 1", got)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("callers received different results")
		}
	}
}

// TestCancelMidGridSkipsUnstartedWithoutPoisoningStore: cancelling a
// grid mid-flight returns promptly, marks unstarted runs as skipped, and
// leaves no partial objects in the store.
func TestCancelMidGridSkipsUnstartedWithoutPoisoningStore(t *testing.T) {
	st := openStore(t, t.TempDir())
	// One worker and a long trace: the grid executes strictly serially
	// and each run takes long enough to cancel mid-flight.
	e := New(Config{
		Workload: workload.Config{CPUs: 1, Seed: 1, Length: 30_000_000},
		Parallel: 1,
		Store:    st,
	})
	p := Plan{
		Name: "cancelgrid", Workloads: []string{"sparse", "ocean", "em3d"}, Baseline: "base",
		Variants: []Variant{
			{Key: "base", Config: sim.Config{Coherence: memSys()}},
			{Key: "sms", Config: sim.Config{Coherence: memSys(), PrefetcherName: "sms"}},
		},
	}

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 8)
	ctx = WithEventSink(ctx, func(ev Event) {
		if ev.Kind == RunStarted {
			select {
			case started <- struct{}{}:
			default:
			}
		}
	})

	type outcome struct {
		grid *Grid
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		g, err := e.Execute(ctx, p)
		done <- outcome{g, err}
	}()

	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("no run ever started")
	}
	begin := time.Now()
	cancel()

	var out outcome
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled grid did not return")
	}
	// "Within one progress interval" at simulation speed is milliseconds;
	// allow generous slack for loaded CI machines.
	if elapsed := time.Since(begin); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", out.err)
	}
	c := out.grid.Counts()
	if c.Skipped == 0 {
		t.Errorf("no runs marked skipped: %+v", c)
	}
	if c.Simulated+c.Cached+c.Skipped+c.Failed != c.Runs {
		t.Errorf("counts do not partition runs: %+v", c)
	}
	// The store holds only completed runs — cancelled and skipped ones
	// must not have written anything.
	stats := st.Stats()
	if int(stats.Writes) != c.Simulated {
		t.Errorf("store writes = %d, want %d (completed runs only)", stats.Writes, c.Simulated)
	}
	if e.CancelledRuns() == 0 {
		t.Error("mid-run cancellation not counted")
	}
}

// TestEventsLifecycle: a small grid emits a coherent event stream over
// the Stream channel form, ending with GridDone.
func TestEventsLifecycle(t *testing.T) {
	e := tinyEngine(t, nil, 0)
	p := Plan{
		Name: "events", Workloads: []string{"sparse"},
		Variants: []Variant{{Key: "base", Config: sim.Config{Coherence: memSys()}}},
		Customs: []Custom{{Workload: "sparse", Key: "extra",
			Run: func(ctx context.Context, src trace.Source) (any, error) { return 42, nil }}},
	}
	var evs []Event
	for ev := range e.Stream(context.Background(), p) {
		evs = append(evs, ev)
	}
	if len(evs) < 4 {
		t.Fatalf("only %d events", len(evs))
	}
	last := evs[len(evs)-1]
	if last.Kind != GridDone || last.Err != nil || last.Grid == nil {
		t.Fatalf("last event = %+v", last)
	}
	if got := last.Grid.Custom("sparse", "extra"); got != 42 {
		t.Errorf("custom cell = %v", got)
	}
	kinds := map[EventKind]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
		if ev.Plan != "events" {
			t.Errorf("event missing plan name: %+v", ev)
		}
	}
	if kinds[RunStarted] != 2 || kinds[RunFinished] != 2 {
		t.Errorf("kinds = %v, want 2 started + 2 finished", kinds)
	}
	if kinds[RunProgress] == 0 {
		t.Error("no progress events")
	}

	// Re-executing the same plan on the same engine serves from memo:
	// cached events, no new simulations.
	sims := e.Simulations()
	var cached int
	for ev := range e.Stream(context.Background(), p) {
		if ev.Kind == RunCached {
			cached++
		}
	}
	if e.Simulations() != sims {
		t.Error("re-execution simulated again")
	}
	if cached == 0 {
		t.Error("no cached events on re-execution")
	}
}

// TestRunErrorsSurfaceAndDoNotStick: an unknown prefetcher errors, the
// error is not memoized, and a corrected config succeeds.
func TestRunErrorsSurfaceAndDoNotStick(t *testing.T) {
	e := tinyEngine(t, nil, 0)
	bad := sim.Config{Coherence: memSys(), PrefetcherName: "no-such"}
	if _, err := e.Run(context.Background(), "sparse", bad); err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
	if _, err := e.Run(context.Background(), "no-such-workload", sim.Config{Coherence: memSys()}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := e.Run(context.Background(), "sparse", sim.Config{Coherence: memSys()}); err != nil {
		t.Fatalf("good run after bad: %v", err)
	}
}

// TestCachedProbe: Cached reports memoized and stored runs without
// simulating.
func TestCachedProbe(t *testing.T) {
	dir := t.TempDir()
	e := tinyEngine(t, openStore(t, dir), 0)
	cfg := sim.Config{Coherence: memSys()}
	if _, ok := e.Cached("sparse", cfg); ok {
		t.Fatal("empty engine claims a cached run")
	}
	if _, err := e.Run(context.Background(), "sparse", cfg); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Cached("sparse", cfg); !ok {
		t.Fatal("memoized run not reported cached")
	}
	// A fresh engine over the same store sees it via the disk probe.
	e2 := tinyEngine(t, openStore(t, dir), 0)
	if _, ok := e2.Cached("sparse", cfg); !ok {
		t.Fatal("stored run not reported cached")
	}
	if e2.Simulations() != 0 {
		t.Fatal("probe simulated")
	}
}

// TestMemoBounded: the in-memory memoization layer evicts past its bound
// (a long-running smsd must not grow without limit), oldest first.
func TestMemoBounded(t *testing.T) {
	e := tinyEngine(t, nil, 0)
	for i := 0; i < maxMemoized+10; i++ {
		key := fmt.Sprintf("key-%d", i)
		ent := &entry{done: make(chan struct{}), res: &sim.Result{}}
		close(ent.done)
		e.mu.Lock()
		e.memo[key] = ent
		e.order = append(e.order, key)
		for len(e.order) > maxMemoized {
			oldest := e.order[0]
			e.order = e.order[1:]
			delete(e.memo, oldest)
		}
		e.mu.Unlock()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.memo) != maxMemoized {
		t.Fatalf("memo holds %d entries, want %d", len(e.memo), maxMemoized)
	}
	if _, ok := e.memo["key-0"]; ok {
		t.Error("oldest entry not evicted")
	}
	if _, ok := e.memo[fmt.Sprintf("key-%d", maxMemoized+9)]; !ok {
		t.Error("newest entry missing")
	}
}

// TestExtraCellsCompileAndDedupe: explicit Extra cells share runs with
// cross-product cells when configs canonicalize identically.
func TestExtraCellsCompileAndDedupe(t *testing.T) {
	e := tinyEngine(t, nil, 0)
	p := Plan{
		Name:      "extra",
		Workloads: []string{"sparse"},
		Variants:  []Variant{{Key: "base", Config: sim.Config{Coherence: memSys()}}},
		Extra: []Cell{
			{Workload: "sparse", Key: "x/base", Config: sim.Config{Coherence: memSys(), PrefetcherName: "none"}},
			{Workload: "ocean", Key: "x/base", Config: sim.Config{Coherence: memSys()}},
		},
	}
	grid, err := e.Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Simulations(); got != 2 {
		t.Fatalf("simulations = %d, want 2 (sparse deduped, ocean fresh)", got)
	}
	if grid.Result("sparse", "base") != grid.Result("sparse", "x/base") {
		t.Error("extra cell did not dedupe against the cross product")
	}
	if grid.Result("ocean", "x/base") == nil {
		t.Error("extra-only workload missing")
	}
}

// TestRunRefusesFewerCPUsThanWorkload: a run whose memory system has
// fewer CPUs than the workload issues from fails before it starts, as a
// bare run and as a plan cell, instead of indexing per-CPU state past
// its end.
func TestRunRefusesFewerCPUsThanWorkload(t *testing.T) {
	e := New(Config{Workload: workload.Config{CPUs: 4, Seed: 1, Length: 4_000}, Parallel: 1})
	cfg := sim.Config{Coherence: memSys()}
	cfg.Coherence.CPUs = 2
	if _, err := e.Run(context.Background(), "sparse", cfg); err == nil ||
		!strings.Contains(err.Error(), "2 CPUs") || !strings.Contains(err.Error(), "4") {
		t.Errorf("bare run: err = %v, want one naming both counts", err)
	}
	plan := Plan{Name: "few", Workloads: []string{"sparse"}, Variants: []Variant{{Key: "base", Config: cfg}}}
	if _, err := e.Execute(context.Background(), plan); err == nil || !strings.Contains(err.Error(), "2 CPUs") {
		t.Errorf("plan cell: err = %v, want the CPU refusal", err)
	}
	if n := e.Simulations(); n != 0 {
		t.Errorf("%d simulations started, want 0", n)
	}
	// The default memory system (zero Coherence) has 4 CPUs: enough.
	if _, err := e.Run(context.Background(), "sparse", sim.Config{}); err != nil {
		t.Errorf("default memory system: %v", err)
	}
}

// TestTraceFileWithMoreCPUsFailsRun: a trace: workload whose file
// declares more CPUs than the engine's workload configuration fails the
// run with an error naming both counts.
func TestTraceFileWithMoreCPUsFailsRun(t *testing.T) {
	w, err := workload.ByName("sparse")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "eight.smst")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := trace.NewV2Writer(f, trace.Header{CPUs: 8, Workload: "sparse"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteBatch(trace.Collect(w.Make(workload.Config{CPUs: 8, Seed: 1, Length: 4_000}), 0)); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workload: workload.Config{CPUs: 4, Seed: 1, Length: 4_000}, Parallel: 1})
	_, err = e.Run(context.Background(), workload.TracePrefix+path, sim.Config{})
	if err == nil || !strings.Contains(err.Error(), "8 CPUs") || !strings.Contains(err.Error(), "4") {
		t.Errorf("err = %v, want one naming both counts", err)
	}
}

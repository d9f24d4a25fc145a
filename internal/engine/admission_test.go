package engine

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// admissionPlan is a grid over three workloads with two variants and a
// custom cell each; the custom cell drains its trace and returns the
// record count.
func admissionPlan() Plan {
	p := Plan{
		Name:      "admit",
		Workloads: []string{"sparse", "ocean", "em3d"},
		Variants: []Variant{
			{Key: "base", Config: sim.Config{Coherence: memSys()}},
			{Key: "sms", Config: sim.Config{Coherence: memSys(), PrefetcherName: "sms"}},
		},
	}
	for _, w := range p.Workloads {
		p.Customs = append(p.Customs, Custom{Workload: w, Key: "drain",
			Run: func(ctx context.Context, src trace.Source) (any, error) {
				return len(trace.Collect(src, 0)), nil
			}})
	}
	return p
}

// TestAdmissionOrderIsWorkloadByWorkload: with one slot, cells start in
// the admission order: workload by workload in plan order, variants
// before custom cells, each workload's first cell one workload ahead.
func TestAdmissionOrderIsWorkloadByWorkload(t *testing.T) {
	e := tinyEngine(t, nil, 1)
	var mu sync.Mutex
	var started []string
	ctx := WithEventSink(context.Background(), func(ev Event) {
		if ev.Kind == RunStarted {
			mu.Lock()
			started = append(started, ev.Workload+"/"+ev.Variant)
			mu.Unlock()
		}
	})
	grid, err := e.Execute(ctx, admissionPlan())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"sparse/base", "ocean/base", "sparse/sms", "sparse/drain",
		"em3d/base", "ocean/sms", "ocean/drain",
		"em3d/sms", "em3d/drain",
	}
	if strings.Join(started, " ") != strings.Join(want, " ") {
		t.Fatalf("start order\n got  %v\n want %v", started, want)
	}
	// Custom cells replay the engine's trace: one generation per
	// workload, every record delivered.
	if got := e.TraceGenerations(); got != 3 {
		t.Errorf("trace generations = %d, want 3", got)
	}
	if got := grid.Custom("ocean", "drain"); got != 20_000 {
		t.Errorf("custom cell drained %v records, want 20000", got)
	}
}

// TestCancelledQueuedCellsLeakNoSlot: cancelling a grid whose cells are
// queued behind the only slot releases every place in the queue, so a
// later grid on the same engine runs to completion.
func TestCancelledQueuedCellsLeakNoSlot(t *testing.T) {
	e := tinyEngine(t, nil, 1)
	p := Plan{
		Name:      "blocked",
		Workloads: []string{"sparse", "ocean", "em3d"},
		Variants:  []Variant{{Key: "base", Config: sim.Config{Coherence: memSys()}}},
	}
	for _, w := range p.Workloads {
		// Each custom cell holds the slot until the grid is cancelled.
		p.Customs = append(p.Customs, Custom{Workload: w, Key: "block",
			Run: func(ctx context.Context, src trace.Source) (any, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			}})
	}
	ctx, cancel := context.WithCancel(context.Background())
	blocking := make(chan struct{}, 1)
	ctx = WithEventSink(ctx, func(ev Event) {
		if ev.Kind == RunStarted && ev.Variant == "block" {
			select {
			case blocking <- struct{}{}:
			default:
			}
		}
	})
	done := make(chan *Grid, 1)
	go func() {
		g, _ := e.Execute(ctx, p)
		done <- g
	}()
	select {
	case <-blocking:
	case <-time.After(30 * time.Second):
		t.Fatal("no custom cell started")
	}
	// sparse/block holds the slot; em3d/base, ocean/block and
	// em3d/block wait behind it. A cell reaching the local scheduler
	// directly (a cluster coordinator's fallback) waits for the slot
	// too, and gives up when its own context ends.
	fallback, cancelFallback := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelFallback()
	spec := RunSpec{Workload: "sparse", Config: e.resolve(sim.Config{Coherence: memSys()})}
	if _, err := e.LocalScheduler().Schedule(fallback, spec, func(Event) {}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("fallback cell behind a held slot: err = %v, want its deadline", err)
	}
	cancel()
	var g *Grid
	select {
	case g = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled grid did not return")
	}
	if c := g.Counts(); c.Skipped != 1 || c.CustomsRun != 1 {
		t.Errorf("counts = %+v, want em3d/base skipped and one custom run", c)
	}
	if held := len(e.sem); held != 0 {
		t.Fatalf("after cancellation: %d slots still held, want 0", held)
	}

	later, cancelLater := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelLater()
	if _, err := e.Execute(later, admissionPlan()); err != nil {
		t.Fatalf("grid after cancellation: %v", err)
	}
}

// openTraceMappings counts the process's memory mappings of files under
// dir; it skips the test where /proc/self/maps is not available.
func openTraceMappings(t *testing.T, dir string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	return strings.Count(string(maps), dir)
}

// TestStoreBackedExecuteReleasesTraces: once a store-backed grid settles,
// the trace memo holds none of its workloads and no trace mapping stays
// open. A second grid on the same engine replays the disk tier, with
// Results identical to a store-less engine's.
func TestStoreBackedExecuteReleasesTraces(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	e := tinyEngine(t, st, 2)
	first := admissionPlan()
	if _, err := e.Execute(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	if got := e.TraceGenerations(); got != 3 {
		t.Fatalf("trace generations = %d, want 3", got)
	}
	checkReleased := func(when string) {
		t.Helper()
		e.traces.mu.Lock()
		left, held := len(e.traces.entries), len(e.traces.holders)
		e.traces.mu.Unlock()
		if left != 0 || held != 0 {
			t.Errorf("%s: trace memo still holds %d workloads, %d held by cells", when, left, held)
		}
		if n := openTraceMappings(t, dir); n != 0 {
			t.Errorf("%s: %d trace mappings still open", when, n)
		}
	}
	checkReleased("after the first grid")
	infos, err := st.ListTraces()
	if err != nil || len(infos) != 3 {
		t.Fatalf("tier holds %v (%v), want 3 artifacts", infos, err)
	}
	for _, info := range infos {
		if info.WorkloadHash != info.Key {
			t.Errorf("artifact %s carries workload hash %s", info.Key, info.WorkloadHash)
		}
	}

	second := Plan{Name: "second", Workloads: first.Workloads,
		Variants: []Variant{
			{Key: "ghb", Config: sim.Config{Coherence: memSys(), PrefetcherName: "ghb"}},
			{Key: "stride", Config: sim.Config{Coherence: memSys(), PrefetcherName: "stride"}},
		}}
	grid, err := e.Execute(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.TraceGenerations(); got != 3 {
		t.Errorf("second grid generated traces: %d generations in all, want 3", got)
	}
	if got := e.TraceTierHits(); got != 6 {
		t.Errorf("trace tier hits = %d, want 6 (every run of the second grid)", got)
	}
	checkReleased("after the second grid")

	plain := tinyEngine(t, nil, 2)
	want, err := plain.Execute(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range second.Workloads {
		for _, v := range second.Variants {
			a, _ := json.Marshal(grid.Result(w, v.Key))
			b, _ := json.Marshal(want.Result(w, v.Key))
			if string(a) != string(b) {
				t.Errorf("tier-replayed %s/%s differs from a generator-fed run", w, v.Key)
			}
		}
	}
}

// TestStorelessEngineReleasesTraces: a store-less engine drops each
// workload's trace once the grid's last cell of it settles, like a
// store-backed one. A second grid over the same workloads therefore
// generates each trace once more, with Results identical to a fresh
// engine's.
func TestStorelessEngineReleasesTraces(t *testing.T) {
	e := tinyEngine(t, nil, 2)
	p := admissionPlan()
	if _, err := e.Execute(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	checkReleased := func(when string) {
		t.Helper()
		e.traces.mu.Lock()
		left, held := len(e.traces.entries), len(e.traces.holders)
		e.traces.mu.Unlock()
		if left != 0 || held != 0 {
			t.Errorf("%s: trace memo still holds %d workloads, %d held by cells", when, left, held)
		}
	}
	checkReleased("after the first grid")

	again := Plan{Name: "again", Workloads: p.Workloads,
		Variants: []Variant{
			{Key: "ghb", Config: sim.Config{Coherence: memSys(), PrefetcherName: "ghb"}},
			{Key: "stride", Config: sim.Config{Coherence: memSys(), PrefetcherName: "stride"}},
		}}
	grid, err := e.Execute(context.Background(), again)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.TraceGenerations(); got != 6 {
		t.Errorf("trace generations = %d after two grids, want 6 (each workload once per grid)", got)
	}
	checkReleased("after the second grid")

	fresh := tinyEngine(t, nil, 2)
	want, err := fresh.Execute(context.Background(), again)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range again.Workloads {
		for _, v := range again.Variants {
			a, _ := json.Marshal(grid.Result(w, v.Key))
			b, _ := json.Marshal(want.Result(w, v.Key))
			if string(a) != string(b) {
				t.Errorf("regenerated %s/%s differs from a fresh engine's run", w, v.Key)
			}
		}
	}
}

package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTraceMemoGeneratesOncePerWorkload: a grid of N variants over one
// workload runs the generator exactly once; replayed runs are
// bit-identical to generated ones (covered by the figure-level golden
// tests, asserted here at the grid level via result equality).
func TestTraceMemoGeneratesOncePerWorkload(t *testing.T) {
	wcfg := workload.Config{CPUs: 2, Seed: 5, Length: 20_000}
	plan := Plan{
		Name:      "memo",
		Workloads: []string{"oltp-db2", "dss-q1"},
		Variants: []Variant{
			{Key: "none", Config: sim.Config{PrefetcherName: "none"}},
			{Key: "sms", Config: sim.Config{PrefetcherName: "sms"}},
			{Key: "ghb", Config: sim.Config{PrefetcherName: "ghb"}},
		},
	}

	memo := New(Config{Workload: wcfg})
	grid, err := memo.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := memo.Simulations(), uint64(6); got != want {
		t.Fatalf("simulations = %d, want %d", got, want)
	}
	if got, want := memo.TraceGenerations(), uint64(2); got != want {
		t.Fatalf("trace generations = %d, want %d (one per workload)", got, want)
	}

	// The memo must not change any result: compare against a runner fed
	// straight from each workload's generator.
	for _, wl := range plan.Workloads {
		w, err := workload.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range plan.Variants {
			cfg := v.Config
			cfg.WarmupAccesses = wcfg.Length / 2
			runner, err := sim.NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(runner.Run(w.Make(wcfg)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(grid.Result(wl, v.Key))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("memoized trace changed the result of %s/%s:\n memo      %s\n generator %s", wl, v.Key, got, want)
			}
		}
	}
}

// TestTraceMemoBudget: a trace over budget streams from the generator
// every time and is never cached.
func TestTraceMemoBudget(t *testing.T) {
	wcfg := workload.Config{CPUs: 2, Seed: 5, Length: 20_000}
	size := trace.PackedBytes(wcfg.Canonical().Length)
	e := New(Config{Workload: wcfg})
	e.traces.budget = size - 1
	plan := Plan{
		Name:      "over-budget",
		Workloads: []string{"oltp-db2"},
		Variants: []Variant{
			{Key: "none", Config: sim.Config{PrefetcherName: "none"}},
			{Key: "sms", Config: sim.Config{PrefetcherName: "sms"}},
		},
	}
	if _, err := e.Execute(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if got, want := e.TraceGenerations(), uint64(2); got != want {
		t.Fatalf("over-budget workload generated %d times, want %d (never cached)", got, want)
	}
}

// TestTraceMemoSingleflight: concurrent requests for the same workload
// generate once and all receive the full trace.
func TestTraceMemoSingleflight(t *testing.T) {
	w, err := workload.ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Config{CPUs: 2, Seed: 5, Length: 10_000}
	e := New(Config{Workload: cfg})
	// Hold the workload once per reader, as admission holds one per
	// queued cell: an unheld trace is dropped when its generation
	// completes, so a reader scheduled after that would generate again.
	for i := 0; i < 16; i++ {
		e.traces.hold(w.Name)
	}
	defer func() {
		for i := 0; i < 16; i++ {
			e.traces.release(w.Name)
		}
	}()
	var wg sync.WaitGroup
	generations := make(chan bool, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, generated := e.traceSource(w)
			generations <- generated
			if n := len(trace.Collect(src, 0)); n != 10_000 {
				t.Errorf("short trace: %d records", n)
			}
		}()
	}
	wg.Wait()
	close(generations)
	n := 0
	for g := range generations {
		if g {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d goroutines generated, want exactly 1", n)
	}
}

// memoReserved reads the memo's reserved bytes and entry count.
func memoReserved(e *Engine) (reserved int64, entries int) {
	e.traces.mu.Lock()
	defer e.traces.mu.Unlock()
	return e.traces.reserved, len(e.traces.entries)
}

// TestTraceMemoBudgetIsHard: with a budget sized for two traces, a third
// held workload streams from the generator until a held trace is
// released, and the reserved bytes never exceed the budget.
func TestTraceMemoBudgetIsHard(t *testing.T) {
	wcfg := workload.Config{CPUs: 2, Seed: 5, Length: 20_000}
	size := trace.PackedBytes(wcfg.Length)
	e := New(Config{Workload: wcfg})
	e.traces.budget = 2*size + size/2
	names := []string{"oltp-db2", "dss-q1", "sparse"}
	check := func(when string, want int64) {
		t.Helper()
		if got, _ := memoReserved(e); got != want || got > e.traces.budget {
			t.Fatalf("%s: reserved %d bytes, want %d (budget %d)", when, got, want, e.traces.budget)
		}
	}
	open := func(name string, packed bool) {
		t.Helper()
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		src, generated := e.traceSource(w)
		if _, ok := src.(*trace.PackedSource); ok != packed || !generated {
			t.Fatalf("%s: packed %v, generated %v; want packed %v, generated", name, ok, generated, packed)
		}
	}
	for _, name := range names {
		e.traces.hold(name)
		check("hold "+name, 0)
	}
	open("oltp-db2", true)
	check("first trace", size)
	open("dss-q1", true)
	check("second trace", 2*size)
	open("sparse", false)
	check("third trace streams", 2*size)
	e.traces.release("oltp-db2")
	check("release oltp-db2", size)
	open("sparse", true)
	check("third trace after a release", 2*size)
	e.traces.release("dss-q1")
	check("release dss-q1", size)
	e.traces.release("sparse")
	check("release sparse", 0)
}

// TestHardBudgetGrid: a grid whose three workloads' cells hold their
// traces at once under a budget sized for two packs two of them and
// streams the third, never reserves past the budget, and keeps every
// Result byte-equal to a generator-fed runner's.
func TestHardBudgetGrid(t *testing.T) {
	wcfg := workload.Config{CPUs: 2, Seed: 5, Length: 20_000}
	size := trace.PackedBytes(wcfg.Length)
	e := New(Config{Workload: wcfg, Parallel: 3})
	e.traces.budget = 2*size + size/2
	cfg := sim.Config{PrefetcherName: "sms", WarmupAccesses: wcfg.Length / 2}

	var (
		mu      sync.Mutex
		packed  int
		arrived sync.WaitGroup
	)
	arrived.Add(3)
	plan := Plan{Name: "hard-budget"}
	for _, name := range []string{"oltp-db2", "dss-q1", "sparse"} {
		plan.Customs = append(plan.Customs, Custom{Workload: name, Key: "sms",
			Run: func(ctx context.Context, src trace.Source) (any, error) {
				if _, ok := src.(*trace.PackedSource); ok {
					mu.Lock()
					packed++
					mu.Unlock()
				}
				// All three cells hold their traces before any runs.
				arrived.Done()
				arrived.Wait()
				if got, _ := memoReserved(e); got > e.traces.budget {
					t.Errorf("reserved %d bytes past the %d-byte budget", got, e.traces.budget)
				}
				runner, err := sim.NewRunner(cfg)
				if err != nil {
					return nil, err
				}
				return json.Marshal(runner.Run(src))
			}})
	}
	grid, err := e.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if packed != 2 || e.TraceGenerations() != 3 {
		t.Errorf("%d packed replays, %d generations; want 2 and 3", packed, e.TraceGenerations())
	}
	if reserved, entries := memoReserved(e); reserved != 0 || entries != 0 {
		t.Errorf("after the grid: %d bytes reserved by %d entries", reserved, entries)
	}
	for _, cu := range plan.Customs {
		w, err := workload.ByName(cu.Workload)
		if err != nil {
			t.Fatal(err)
		}
		runner, err := sim.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(runner.Run(w.Make(wcfg)))
		if err != nil {
			t.Fatal(err)
		}
		if got := grid.Custom(cu.Workload, cu.Key).([]byte); !bytes.Equal(got, want) {
			t.Errorf("%s: grid Result differs from a generator-fed run", cu.Workload)
		}
	}
}

// TestUnpackableTraceStreams: a trace with a PC of 2^32 or more, or a
// Seq step of 2^16 or more, streams from the generator and leaves no
// memo entry or reservation behind.
func TestUnpackableTraceStreams(t *testing.T) {
	const n = 10_000
	for name, widen := range map[string]func(*trace.Record){
		"wide-pc":   func(r *trace.Record) { r.PC = 1 << 32 },
		"wide-step": func(r *trace.Record) { r.Seq += 1 << 16 },
	} {
		recs := make([]trace.Record, n)
		for i := range recs {
			recs[i] = trace.Record{Seq: uint64(i) * 3, PC: 0x400000, Addr: 1 << 30, CPU: uint8(i % 2)}
		}
		for i := n / 2; i < n; i++ {
			widen(&recs[i])
		}
		w := workload.Workload{Name: name, Make: func(workload.Config) trace.Source { return trace.NewSliceSource(recs) }}
		e := New(Config{Workload: workload.Config{CPUs: 2, Length: n}})
		e.traces.hold(name)
		src, generated := e.traceSource(w)
		if _, packed := src.(*trace.PackedSource); packed || !generated {
			t.Fatalf("%s: packed %v, generated %v; want a generator stream", name, packed, generated)
		}
		if got := trace.Collect(src, 0); len(got) != n || got[n-1] != recs[n-1] {
			t.Fatalf("%s: streamed %d records ending %v", name, len(got), got[len(got)-1])
		}
		if reserved, entries := memoReserved(e); reserved != 0 || entries != 0 {
			t.Fatalf("%s: %d bytes reserved by %d memo entries, want none", name, reserved, entries)
		}
		e.traces.release(name)
	}
}

// memoSpare reads the memo's spare trace.
func memoSpare(e *Engine) *trace.Packed {
	e.traces.mu.Lock()
	defer e.traces.mu.Unlock()
	return e.traces.spare
}

// TestReleasedTraceRecycled: the last release of a workload keeps its
// trace as the spare while another workload is held, the next
// generation packs into it and replays its own records, and the spare
// is dropped once no workload is held.
func TestReleasedTraceRecycled(t *testing.T) {
	wcfg := workload.Config{CPUs: 2, Seed: 5, Length: 20_000}
	e := New(Config{Workload: wcfg})
	byName := func(name string) workload.Workload {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	db2, dss := byName("oltp-db2"), byName("dss-q1")
	e.traces.hold(db2.Name)
	e.traces.hold(dss.Name)
	src, _ := e.traceSource(db2)
	trace.Collect(src, 0)
	ent, _ := e.traces.lookup(db2.Name)
	first := ent.packed
	e.traces.release(db2.Name)
	if got := memoSpare(e); got != first {
		t.Fatalf("spare after releasing oltp-db2 = %p, want its trace %p", got, first)
	}

	src, generated := e.traceSource(dss)
	if !generated {
		t.Fatal("dss-q1 was not generated")
	}
	got := trace.Collect(src, 0)
	want := trace.Collect(dss.Make(wcfg), 0)
	if len(got) != len(want) {
		t.Fatalf("recycled trace replayed %d records, generator %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("recycled trace record %d = %v, generator %v", i, got[i], want[i])
		}
	}
	if ent, _ := e.traces.lookup(dss.Name); ent == nil || ent.packed != first {
		t.Fatal("dss-q1 was not packed into the released trace")
	}
	if memoSpare(e) != nil {
		t.Fatal("the spare stayed after a generation took it")
	}

	e.traces.release(dss.Name)
	if memoSpare(e) != nil {
		t.Fatal("an idle engine keeps a spare trace")
	}
	if reserved, entries := memoReserved(e); reserved != 0 || entries != 0 {
		t.Fatalf("idle engine: %d bytes reserved by %d entries", reserved, entries)
	}
}

// TestRecycledTraceNeverBacksLiveSource runs grids whose memo fits one
// trace, so a workload's later cells pack into the trace the previous
// workload released, and two traces, so generations also run while
// other workloads' traces are replayed. Up to three cells read at once,
// and every cell compares its records with the generator's; under
// -race, a generation packing into a trace that a live source still
// reads is also a reported race. Each grid must have recycled a trace,
// and the idle engine holds none.
func TestRecycledTraceNeverBacksLiveSource(t *testing.T) {
	wcfg := workload.Config{CPUs: 2, Seed: 5, Length: 20_000}
	names := []string{"oltp-db2", "dss-q1", "sparse", "ocean"}
	want := make(map[string][]trace.Record)
	for _, name := range names {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = trace.Collect(w.Make(wcfg), 0)
	}
	for _, halves := range []int64{3, 5} {
		e := New(Config{Workload: wcfg, Parallel: 3})
		e.traces.budget = trace.PackedBytes(wcfg.Length) * halves / 2
		var mu sync.Mutex
		served := make(map[*trace.Packed]map[string]bool)
		plan := Plan{Name: "recycle"}
		for _, name := range names {
			for i := range 4 {
				plan.Customs = append(plan.Customs, Custom{Workload: name, Key: string(rune('a' + i)),
					Run: func(ctx context.Context, src trace.Source) (any, error) {
						if _, ok := src.(*trace.PackedSource); ok {
							ent, _ := e.traces.lookup(name)
							if ent == nil {
								return nil, fmt.Errorf("%s: a packed replay without a memo entry", name)
							}
							mu.Lock()
							if served[ent.packed] == nil {
								served[ent.packed] = make(map[string]bool)
							}
							served[ent.packed][name] = true
							mu.Unlock()
						}
						got := trace.Collect(src, 0)
						if len(got) != len(want[name]) {
							return nil, fmt.Errorf("%s: %d records, generator %d", name, len(got), len(want[name]))
						}
						for i := range got {
							if got[i] != want[name][i] {
								return nil, fmt.Errorf("%s: record %d = %v, generator %v", name, i, got[i], want[name][i])
							}
						}
						return nil, nil
					}})
			}
		}
		if _, err := e.Execute(context.Background(), plan); err != nil {
			t.Fatalf("budget %d half traces: %v", halves, err)
		}
		recycled := false
		for _, ws := range served {
			recycled = recycled || len(ws) > 1
		}
		if !recycled {
			t.Errorf("budget %d half traces: no trace was recycled across workloads (%d traces served)", halves, len(served))
		}
		if memoSpare(e) != nil {
			t.Errorf("budget %d half traces: the idle engine keeps a spare trace", halves)
		}
		if reserved, entries := memoReserved(e); reserved != 0 || entries != 0 {
			t.Errorf("budget %d half traces: %d bytes reserved by %d entries after the grid", halves, reserved, entries)
		}
	}
}

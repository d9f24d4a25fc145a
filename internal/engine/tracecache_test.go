package engine

import (
	"bytes"
	"context"
	"encoding/json"
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
	size := int64(wcfg.Canonical().Length) * recordBytes
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

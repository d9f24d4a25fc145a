package engine

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tierPlan builds a small grid over one workload with the given variants.
func tierPlan(name string, variants ...string) Plan {
	p := Plan{Name: name, Workloads: []string{"oltp-db2"}}
	for _, v := range variants {
		p.Variants = append(p.Variants, Variant{Key: v, Config: sim.Config{PrefetcherName: v}})
	}
	return p
}

// TestTraceTierSurvivesProcessRestart is the persistence acceptance
// test: two Engine instances over one store directory stand in for two
// processes. The second engine simulates runs the store has never seen
// (new prefetcher variants) yet performs zero trace generations — its
// traces replay from the disk tier — and its results are bit-identical
// to generator-fed runs.
func TestTraceTierSurvivesProcessRestart(t *testing.T) {
	dir := t.TempDir()
	wcfg := workload.Config{CPUs: 2, Seed: 5, Length: 20_000}

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := New(Config{Workload: wcfg, Store: st1})
	if _, err := first.Execute(context.Background(), tierPlan("warm", "none", "sms")); err != nil {
		t.Fatal(err)
	}
	if got := first.TraceGenerations(); got != 1 {
		t.Fatalf("first engine generated %d times, want 1", got)
	}
	if !st1.HasTrace(store.ForTrace("oltp-db2", wcfg)) {
		t.Fatal("first engine did not write the trace artifact")
	}

	// "Fresh process": a new store handle and a new engine. The ghb/
	// stride runs are result-store misses, so they must simulate — but
	// their trace replays from the tier.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	second := New(Config{Workload: wcfg, Store: st2})
	grid, err := second.Execute(context.Background(), tierPlan("cold-results", "none", "sms", "ghb", "stride"))
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Simulations(); got != 2 {
		t.Fatalf("second engine simulated %d runs, want 2 (ghb, stride)", got)
	}
	if got := second.TraceGenerations(); got != 0 {
		t.Fatalf("second engine generated %d traces, want 0 (warm tier)", got)
	}
	if got := second.TraceTierHits(); got != 2 {
		t.Fatalf("trace tier hits = %d, want 2", got)
	}

	// Bit-identity: the tier-replayed results equal a storeless
	// generator-fed engine's results, JSON-byte for JSON-byte.
	plain := New(Config{Workload: wcfg})
	grid2, err := plain.Execute(context.Background(), tierPlan("plain", "ghb", "stride"))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"ghb", "stride"} {
		a, _ := json.Marshal(grid.Result("oltp-db2", v))
		b, _ := json.Marshal(grid2.Result("oltp-db2", v))
		if string(a) != string(b) {
			t.Fatalf("tier-replayed %s result differs from generator run:\n%s\nvs\n%s", v, a, b)
		}
	}

	// Store keys are untouched by the tier: the second engine's repeat
	// of the warm variants was a pure result-store hit.
	if got := second.StoreHits(); got != 2 {
		t.Fatalf("result store hits = %d, want 2 (none, sms)", got)
	}
}

// TestTraceTierServesOverBudgetTraces: a trace too long for the
// in-memory memo still replays from the disk tier once an artifact
// exists (here written by an in-budget engine over the same config) —
// the read path that lets grids scale past RAM.
func TestTraceTierServesOverBudgetTraces(t *testing.T) {
	dir := t.TempDir()
	wcfg := workload.Config{CPUs: 2, Seed: 9, Length: 10_000}

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := New(Config{Workload: wcfg, Store: st1})
	if _, err := warm.Execute(context.Background(), tierPlan("warm", "none")); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A one-record memo budget: every trace is over budget.
	tiny := New(Config{Workload: wcfg, Store: st2})
	tiny.traces.budget = trace.PackedBytes(1)
	if _, err := tiny.Execute(context.Background(), tierPlan("over-budget", "sms", "ghb")); err != nil {
		t.Fatal(err)
	}
	if got := tiny.TraceGenerations(); got != 0 {
		t.Fatalf("over-budget engine generated %d traces, want 0 (tier replay)", got)
	}
	if got := tiny.TraceTierHits(); got != 2 {
		t.Fatalf("trace tier hits = %d, want 2", got)
	}
}

// TestTierArtifactCPUsBoundRecords: a tier artifact is served only when
// its header's CPU count is the run's, and a record naming a CPU past
// that count fails the run with the decoder's error instead of indexing
// past the hierarchy's per-CPU state.
func TestTierArtifactCPUsBoundRecords(t *testing.T) {
	const name = "oltp-db2"
	wcfg := workload.Config{CPUs: 2, Seed: 3, Length: 20_000}
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	key := store.ForTrace(name, wcfg)
	plan := tierPlan("cpus", "sms")

	// A header claiming four CPUs is not served: the run generates.
	st := openStore(t, t.TempDir())
	hdr := trace.Header{CPUs: 4, Workload: name, WorkloadHash: key}
	if err := st.PutTrace(key, hdr, trace.NewSliceSource(trace.Collect(w.Make(wcfg), 0))); err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workload: wcfg, Store: st})
	grid, err := e.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if hits, gens := e.TraceTierHits(), e.TraceGenerations(); hits != 0 || gens != 1 {
		t.Fatalf("4-CPU artifact for a 2-CPU run: %d tier hits, %d generations; want 0, 1", hits, gens)
	}
	want, err := New(Config{Workload: wcfg}).Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(grid.Result(name, "sms"))
	b, _ := json.Marshal(want.Result(name, "sms"))
	if string(a) != string(b) {
		t.Fatal("run beside a refused artifact differs from a generator-fed run")
	}

	// A record naming CPU 2, written under a 3-CPU header patched down
	// to two CPUs.
	dir := t.TempDir()
	st = openStore(t, dir)
	recs := trace.Collect(w.Make(wcfg), 0)
	recs[len(recs)/2].CPU = 2
	hdr.CPUs = 3
	if err := st.PutTrace(key, hdr, trace.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "traces", key[:2], key+".smst")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[8] = 2 // header CPU count, [8:12] little-endian
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	e = New(Config{Workload: wcfg, Store: st})
	if _, err := e.Execute(context.Background(), plan); !errors.Is(err, trace.ErrBadFormat) {
		t.Fatalf("run over a record of CPU 2: err = %v, want ErrBadFormat", err)
	}
	if hits := e.TraceTierHits(); hits != 1 {
		t.Fatalf("trace tier hits = %d, want 1", hits)
	}
}

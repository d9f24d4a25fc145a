package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/nextline"
	"repro/internal/sectored"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The ls and next-line schemes under the probe, built exactly as the
// simulator's own registrations build them.
func init() {
	sim.Register("bench-ls", func(cfg sim.Config) (sim.Prefetcher, error) {
		c := cfg.LS
		c.Geometry = cfg.Geometry
		if c.CacheSize == 0 {
			c.CacheSize = cfg.Coherence.L1.Size
		}
		p, err := sectored.NewSimPrefetcher(c)
		if err != nil {
			return nil, err
		}
		return probe.attach(p, "ls"), nil
	})
	sim.Register("bench-nextline", func(cfg sim.Config) (sim.Prefetcher, error) {
		p, err := nextline.New(nextline.Config{BlockSize: cfg.Coherence.L1.BlockSize})
		if err != nil {
			return nil, err
		}
		return probe.attach(p, "nextline"), nil
	})
}

// benchmarkFile is the schema of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []benchLoad `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type benchLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
		delete(raw, key)
	}
	for key := range raw {
		t.Errorf("BENCHMARK.json has unexpected key %q", key)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark {%s %s}", i, bf.Workloads[i], w.name, w.why)
		}
	}
	sameDefs := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	sameDefs("end_to_end", bf.EndToEnd, endToEnd)
	sameDefs("per_layer", bf.PerLayer, perLayer)
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}
}

// TestWorkloadsEmitCatalogue runs every workload at tiny scale, untraced
// and traced, and checks the result line: exactly the catalogue's metric
// names and units, and every output check passing.
func TestWorkloadsEmitCatalogue(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{seed: 3, traced: traced, sc: tinyScale, workDir: t.TempDir()}
				rep, _, err := runWorkload(ctx, w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var stdout, stderr bytes.Buffer
				if err := rep.print(&stdout, &stderr); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var out map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if len(out) != 4 {
					t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys(out))
				}
				var res outcome
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d of %d checks failed:\n%s", res.Correct, res.Failed, res.Attempted, stderr.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
			})
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func tinyTrace(t *testing.T, name string, n uint64) []trace.Record {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Collect(w.Make(workload.Config{CPUs: 4, Seed: 2, Length: n}), 0)
}

func runDigest(t *testing.T, cfg sim.Config, recs []trace.Record) string {
	t.Helper()
	runner, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.RunContext(context.Background(), trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	d, err := digest(res)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestProbeIsTransparent checks that wrapping an engine in the timing
// probe leaves the simulation's Result byte-identical.
func TestProbeIsTransparent(t *testing.T) {
	recs := tinyTrace(t, "oltp-oracle", 80_000)
	for _, scheme := range []string{"sms", "ls", "nextline"} {
		cfg := sim.Config{PrefetcherName: scheme, WarmupAccesses: 40_000}
		plain := runDigest(t, cfg, recs)
		probe.reset(nil)
		cfg.PrefetcherName = "bench-" + scheme
		probed := runDigest(t, cfg, recs)
		if plain != probed {
			t.Errorf("%s: probed Result %s, plain %s", scheme, probed, plain)
		}
		if c := probe.totals(); c.trains != uint64(len(recs)) || c.trainTimed == 0 || c.drainTimed == 0 {
			t.Errorf("%s: probe counted %+v over %d records", scheme, c, len(recs))
		}
	}
}

// TestStepSMSRungMatchesRunContext checks that the ladder's SMS rung is
// the plain simulation of its corpus.
func TestStepSMSRungMatchesRunContext(t *testing.T) {
	recs := tinyTrace(t, "oltp-oracle", 60_000)
	base := sim.Config{Coherence: coherence.DefaultConfig(), WarmupAccesses: 30_000}
	smsCfg := base
	smsCfg.PrefetcherName = "sms"
	r := &run{ctx: context.Background(), sc: tinyScale, rep: newReport("ladder", true)}
	results, err := r.ladder(corpus{
		source:  func() trace.Source { return trace.NewSliceSource(recs) },
		records: uint64(len(recs)),
		base:    base,
		variant: func(name string) sim.Config {
			c := base
			c.PrefetcherName = name
			return c
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := digest(results["step_sms"])
	if err != nil {
		t.Fatal(err)
	}
	if want := runDigest(t, smsCfg, recs); got != want {
		t.Errorf("step_sms rung Result %s, plain RunContext %s", got, want)
	}
	if r.rep.failed != 0 {
		t.Errorf("ladder checks failed: %v", r.rep.problems)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(n=4) default, which the spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// sideOf builds a comparison side holding one metric's values.
func sideOf(metric string, values []float64) side {
	s := newSide()
	s.values["sms-tier "+metric] = values
	return s
}

func TestCompareFlagsRegression(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	// A 20% regression against a 10% bound, and against the benchmark's
	// own 25% bound a 30% one.
	tight := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	if v, _ := pairVerdict(tight, base, scaled(1.2)); v != verdictRegressed {
		t.Errorf("20%% slower against a 10%% bound: %q, want %q", v, verdictRegressed)
	}
	var out bytes.Buffer
	if n := compareSides(&out, sideOf("wall_s", base), sideOf("wall_s", scaled(1.3))); n != 1 {
		t.Errorf("a 30%% slower wall_s gave %d regressions, want 1:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("no REGRESSED row:\n%s", out.String())
	}
	out.Reset()
	if n := compareSides(&out, sideOf("wall_s", base), sideOf("wall_s", base)); n != 0 {
		t.Errorf("identical sides gave %d regressions:\n%s", n, out.String())
	}
	if strings.Contains(out.String(), verdictRegressed) || !strings.Contains(out.String(), verdictOK) {
		t.Errorf("identical sides not reported ok:\n%s", out.String())
	}
	if v, _ := pairVerdict(tight, base, scaled(0.8)); v != verdictGain {
		t.Errorf("20%% faster in every pair: %q, want %q", v, verdictGain)
	}

	noisy := []float64{1, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.75, 1.1}
	if v, _ := pairVerdict(tight, noisy, base); v != verdictUnresolved {
		t.Errorf("a baseline spread wider than the bound gave %q, want %q", v, verdictUnresolved)
	}
}

func TestCompareRefusesOtherEnvironments(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, env environment) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, resultFile{Env: env}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	env := environment{NProc: 2, GOMAXPROCS: 2, CPUModel: "cpu", GoVersion: "go1.24.0"}
	other := env
	other.GOMAXPROCS = 1
	a, b := write("a.json", env), write("b.json", other)
	var out bytes.Buffer
	err := compareFiles(&out, []string{a, b})
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Errorf("comparing GOMAXPROCS 2 with 1: err %v, want a refusal naming GOMAXPROCS", err)
	}
	if err := compareFiles(&out, []string{a, a}); err != nil {
		t.Errorf("comparing a result with itself: %v", err)
	}
}

// TestReplayViewsReadsEverything guards the replay rung against silently
// skipping records.
func TestReplayViewsReadsEverything(t *testing.T) {
	recs := make([]trace.Record, 10_000)
	for i := range recs {
		recs[i].Addr = mem.Addr(i * 64)
	}
	clock := chunkClock{every: 4096}
	if err := replayViews(trace.NewSliceSource(recs), &clock); err != nil {
		t.Fatal(err)
	}
	if len(clock.ns) != 2 {
		t.Errorf("%d chunks of 4096 over 10000 records, want 2", len(clock.ns))
	}
}

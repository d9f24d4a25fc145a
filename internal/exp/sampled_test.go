package exp

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sim"
)

func TestSampledConfigScales(t *testing.T) {
	sc := SampledConfig(Options{Length: 1_200_000}.normalized())
	if !sc.Enabled() {
		t.Fatal("figure-scale sampling config disabled")
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if sc.IntervalRecords != 50_000 || sc.WindowRecords != 781 || sc.WarmupRecords != 32_768 {
		t.Errorf("unexpected scaling: %+v", sc)
	}
	// Long traces amortize the L2-scale warming into a real speedup.
	long := SampledConfig(Options{Length: 12_000_000}.normalized())
	if frac := float64(long.WindowRecords+long.WarmupRecords) / float64(long.IntervalRecords); frac > 0.10 {
		t.Errorf("12M-record config simulates %.1f%%, want <= 10%%", 100*frac)
	}
	// Tiny lengths must still produce a valid config, not a zero window.
	if tiny := SampledConfig(Options{CPUs: 1, Length: 10}.normalized()); !tiny.Enabled() || tiny.Validate() != nil {
		t.Errorf("tiny-length config invalid: %+v", tiny)
	}
}

func TestSampledPlanShape(t *testing.T) {
	o := QuickOptions().normalized()
	p := SampledPlan(o)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Variants) != 2*len(sampledSchemes) {
		t.Fatalf("want paired exact+sampled variants, got %d", len(p.Variants))
	}
	for _, v := range p.Variants {
		sampled := strings.HasSuffix(v.Key, "~s")
		if v.Config.Sampling.Enabled() != sampled {
			t.Errorf("variant %q: sampling enabled = %v", v.Key, v.Config.Sampling.Enabled())
		}
	}
}

// The session-level transform: a session with sampling enabled runs its
// figure plans sampled, keyed separately from exact figures.
func TestSessionSamplingTransform(t *testing.T) {
	o := Options{CPUs: 1, Length: 40_000, Sampling: sim.SamplingConfig{WindowRecords: 500, IntervalRecords: 4000}}
	s := NewSession(o)
	grid, err := s.Execute(context.Background(), engine.Plan{
		Name:      "t",
		Workloads: []string{"sparse"},
		Variants:  []engine.Variant{{Key: "base", Config: o.BaselineConfig()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if grid.Result("sparse", "base").Sampling == nil {
		t.Fatal("sampling-enabled session executed plan exact")
	}

	exact := NewSession(Options{CPUs: 1, Length: 40_000})
	if exact.RunKey("sparse", o.BaselineConfig()) == s.RunKey("sparse", engine.Sampled(engine.Plan{Variants: []engine.Variant{{Key: "base", Config: o.BaselineConfig()}}}, s.Options().Sampling).Variants[0].Config) {
		t.Fatal("sampled and exact session cells share a run key")
	}
}

// Nightly-scale statistical soundness on the real validation grid: most
// confidence intervals cover the exact value, the simulated fraction
// stays near the configured ~8%, and every sampled run produces enough
// windows for its intervals to mean something.
func TestSampledExperimentSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled-vs-exact validation grid skipped in -short mode")
	}
	s := NewSession(Options{CPUs: 2, Seed: 1, Length: 2_400_000})
	res, err := Sampled(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(SampledWorkloadNames())*len(sampledSchemes) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	const relTolerance = 0.10
	for _, row := range res.Rows {
		if row.Windows < 5 {
			t.Errorf("%s/%s: only %d windows", row.Workload, row.Scheme, row.Windows)
		}
		if f := row.SimulatedFraction; f > 0.40 {
			t.Errorf("%s/%s: simulated fraction %.1f%% exceeds 40%%", row.Workload, row.Scheme, 100*f)
		}
		for name, c := range map[string]SampledMetricCheck{"l1": row.L1, "offchip": row.OffChip} {
			if !c.Covered && c.RelErr() > relTolerance {
				t.Errorf("%s/%s %s: exact %.5f outside %.5f±%.5f (rel err %.1f%%)",
					row.Workload, row.Scheme, name, c.Exact, c.Mean, c.HalfWidth, 100*c.RelErr())
			}
		}
	}
	// Both phases simulated (fresh session, no store), so the wall-clock
	// comparison is honest; sampled must be faster even on generator
	// sources, which cannot seek. At this length L2-scale warming keeps
	// ~34% of the trace simulated, putting the theoretical edge near 2x,
	// so the assertion leaves headroom for scheduler noise — the real
	// speedup demonstrations (7.4x at 12M on generators, 16.9x at 24M
	// over the mmap trace tier) are recorded in the README.
	if res.ExactSimulations == 0 || res.SampledSimulations == 0 {
		t.Fatalf("phases did not simulate: exact=%d sampled=%d", res.ExactSimulations, res.SampledSimulations)
	}
	if sp := res.Speedup(); sp < 1.3 {
		t.Errorf("sampled speedup %.2fx < 1.3x on generator sources", sp)
	}
	out := res.Render()
	for _, want := range []string{"Sampled vs exact", "oltp-db2", "windows", "confidence"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestDSCoverageAgainstSampledBaseline: the DS study simulates every
// post-warm-up read, while a sampled baseline counts only its windows.
// Against a sampled baseline the DS row compares misses per read; against
// an exact one it compares counts, exactly as before.
func TestDSCoverageAgainstSampledBaseline(t *testing.T) {
	ds := dsOutcome{reads: 10_000, readMisses: 500, overpredictions: 200}

	exact := &sim.Result{Reads: 10_000, L1ReadMisses: 1_000}
	if got, want := dsCoverage(ds, exact), sim.CoverageFrom(500, 200, 1_000); got != want {
		t.Fatalf("exact baseline: %+v, want %+v", got, want)
	}

	// The same 10% miss rate, counted over one tenth of the reads.
	sampled := &sim.Result{Reads: 1_000, L1ReadMisses: 100, Sampling: &sim.SamplingSummary{Windows: 4}}
	got := dsCoverage(ds, sampled)
	want := sim.Coverage{Covered: 0.5, Uncovered: 0.5, Overpredicted: 0.2}
	const eps = 1e-12
	if math.Abs(got.Covered-want.Covered) > eps || math.Abs(got.Uncovered-want.Uncovered) > eps ||
		math.Abs(got.Overpredicted-want.Overpredicted) > eps {
		t.Fatalf("sampled baseline: %+v, want %+v (the raw counts would say %+v)",
			got, want, sim.CoverageFrom(ds.readMisses, ds.overpredictions, sampled.L1ReadMisses))
	}

	if got := dsCoverage(ds, &sim.Result{Sampling: &sim.SamplingSummary{}}); got != (sim.Coverage{}) {
		t.Fatalf("sampled baseline without misses: %+v, want zero", got)
	}
}

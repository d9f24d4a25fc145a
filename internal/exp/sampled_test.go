package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
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

// sampledFig8StoreSHA256 is the SHA-256 of the sampled Fig. 8 rendering,
// DS rows included, at quick scale on a store: the bytes every figure
// regeneration through the engine has produced, whatever order its cells
// are admitted in and whichever trace cache serves them.
const sampledFig8StoreSHA256 = "ccd9be7fc1998e8f09a0d3d7f006fa19b87330c43e7a11d2a7ec135d1ce67f6d"

// TestSampledFig8OnStorePinned regenerates the sampled Fig. 8 on a cold
// store, where every trace is generated once and replayed from the memo,
// and again in a fresh session over the warm store, where the standard
// cells are store hits and the DS cells replay the disk tier. Both render
// the pinned bytes.
func TestSampledFig8OnStorePinned(t *testing.T) {
	o := QuickOptions()
	o.Sampling = SampledConfig(o)
	dir := t.TempDir()
	for _, pass := range []string{"cold store", "warm store"} {
		s := NewSession(o)
		s.SetStore(openStore(t, dir))
		res, err := Fig8(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		sum := sha256.Sum256([]byte(res.Render()))
		if got := hex.EncodeToString(sum[:]); got != sampledFig8StoreSHA256 {
			t.Errorf("%s: rendered sampled Fig. 8 SHA-256 %s, pinned %s\n%s", pass, got, sampledFig8StoreSHA256, res.Render())
		}
		if pass == "warm store" {
			if g := s.Engine().TraceGenerations(); g != 0 {
				t.Errorf("warm store: %d trace generations, want 0", g)
			}
			if h := s.Engine().TraceTierHits(); h != uint64(len(WorkloadNames())) {
				t.Errorf("warm store: %d trace tier hits, want one per DS cell", h)
			}
		}
	}
}

// TestDSCellFailsOnCorruptTierArtifact: a DS cell replays the engine's
// trace, so a tier artifact that decodes to an error fails the cell with
// that error instead of a silently short (or panicking) study: a block
// whose record count disagrees with the index, and a record naming a CPU
// past the header's count.
func TestDSCellFailsOnCorruptTierArtifact(t *testing.T) {
	o := Options{CPUs: 2, Seed: 1, Length: 30_000}
	const name = "oltp-db2"
	wcfg := workload.Config{CPUs: o.CPUs, Seed: o.Seed, Length: o.Length}
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	key := store.ForTrace(name, wcfg)
	for _, tc := range []struct {
		name    string
		cpus    int                  // the header's CPU count as written
		records func([]trace.Record) // edits the records before writing
		raw     func([]byte)         // edits the artifact's bytes
	}{
		// The first block's record count sits right after the header;
		// the index still validates, so the damage shows only when it
		// decodes.
		{"block count", o.CPUs, func([]trace.Record) {}, func(raw []byte) { raw[66+len(name)] ^= 0x01 }},
		// Written under a 3-CPU header, then patched down to 2 CPUs.
		{"cpu out of range", o.CPUs + 1,
			func(recs []trace.Record) { recs[len(recs)/2].CPU = uint8(o.CPUs) },
			func(raw []byte) { raw[8] = byte(o.CPUs) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := openStore(t, t.TempDir())
			recs := trace.Collect(w.Make(wcfg), 0)
			tc.records(recs)
			hdr := trace.Header{CPUs: tc.cpus, Workload: name, WorkloadHash: key}
			if err := st.PutTrace(key, hdr, trace.NewSliceSource(recs)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(st.Dir(), "traces", key[:2], key+".smst")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.raw(raw)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			s := NewSession(o)
			s.SetStore(st)
			var ds engine.Custom
			for _, c := range Fig8Plan(s.Options()).Customs {
				if c.Workload == name {
					ds = c
				}
			}
			_, err = s.Execute(context.Background(), engine.Plan{Name: "ds", Customs: []engine.Custom{ds}})
			if !errors.Is(err, trace.ErrBadFormat) || !strings.Contains(err.Error(), "failed mid-stream") {
				t.Fatalf("DS cell over a corrupt artifact: err = %v, want the latched decode error", err)
			}
			if h := s.Engine().TraceTierHits(); h != 1 {
				t.Fatalf("trace tier hits = %d, want 1 (the DS cell replayed the artifact)", h)
			}
		})
	}
}

package exp

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

var (
	sharedOnce    sync.Once
	sharedSession *Session
)

// quickSession returns a shared QuickOptions session; the cache means
// repeated use across tests costs one set of runs. The figure-scale
// simulations behind it take over a minute for the package, so tests
// that need it honor testing.Short() and skip under `go test -short`
// (the CI configuration).
func quickSession(t *testing.T) *Session {
	t.Helper()
	if testing.Short() {
		t.Skip("figure-scale simulations skipped in -short mode")
	}
	sharedOnce.Do(func() { sharedSession = NewSession(QuickOptions()) })
	return sharedSession
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	if o.CPUs != 4 || o.Length == 0 || o.Parallel <= 0 {
		t.Fatalf("normalized = %+v", o)
	}
	ms := o.MemorySystem(128)
	if ms.L1.BlockSize != 128 || ms.L2.BlockSize != 128 {
		t.Fatal("block size not applied")
	}
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, b := range Fig4Sizes {
		if err := o.MemorySystem(b).Validate(); err != nil {
			t.Errorf("block %d: %v", b, err)
		}
	}
}

func TestSessionCaching(t *testing.T) {
	s := NewSession(Options{CPUs: 1, Length: 20_000})
	cfg := sim.Config{Coherence: s.Options().MemorySystem(64)}
	a, err := s.Run(context.Background(), "sparse", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(context.Background(), "sparse", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical runs not cached")
	}
	c, err := s.Run(context.Background(), "sparse", sim.Config{Coherence: s.Options().MemorySystem(64), PrefetcherName: "sms"})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct configs shared a cache entry")
	}
}

func TestWorkloadAndGroupNames(t *testing.T) {
	if len(WorkloadNames()) != 11 || len(GroupNames()) != 4 {
		t.Fatal("name lists wrong")
	}
	if groupOf("sparse") != workload.GroupScientific || groupOf("nope") != "" {
		t.Fatal("groupOf wrong")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("T", "a", "bb")
	tb.SetCaption("cap")
	tb.AddRow("1", "2")
	tb.AddRowf("x", 0.5, 7)
	out := tb.Render()
	for _, want := range []string{"T", "cap", "a", "bb", "0.500", "7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if Pct(0.123) != "12.3%" {
		t.Errorf("Pct = %s", Pct(0.123))
	}
	if sizeLabel(64) != "64B" || sizeLabel(2048) != "2kB" {
		t.Error("sizeLabel wrong")
	}
	if PHTSizeLabel(0) != "infinite" || PHTSizeLabel(16384) != "16k" || PHTSizeLabel(256) != "256" {
		t.Error("PHTSizeLabel wrong")
	}
}

func TestFig6ShapeQuick(t *testing.T) {
	res, err := Fig6(context.Background(), quickSession(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 16 {
		t.Fatalf("rows = %d, want 4 groups x 4 indices", len(res.Rows))
	}
	byKey := map[string]sim.Coverage{}
	for _, r := range res.Rows {
		byKey[r.Group+"/"+r.Index.String()] = r.Coverage
	}
	// §4.2: for DSS (single-visit scans), code-based indices must beat
	// address-bearing indices decisively.
	if byKey["DSS/PC+off"].Covered <= byKey["DSS/Addr"].Covered {
		t.Errorf("DSS: PC+off %.3f <= Addr %.3f", byKey["DSS/PC+off"].Covered, byKey["DSS/Addr"].Covered)
	}
	if byKey["DSS/PC+off"].Covered <= byKey["DSS/PC+addr"].Covered {
		t.Errorf("DSS: PC+off %.3f <= PC+addr %.3f", byKey["DSS/PC+off"].Covered, byKey["DSS/PC+addr"].Covered)
	}
	// PC+off must achieve the best or near-best coverage in every group.
	for _, g := range GroupNames() {
		pcOff := byKey[g+"/PC+off"].Covered
		for _, idx := range []string{"Addr", "PC"} {
			if byKey[g+"/"+idx].Covered > pcOff+0.10 {
				t.Errorf("%s: %s coverage %.3f far above PC+off %.3f", g, idx, byKey[g+"/"+idx].Covered, pcOff)
			}
		}
		if pcOff <= 0.05 {
			t.Errorf("%s: PC+off coverage %.3f implausibly low", g, pcOff)
		}
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig11ShapeQuick(t *testing.T) {
	res, err := Fig11(context.Background(), quickSession(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 33 {
		t.Fatalf("rows = %d, want 11 x 3", len(res.Rows))
	}
	cov := map[string]map[Fig11Variant]float64{}
	for _, r := range res.Rows {
		if cov[r.Workload] == nil {
			cov[r.Workload] = map[Fig11Variant]float64{}
		}
		cov[r.Workload][r.Variant] = r.Coverage.Covered
	}
	// §4.6: SMS beats GHB on the interleaved commercial workloads.
	for _, w := range []string{"oltp-db2", "oltp-oracle", "web-apache", "web-zeus"} {
		if cov[w][VariantSMS] <= cov[w][VariantGHB16k] {
			t.Errorf("%s: SMS %.3f <= GHB-16k %.3f", w, cov[w][VariantSMS], cov[w][VariantGHB16k])
		}
	}
	// sparse's SMS coverage must stay high. The paper reports 92%; the
	// reproduction reads 84.8% at the default length, below ocean's
	// 96.9%, so this guards only a floor, not the suite's best.
	if cov["sparse"][VariantSMS] < 0.5 {
		t.Errorf("sparse SMS coverage %.3f too low", cov["sparse"][VariantSMS])
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig12ShapeQuick(t *testing.T) {
	res, err := Fig12(context.Background(), quickSession(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 11 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var sparseSpeed, q1Speed float64
	for _, r := range res.Rows {
		if r.Speedup.Mean < 0.9 {
			t.Errorf("%s: speedup %.3f — SMS made it much slower", r.Workload, r.Speedup.Mean)
		}
		if r.Base.Total() < 0.999 || r.Base.Total() > 1.001 {
			t.Errorf("%s: base breakdown not normalized: %f", r.Workload, r.Base.Total())
		}
		switch r.Workload {
		case "sparse":
			sparseSpeed = r.Speedup.Mean
		case "dss-q1":
			q1Speed = r.Speedup.Mean
		}
	}
	if res.GeoMean <= 1.0 {
		t.Errorf("geomean speedup %.3f not > 1", res.GeoMean)
	}
	// §4.7 shape: sparse is the big winner; store-buffer-bound Q1 barely
	// moves.
	if sparseSpeed <= q1Speed {
		t.Errorf("sparse %.3f not above dss-q1 %.3f", sparseSpeed, q1Speed)
	}
	if res.Render() == "" || res.RenderBreakdown() == "" {
		t.Error("empty render")
	}
}

func TestTable1Renders(t *testing.T) {
	out := Table1(quickSession(t))
	for _, want := range []string{"Table 1", "16k-entry 16-way PHT", "2kB regions"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestAGTConfigLabel(t *testing.T) {
	if (AGTConfig{Filter: 32, Accum: 64}).Label() != "filter=32 accum=64" {
		t.Error("label wrong")
	}
	if !strings.Contains((AGTConfig{}).Label(), "inf") {
		t.Error("unbounded label wrong")
	}
}

func TestTimingParamsPerGroup(t *testing.T) {
	for _, g := range GroupNames() {
		p := TimingParamsFor(g)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", g, err)
		}
	}
	if !TimingParamsFor(workload.GroupWeb).SystemProportionalToTime {
		t.Error("web OS time must be proportional to time")
	}
	if TimingParamsFor(workload.GroupScientific).SystemFrac >= TimingParamsFor(workload.GroupWeb).SystemFrac {
		t.Error("scientific system fraction should be smallest")
	}
}

func TestFig6UsesInfinitePHT(t *testing.T) {
	// Guard against regressions: the Fig. 6 config must produce an
	// unbounded PHT.
	cfg := core.Config{Index: core.IndexPCOffset, PHTEntries: -1}
	s := core.MustNew(cfg)
	if !s.PHT().Infinite() {
		t.Fatal("PHTEntries=-1 did not select the unbounded table")
	}
}

func TestHeadlineQuick(t *testing.T) {
	res, err := Headline(context.Background(), quickSession(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanL1Coverage <= 0.2 || res.MeanOffChipCoverage <= 0.3 {
		t.Errorf("coverages too low: %+v", res)
	}
	if res.GeoMeanSpeedup <= 1.0 {
		t.Errorf("geomean speedup %.3f not > 1", res.GeoMeanSpeedup)
	}
	if res.BestName == "" || res.BestCommercialName == "" {
		t.Error("best workloads not identified")
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

// TestMergedPlanStructure: the prewarm grid covers every requested
// experiment's exact cells (no workload-union inflation for subset
// plans like ablate), drops custom cells, and validates.
func TestMergedPlanStructure(t *testing.T) {
	o := Options{CPUs: 1, Seed: 1, Length: 20_000}
	p, ok := MergedPlan("prewarm", o, "fig5", "ablate", "fig8", "table1", "unknown")
	if !ok {
		t.Fatal("no plan built")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Customs) != 0 {
		t.Fatalf("prewarm plan kept %d custom cells", len(p.Customs))
	}
	// fig5: 11 workloads × 1 variant; ablate: 2 workloads × 12 variants;
	// fig8: 11 workloads × 4 standard variants (DS custom dropped);
	// table1/unknown contribute nothing.
	want := 11*1 + 2*12 + 11*4
	if len(p.Extra) != want {
		t.Fatalf("merged plan has %d cells, want %d", len(p.Extra), want)
	}
	if _, ok := MergedPlan("prewarm", o, "table1", "unknown"); ok {
		t.Error("simulation-free experiments produced a plan")
	}

	// Aliases sharing a plan (fig13 renders from the fig12 grid) and
	// duplicate names must merge cleanly, contributing the grid once.
	p2, ok := MergedPlan("prewarm", o, "fig12", "fig13", "fig12")
	if !ok {
		t.Fatal("no plan for fig12+fig13")
	}
	if err := p2.Validate(); err != nil {
		t.Fatalf("fig12+fig13 merge invalid: %v", err)
	}
	if want := 11 * 2; len(p2.Extra) != want {
		t.Fatalf("fig12+fig13 merged to %d cells, want %d", len(p2.Extra), want)
	}
}

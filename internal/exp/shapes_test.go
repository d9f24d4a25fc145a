package exp

// Shape tests: quick-configuration checks that the qualitative claims the
// paper makes about each figure hold in the reproduction. Full-length
// numbers live in EXPERIMENTS.md; these guard the *orderings* that the
// paper's argument depends on.

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestFig4Shape(t *testing.T) {
	res, err := Fig4(context.Background(), quickSession(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4*len(Fig4Sizes) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	get := func(group string, size int) Fig4Row {
		for _, r := range res.Rows {
			if r.Group == group && r.Size == size {
				return r
			}
		}
		t.Fatalf("missing row %s/%d", group, size)
		return Fig4Row{}
	}
	for _, g := range GroupNames() {
		// Oracle opportunity improves (miss rate drops) as regions grow:
		// 2kB strictly better than 64B at both levels.
		if o64, o2k := get(g, 64), get(g, 2048); o2k.L1Opportunity >= o64.L1Opportunity {
			t.Errorf("%s: L1 opportunity did not improve with region size (%.3f -> %.3f)",
				g, o64.L1Opportunity, o2k.L1Opportunity)
		}
		// The 64B cache is the normalization baseline.
		r64 := get(g, 64)
		if r64.L1Misses < 0.99 || r64.L1Misses > 1.01 {
			t.Errorf("%s: 64B normalized L1 misses = %.3f, want 1.0", g, r64.L1Misses)
		}
	}
	// Commercial L1 miss rates blow up at large blocks from conflicts
	// (the paper's sharp increase beyond 512B).
	oltp8k := get(workload.GroupOLTP, 8192)
	if oltp8k.L1Misses < 1.2 {
		t.Errorf("OLTP 8kB-block L1 misses %.3f — conflict explosion missing", oltp8k.L1Misses)
	}
	// The oracle at 8kB must beat the 8kB-block cache at L1 decisively.
	if oltp8k.L1Opportunity >= oltp8k.L1Misses {
		t.Errorf("OLTP 8kB: oracle %.3f not better than big-block cache %.3f",
			oltp8k.L1Opportunity, oltp8k.L1Misses)
	}
	// False sharing appears at large blocks for the commercial groups.
	if get(workload.GroupOLTP, 8192).L2FalseSharing <= 0 {
		t.Error("OLTP 8kB blocks show no false sharing")
	}
	if get(workload.GroupOLTP, 64).L2FalseSharing != 0 {
		t.Error("false sharing reported at 64B blocks")
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(context.Background(), quickSession(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 22 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byKey := map[string]Fig5Row{}
	for _, r := range res.Rows {
		byKey[r.Workload+"/"+r.Level] = r
		var sum float64
		for _, f := range r.Fractions {
			sum += f
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s/%s: fractions sum to %.3f", r.Workload, r.Level, sum)
		}
	}
	// ocean is the dense outlier: its misses come from full-region
	// (32-block) generations.
	if o := byKey["ocean/L1"]; o.Fractions[6] < 0.5 {
		t.Errorf("ocean L1 density-32 share = %.3f, want dominant", o.Fractions[6])
	}
	// OLTP spreads across buckets (the paper's "wide variation"): no
	// single bucket dominates completely.
	if r := byKey["oltp-db2/L1"]; r.Fractions[6] > 0.9 || r.Fractions[0] > 0.9 {
		t.Errorf("oltp-db2 L1 density not spread: %v", r.Fractions)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := Fig7(context.Background(), quickSession(t))
	if err != nil {
		t.Fatal(err)
	}
	cov := map[string]map[string]map[int]float64{}
	for _, r := range res.Rows {
		idx := r.Index.String()
		if cov[r.Group] == nil {
			cov[r.Group] = map[string]map[int]float64{}
		}
		if cov[r.Group][idx] == nil {
			cov[r.Group][idx] = map[int]float64{}
		}
		cov[r.Group][idx][r.Entries] = r.Coverage
	}
	// §4.2: PC+offset at 16k entries must be near its infinite coverage
	// (storage proportional to code, not data).
	for _, g := range GroupNames() {
		inf := cov[g]["PC+off"][0]
		at16k := cov[g]["PC+off"][16384]
		if at16k < inf-0.08 {
			t.Errorf("%s: PC+off 16k %.3f far below infinite %.3f", g, at16k, inf)
		}
	}
	// For DSS, PC+address remains far below PC+offset even at 16k.
	if cov[workload.GroupDSS]["PC+addr"][16384] >= cov[workload.GroupDSS]["PC+off"][16384] {
		t.Error("DSS: PC+addr should not reach PC+off at 16k entries")
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := Fig8(context.Background(), quickSession(t))
	if err != nil {
		t.Fatal(err)
	}
	cov := map[string]map[TrainingStructure]float64{}
	unc := map[string]map[TrainingStructure]float64{}
	for _, r := range res.Rows {
		if cov[r.Group] == nil {
			cov[r.Group] = map[TrainingStructure]float64{}
			unc[r.Group] = map[TrainingStructure]float64{}
		}
		cov[r.Group][r.Train] = r.Coverage.Covered
		unc[r.Group][r.Train] = r.Coverage.Uncovered
	}
	for _, g := range GroupNames() {
		// §4.3: DS's cache-content constraints leave far more misses
		// than AGT-based SMS.
		if unc[g][TrainDS] <= unc[g][TrainAGT] {
			t.Errorf("%s: DS uncovered %.3f not above AGT %.3f", g, unc[g][TrainDS], unc[g][TrainAGT])
		}
		// AGT achieves at least LS-level coverage (within noise).
		if cov[g][TrainAGT] < cov[g][TrainLS]-0.05 {
			t.Errorf("%s: AGT coverage %.3f below LS %.3f", g, cov[g][TrainAGT], cov[g][TrainLS])
		}
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

// TestFig8NextLineSeries checks the registry-added next-line scheme shows
// up as its own Fig. 8 series. It runs a tiny dedicated session so the
// check still executes in -short (CI) mode.
func TestFig8NextLineSeries(t *testing.T) {
	s := NewSession(Options{CPUs: 2, Length: 30_000})
	res, err := Fig8(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	nl := 0
	for _, r := range res.Rows {
		if r.Train == TrainNL {
			nl++
		}
	}
	if want := len(GroupNames()); nl != want {
		t.Fatalf("NL rows = %d, want %d", nl, want)
	}
	if out := res.Render(); !strings.Contains(out, "NL") {
		t.Errorf("render missing NL series:\n%s", out)
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := Fig9(context.Background(), quickSession(t))
	if err != nil {
		t.Fatal(err)
	}
	cov := map[string]map[TrainingStructure]map[int]float64{}
	for _, r := range res.Rows {
		if cov[r.Group] == nil {
			cov[r.Group] = map[TrainingStructure]map[int]float64{
				TrainLS: {}, TrainAGT: {},
			}
		}
		cov[r.Group][r.Train][r.Entries] = r.Coverage
	}
	// §4.3: at small PHT sizes, fragmented LS patterns waste storage, so
	// AGT coverage at 1k entries beats or matches LS at 2k for the
	// interleaving-heavy OLTP group.
	oltp := cov[workload.GroupOLTP]
	if oltp[TrainAGT][1024] < oltp[TrainLS][2048]-0.05 {
		t.Errorf("OLTP: AGT@1k %.3f below LS@2k %.3f — storage advantage missing",
			oltp[TrainAGT][1024], oltp[TrainLS][2048])
	}
	// Coverage is monotone-ish in PHT size for AGT (allow small noise).
	for _, g := range GroupNames() {
		if cov[g][TrainAGT][16384] < cov[g][TrainAGT][256]-0.02 {
			t.Errorf("%s: AGT coverage decreased with PHT size", g)
		}
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig10Shape(t *testing.T) {
	res, err := Fig10(context.Background(), quickSession(t))
	if err != nil {
		t.Fatal(err)
	}
	cov := map[string]map[int]float64{}
	for _, r := range res.Rows {
		if cov[r.Group] == nil {
			cov[r.Group] = map[int]float64{}
		}
		cov[r.Group][r.Size] = r.Coverage
	}
	for _, g := range GroupNames() {
		// §4.4: 2kB regions beat 128B regions everywhere (more trigger
		// misses eliminated by merging adjacent regions).
		if cov[g][2048] <= cov[g][128] {
			t.Errorf("%s: 2kB coverage %.3f not above 128B %.3f", g, cov[g][2048], cov[g][128])
		}
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestAGTSizingShape(t *testing.T) {
	res, err := AGTSizing(context.Background(), quickSession(t))
	if err != nil {
		t.Fatal(err)
	}
	cov := map[string]map[string]float64{}
	for _, r := range res.Rows {
		if cov[r.Workload] == nil {
			cov[r.Workload] = map[string]float64{}
		}
		cov[r.Workload][r.Config.Label()] = r.Coverage
	}
	// §4.5: 32/64 matches the infinite AGT across all applications.
	for _, name := range WorkloadNames() {
		practical := cov[name]["filter=32 accum=64"]
		infinite := cov[name]["filter=inf accum=inf"]
		if practical < infinite-0.05 {
			t.Errorf("%s: 32/64 coverage %.3f far below infinite %.3f", name, practical, infinite)
		}
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

// TestFig13Shape guards the breakdown's claim: both bars describe the
// same completed work (equal user busy time), normalized to the base
// bar, so the SMS bar's smaller total is exactly the Fig. 12 speedup,
// and SMS earns it by hiding off-chip read stalls. At quick scale
// oltp-oracle's SMS bar reads more off-chip time than its base, so the
// off-chip check covers the DSS, web and scientific groups, plus the
// suite mean.
func TestFig13Shape(t *testing.T) {
	res, err := Fig12(context.Background(), quickSession(t))
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-9
	var baseOff, smsOff float64
	for _, r := range res.Rows {
		if total := r.Base.Total(); math.Abs(total-1) > eps {
			t.Errorf("%s: base total %.6f, want 1.000", r.Workload, total)
		}
		if got, want := r.SMS.Total(), 1/r.Speedup.Mean; math.Abs(got-want) > eps*want {
			t.Errorf("%s: SMS total %.6f, want 1/speedup %.6f", r.Workload, got, want)
		}
		if math.Abs(r.SMS.UserBusy-r.Base.UserBusy) > eps {
			t.Errorf("%s: user busy %.3f (SMS) vs %.3f (base): the bars do different work", r.Workload, r.SMS.UserBusy, r.Base.UserBusy)
		}
		if groupOf(r.Workload) != workload.GroupOLTP && r.SMS.OffChipRead >= r.Base.OffChipRead {
			t.Errorf("%s: SMS off-chip read time %.3f not below the base's %.3f", r.Workload, r.SMS.OffChipRead, r.Base.OffChipRead)
		}
		baseOff += r.Base.OffChipRead
		smsOff += r.SMS.OffChipRead
	}
	if smsOff >= baseOff {
		t.Errorf("suite off-chip read time %.3f (SMS) not below %.3f (base)", smsOff, baseOff)
	}
	if out := res.RenderBreakdown(); !strings.Contains(out, "Figure 13") {
		t.Errorf("breakdown render missing its title:\n%s", out)
	}
}

func TestAblateShape(t *testing.T) {
	res, err := Ablate(context.Background(), quickSession(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2*len(ablationVariants()) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byKey := map[string]AblationRow{}
	for _, r := range res.Rows {
		byKey[r.Workload+"/"+r.Variant] = r
	}
	// One prediction register cripples interleaved streaming on OLTP.
	one := byKey["oltp-oracle/1 prediction register"].Coverage.Covered
	paper := byKey["oltp-oracle/practical (paper)"].Coverage.Covered
	if one >= paper {
		t.Errorf("1 register coverage %.3f not below practical %.3f", one, paper)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

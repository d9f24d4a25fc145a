package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/obs"
)

// scale sizes the workloads. fullScale is what the benchmark measures;
// the tests run tinyScale so the whole suite stays fast.
type scale struct {
	// records is the trace length of sms-tier and gens-scan.
	records uint64
	// fig8Len and sampledLen are the trace lengths of the two figure
	// workloads; ladderLen is the oltp-oracle corpus their ladders run.
	fig8Len, sampledLen, ladderLen uint64
	// chunk is the record count behind one ns/record sample. The figure
	// workloads read it from engine progress events, which arrive every
	// 16384 records, so it is a multiple of that.
	chunk uint64
	// setups is how many times a single-run workload builds its inputs
	// and fig8Setups how many set-up samples a figure workload takes (the
	// median is setup_s); minReps is the fewest timed reps per run, at
	// least 2 so a traced run has a traced and an untraced rep.
	setups, fig8Setups, minReps int
	// rowTolPP is how far, in percentage points, a sampled Fig. 8 row may
	// sit from the exact one before the check fails.
	rowTolPP float64
}

// fullScale keeps a full measurement round — 4 runs plus 22 per workload,
// with set-up and two builds — within its 3420 s cap on a 2-core host;
// README.md gives the arithmetic.
var fullScale = scale{
	records:    4_000_000,
	fig8Len:    300_000,
	sampledLen: 1_200_000,
	ladderLen:  1_000_000,
	chunk:      32_768,
	setups:     3,
	fig8Setups: 32,
	minReps:    3,
	rowTolPP:   4,
}

// tinyScale exercises every code path in well under a second per run.
// Sampling over so few records is not accurate, so its row check is
// effectively off.
var tinyScale = scale{
	records:    65_536,
	fig8Len:    40_000,
	sampledLen: 60_000,
	ladderLen:  40_000,
	chunk:      16_384,
	setups:     2,
	fig8Setups: 4,
	minReps:    2,
	rowTolPP:   100,
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	run  func(r *run) error
	// pin computes the exact outputs the workload's checks compare
	// against, for the pin file of one seed.
	pin func(ctx context.Context, seed int64, sc scale) (workloadPin, error)
}

// workloads are run in this order by -all (reversed in every second set).
var workloads = []workloadDef{
	{"sms-tier", "SMS on oltp-oracle replayed from the store's trace tier: trace decode, coherence and the SMS core do the work", runSMSTier, smsTier.pin},
	{"gens-scan", "dss-q1 scan with generation tracking and no prefetcher: coherence misses and trackers dominate, prefetch and decode bypassed", runGensScan, gensScan.pin},
	{"fig8-exact", "smsexp fig8 grid of 55 cells on nproc workers: engine scheduling, trace memo and all fig8 prefetchers", runFig8Exact, fig8Pin(false)},
	{"fig8-sampled-store", "smsexp -sample -store fig8 on a cold store: store and trace-tier writes, mmap seeks and the sampling driver", runFig8Sampled, fig8Pin(true)},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// run is one invocation of one workload.
type run struct {
	ctx    context.Context
	seed   int64
	budget time.Duration
	traced bool
	sc     scale
	nproc  int
	pin    *workloadPin // nil when the seed is not pinned
	work   string       // scratch directory, removed when the run ends
	tracer *obs.Tracer  // every span of a traced run; nil untraced
	rep    *report
}

// runConfig is what a caller chooses about a workload run.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	sc      scale
	pins    *pinFile // nil: no pins
	workDir string   // parent of the run's scratch directory
}

// runWorkload runs one workload and returns its report. An error means
// the run could not produce a result at all; failed output checks are
// counted in the report instead.
func runWorkload(ctx context.Context, w workloadDef, cfg runConfig) (*report, *obs.Tracer, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("creating work directory: %w", err)
	}
	work, err := os.MkdirTemp(cfg.workDir, w.name+"-")
	if err != nil {
		return nil, nil, fmt.Errorf("creating work directory: %w", err)
	}
	defer os.RemoveAll(work)

	r := &run{
		ctx:    ctx,
		seed:   cfg.seed,
		budget: time.Duration(cfg.seconds * float64(time.Second)),
		traced: cfg.traced,
		sc:     cfg.sc,
		nproc:  runtime.NumCPU(),
		work:   work,
		rep:    newReport(w.name, cfg.traced),
	}
	if cfg.pins != nil {
		if p, ok := cfg.pins.Workloads[w.name]; ok {
			r.pin = &p
		}
	}
	if cfg.traced {
		r.tracer = obs.NewTracer()
	}
	if err := w.run(r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return r.rep, r.tracer, nil
}

// repContext returns the context rep i runs under: in a traced run every
// second rep carries a fresh tracer, so traced and untraced reps
// interleave and their walls compare under the same conditions.
func (r *run) repContext(i int) (context.Context, *obs.Tracer) {
	if !r.traced || i%2 == 0 {
		return r.ctx, nil
	}
	t := obs.NewTracer()
	return obs.WithTracer(r.ctx, t), t
}

// absorb copies a rep tracer's spans into the run's trace file.
func (r *run) absorb(t *obs.Tracer) {
	for _, s := range t.Spans() {
		r.tracer.Add(s.Name, s.Cat, s.Track, s.Start, s.End)
	}
}

// span records one of the benchmark's own spans in a traced run.
func (r *run) span(name, track string, start time.Time) {
	r.tracer.Add(name, "bench", track, start, time.Now())
}

// phaseSeconds is the total time t's spans named name cover.
func phaseSeconds(t *obs.Tracer, name string) float64 {
	for _, p := range t.PhaseTotals() {
		if p.Name == name {
			return p.Seconds
		}
	}
	return 0
}

// endToEnd records the end-to-end metrics of an untraced run from its
// timed reps. peak is the RSS high-water mark read right after rep
// minReps, which every run reaches: a maximum over that many reps is
// steadier than one rep's peak (how high a rep's heap gets depends on
// where the garbage collector happens to run), and a fixed rep count
// keeps it independent of how many reps fit in the run, which matters
// because the engine never unmaps the trace-tier files each rep's session
// maps.
func (r *run) endToEnd(times []repTime, setups, chunks []float64, peak float64) {
	var walls, cpus []float64
	for _, t := range times {
		walls = append(walls, t.wall)
		cpus = append(cpus, t.cpu)
	}
	rep := r.rep
	rep.set("wall_s", median(walls))
	rep.note("wall_s.n", float64(len(walls)), "count")
	rep.note("wall_s.max", maxOf(walls), "s")
	rep.set("cpu_s", median(cpus))
	rep.set("ns_per_record_p50", median(chunks))
	rep.note("ns_per_record_p50.samples", float64(len(chunks)), "count")
	rep.set("setup_s", median(setups))
	rep.note("setup_s.n", float64(len(setups)), "count")
	rep.set("peak_rss_mb", peak)
}

// chunkTail records the tail of the untraced reps' chunk distribution,
// and beside it their median, which the ladder's rungs compare against.
func (r *run) chunkTail(chunks []float64) {
	r.rep.set("sim.chunk_p90_ns_per_record", percentile(chunks, 90))
	r.rep.note("ns_per_record_p50", median(chunks), "ns")
}

// overhead records how much slower the traced reps ran than the untraced
// ones of the same run.
func (r *run) overhead(untraced, traced []repTime) {
	var u, t []float64
	for _, x := range untraced {
		u = append(u, x.wall)
	}
	for _, x := range traced {
		t = append(t, x.wall)
	}
	if mu := median(u); mu > 0 && len(t) > 0 {
		r.rep.set("bench.trace_overhead_frac", median(t)/mu-1)
	}
}

func repName(tr *obs.Tracer) string {
	if tr != nil {
		return "rep traced"
	}
	return "rep"
}

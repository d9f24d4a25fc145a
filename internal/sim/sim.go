// Package sim drives memory-access traces through the coherent cache
// hierarchy with an optional prefetcher attached, and produces the
// miss/coverage/overprediction statistics, density histograms, oracle
// opportunity counts, and per-window samples that the experiment harness
// turns into the paper's figures.
//
// Accounting conventions follow the paper:
//
//   - Coverage and miss rates are computed over *read* misses (§4.1-4.6
//     report read misses; writes still train predictors, drive coherence
//     and fill caches).
//   - Coverage is the fraction of the *baseline* configuration's misses
//     that become prefetch hits; uncovered misses are the variant's
//     remaining demand misses over the same baseline. Cache pollution from
//     overpredictions shows up as extra uncovered misses, exactly as the
//     paper notes for Figure 6.
//   - Overpredictions are streamed blocks evicted or invalidated before
//     first use.
//   - Statistics are collected only after a warm-up prefix of the trace
//     (the paper uses half of each trace for warm-up).
//
// Besides exact mode (every record simulated in detail, the golden
// reference), a Runner with Config.Sampling enabled runs SMARTS-style
// sampled simulation: short detailed windows separated by functional
// warming and fast-forwarded gaps, reporting each headline metric as a
// mean ± Student's t confidence interval (see sampling.go and
// Result.Sampling).
package sim

import (
	"context"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/ghb"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sectored"
	"repro/internal/stride"
	"repro/internal/trace"
)

// Config parameterizes a simulation run.
type Config struct {
	// Coherence describes the memory system (CPUs, L1, L2).
	Coherence coherence.Config
	// Geometry is the spatial region geometry used by SMS/LS and the
	// generation trackers. Zero selects the 64 B / 2 kB default.
	Geometry mem.Geometry
	// PrefetcherName selects the attached prefetcher by registry name
	// (see Register; built-ins: "none", "sms", "ls", "ghb", "stride").
	// Empty selects the baseline system ("none").
	PrefetcherName string
	// SMS, LS, GHB and Stride configure the built-in schemes. Canonical
	// derives their run-dependent fields (geometry, LS cache size, block
	// size) from the run, and a built-in scheme's run keeps only its own
	// sub-config.
	SMS    core.Config
	LS     sectored.Config
	GHB    ghb.Config
	Stride stride.Config
	// StreamRate is the number of stream requests issued to the memory
	// system per demand access processed (models finite stream
	// bandwidth; default 4).
	StreamRate int
	// WarmupAccesses is the number of leading accesses excluded from
	// statistics. The convention (paper §4) is half the trace; callers
	// set this explicitly because sources do not expose their length.
	WarmupAccesses uint64
	// TrackGenerations enables the per-level generation trackers that
	// feed the density histograms (Fig. 5) and the oracle opportunity
	// counts (Fig. 4). It costs memory proportional to live regions.
	TrackGenerations bool
	// WindowInstructions, when nonzero, splits the measured trace into
	// fixed instruction windows and records per-window samples for the
	// timing model (Figs. 12/13).
	WindowInstructions uint64
	// Sampling, when enabled (WindowRecords > 0), switches the run to
	// SMARTS-style sampled simulation: short detailed measurement
	// windows separated by functional warming and fast-forwarded gaps,
	// with per-window confidence intervals reported in Result.Sampling.
	// The zero value keeps the exact, every-record mode.
	Sampling SamplingConfig
}

// DefaultStreamRate bounds stream issue per processed access.
const DefaultStreamRate = 4

// Canonical returns the configuration with every default resolved, so two
// configs that select the same simulation serialize identically. It is the
// only resolution: NewRunner builds from exactly this form, the result
// store hashes it, and smsd exchanges it over its HTTP API, so what a key
// names is what was simulated.
//
// The sub-configs' run-dependent fields are derived here and nowhere
// else: their geometry from the run, the LS cache size from the L1 size
// (unless set), and the GHB and stride block size from the L1 block size.
// A scheme keeps only the sub-configs its registration says it reads
// (RegisterReading): a built-in its own, "none" and "nextline" none, so
// one scheme's defaults never enter another's key. A scheme registered
// through Register, or not registered at all, keeps all four resolved,
// since its constructor may read any of them.
func (c Config) Canonical() Config {
	if c.PrefetcherName == "" {
		c.PrefetcherName = "none"
	}
	if c.Coherence.CPUs == 0 {
		c.Coherence = coherence.DefaultConfig()
	}
	if c.Geometry == (mem.Geometry{}) {
		c.Geometry = mem.DefaultGeometry()
	}
	if c.StreamRate == 0 {
		c.StreamRate = DefaultStreamRate
	}
	c.Sampling = c.Sampling.Canonical()

	c.SMS.Geometry = c.Geometry
	c.SMS = c.SMS.Canonical()
	c.LS.Geometry = c.Geometry
	if c.LS.CacheSize == 0 {
		c.LS.CacheSize = c.Coherence.L1.Size
	}
	c.LS = c.LS.Canonical()
	c.GHB.BlockSize = c.Coherence.L1.BlockSize
	c.GHB = c.GHB.Canonical()
	c.Stride.BlockSize = c.Coherence.L1.BlockSize
	c.Stride = c.Stride.Canonical()

	reads := ReadsAll
	if s, ok := lookup(c.PrefetcherName); ok {
		reads = s.reads
	}
	if reads&ReadsSMS == 0 {
		c.SMS = core.Config{}
	}
	if reads&ReadsLS == 0 {
		c.LS = sectored.Config{}
	}
	if reads&ReadsGHB == 0 {
		c.GHB = ghb.Config{}
	}
	if reads&ReadsStride == 0 {
		c.Stride = stride.Config{}
	}
	return c
}

// Runner executes one simulation.
type Runner struct {
	cfg Config
	sys *coherence.System

	pf     []Prefetcher // one engine per CPU; nil for the baseline
	fillL1 bool         // cached pf[0].FillLevel() == LevelL1

	gensL1 []*genTracker
	gensL2 []*genTracker

	res     Result
	warm    bool
	warming bool   // inside a sampled functional-warming phase: stats off
	counted uint64 // accesses processed

	// Per-record branch hoists, fixed at construction.
	trackGens  bool
	hasWindows bool
	hasPf      bool // len(pf) > 0, hoisted out of Step

	progressEvery uint64
	onProgress    func(records uint64)

	batch []trace.Record // reusable copy buffer for non-view sources

	// Per-record result scratch (see coherence.AccessResult): one access
	// result and one stream result live for the whole run, so the hot
	// path never moves result structs by value.
	acc  coherence.AccessResult
	sres coherence.StreamResult

	win winState

	// sampled holds the SMARTS-style sampling state; nil in exact mode.
	sampled *sampledState
}

// NewRunner builds a runner for cfg.Canonical(), attaching the prefetcher
// selected by cfg.PrefetcherName from the registry.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.Canonical()
	if err := cfg.Sampling.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sampling.Enabled() && cfg.WindowInstructions > 0 {
		return nil, fmt.Errorf("sim: sampled mode is incompatible with the timing model's instruction windows (WindowInstructions); run the timing figures exact")
	}
	if cfg.TrackGenerations {
		if err := cfg.Geometry.CheckPatternWidth(); err != nil {
			return nil, err
		}
	}
	sys, err := coherence.New(cfg.Coherence)
	if err != nil {
		return nil, err
	}
	r := &Runner{cfg: cfg, sys: sys}
	ncpu := cfg.Coherence.CPUs

	scheme, ok := lookup(cfg.PrefetcherName)
	if !ok {
		return nil, fmt.Errorf("sim: unknown prefetcher %q (registered: %v)", cfg.PrefetcherName, Names())
	}
	for i := 0; i < ncpu; i++ {
		p, err := scheme.ctor(cfg)
		if err != nil {
			return nil, err
		}
		if p == nil {
			// Baseline: the scheme attaches no engine.
			r.pf = nil
			break
		}
		r.pf = append(r.pf, p)
	}
	if len(r.pf) > 0 {
		r.fillL1 = r.pf[0].FillLevel() == coherence.LevelL1
		r.hasPf = true
	}

	if cfg.TrackGenerations {
		for i := 0; i < ncpu; i++ {
			r.gensL1 = append(r.gensL1, newGenTracker(cfg.Geometry))
			r.gensL2 = append(r.gensL2, newGenTracker(cfg.Geometry))
		}
	}
	r.trackGens = cfg.TrackGenerations
	r.hasWindows = cfg.WindowInstructions > 0
	r.warm = cfg.WarmupAccesses == 0
	if cfg.Sampling.Enabled() {
		r.sampled = newSampledState(cfg.Sampling)
	}
	r.res.DensityL1 = newDensityHistogram()
	r.res.DensityL2 = newDensityHistogram()
	return r, nil
}

// MustNewRunner is NewRunner that panics on error.
func MustNewRunner(cfg Config) *Runner {
	r, err := NewRunner(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Config returns the canonical configuration the runner was built from.
func (r *Runner) Config() Config { return r.cfg }

// DefaultProgressInterval is the record count between cancellation checks
// and progress callbacks in RunContext. At simulation rates of millions
// of records per second it bounds cancellation latency to milliseconds.
const DefaultProgressInterval = 16384

// OnProgress registers fn to observe the running record count every
// `every` processed records during RunContext (0 selects
// DefaultProgressInterval). The same interval paces cancellation checks,
// so a cancelled run returns within one progress interval. It must be
// set before the run starts.
func (r *Runner) OnProgress(every uint64, fn func(records uint64)) {
	if every == 0 {
		every = DefaultProgressInterval
	}
	r.progressEvery = every
	r.onProgress = fn
}

// Run drives the whole trace and returns the accumulated result. It is a
// thin uncancellable wrapper over RunContext. The returned Result is
// detached from the Runner, so callers that retain results (e.g. the
// engine's memoization cache) do not pin the runner's simulation state
// (caches, directory, predictor tables) in memory.
func (r *Runner) Run(src trace.Source) *Result {
	res, _ := r.RunContext(context.Background(), src)
	return res
}

// DefaultBatchRecords is the number of records RunContext drains from the
// source per batch. Batching amortizes source interface dispatch and the
// progress/cancellation bookkeeping across the batch; it never exceeds
// the progress interval, so callbacks stay at least as frequent as the
// per-record loop delivered them.
const DefaultBatchRecords = 4096

// RunContext drives src until exhaustion or cancellation, checking ctx
// and invoking any OnProgress callback once per progress interval. On
// cancellation it returns ctx's error and a nil Result: a partial run is
// never returned, so callers cannot mistake it for a completed one (or
// persist it).
//
// The trace is drained in batches (see drain), so sources that batch
// natively (all workload generators, trace.Reader) feed the simulator
// with no per-record interface calls. One of two consumers takes the
// batches: the serial loop or the sampled phase switch (Config.Sampling).
func (r *Runner) RunContext(ctx context.Context, src trace.Source) (*Result, error) {
	// Phase spans flow to any tracer on ctx (nil-safe no-ops otherwise);
	// they never touch the Result, so sampled and exact outputs stay
	// bit-identical with or without a tracer attached.
	ph := obs.TracerFrom(ctx).Phases("sim", obs.TrackFrom(ctx))
	defer ph.Close()
	d := r.newDrain(src)

	var err error
	if r.sampled != nil {
		err = r.runSampled(ctx, &d, ph)
	} else {
		ph.Enter("window")
		err = r.runSerial(ctx, &d)
	}
	if err == nil {
		err = d.end(ctx)
	}
	if err != nil {
		return nil, err
	}
	r.finish()
	if r.sampled != nil {
		r.res.Sampling = r.sampled.summary()
	}
	if r.onProgress != nil {
		r.onProgress(r.counted)
	}
	return r.Result(), nil
}

// runSerial is the plain consumer: every record through Step, in order.
func (r *Runner) runSerial(ctx context.Context, d *drain) error {
	for {
		batch := d.next(d.size)
		if len(batch) == 0 {
			return nil
		}
		for i := range batch {
			r.Step(batch[i])
		}
		if err := d.pace(ctx); err != nil {
			return err
		}
	}
}

// Result returns a detached copy of the accumulated statistics (for
// Step-based drivers).
func (r *Runner) Result() *Result {
	out := r.res
	return &out
}

// Step processes a single record (exposed for incremental drivers and
// tests).
func (r *Runner) Step(rec trace.Record) {
	r.counted++
	if !r.warm && r.counted > r.cfg.WarmupAccesses {
		// warm flips exactly once per run; recomputing the comparison on
		// every record was measurable at simulation rates.
		r.warm = true
	}
	cpu := int(rec.CPU)
	write := rec.IsWrite()

	acc := &r.acc
	r.sys.AccessInto(acc, cpu, rec.Addr, write)

	if r.collecting() {
		r.account(write, acc)
		if r.hasWindows {
			r.windowAccount(rec, acc)
		}
	}
	if r.trackGens {
		r.trackGenerations(cpu, rec, acc)
	}
	if r.hasPf {
		r.notifyPrefetcher(cpu, rec, acc)
		r.issueStreams(cpu)
	}
}

// account updates post-warm-up counters. write is the record's decoded
// IsWrite — Step already computed it, and recomputing here was visible
// at per-record rates.
func (r *Runner) account(write bool, acc *coherence.AccessResult) {
	res := &r.res
	res.Accesses++
	if write {
		res.Writes++
		if acc.Missed(coherence.LevelL1) {
			res.L1WriteMisses++
		}
		if acc.Missed(coherence.LevelL2) {
			res.OffChipWriteMisses++
		}
		r.accountTraffic(acc)
		return
	}
	res.Reads++
	if acc.Missed(coherence.LevelL1) {
		res.L1ReadMisses++
	}
	r.accountTraffic(acc)
	if acc.Missed(coherence.LevelL2) {
		res.OffChipReadMisses++
		if acc.CoherenceMiss {
			res.CoherenceReadMisses++
			if acc.FalseSharing {
				res.FalseSharingReadMisses++
			}
		}
	}
	if acc.L1PrefetchHit {
		res.L1CoveredMisses++
		if acc.L1PrefetchOffChip {
			res.OffChipCoveredMisses++
		}
	}
	if acc.L2PrefetchHit {
		res.OffChipCoveredMisses++
	}
}

// accountTraffic counts off-chip coherence-unit transfers: L2 demand
// fills and dirty L2 writebacks. (Dirty copies destroyed by invalidations
// also write back in a real protocol; they are a small second-order term
// and are not counted.)
func (r *Runner) accountTraffic(acc *coherence.AccessResult) {
	if acc.Missed(coherence.LevelL2) {
		r.res.OffChipBlocks++
	}
	for _, ev := range acc.L2Evictions {
		if ev.Dirty {
			r.res.OffChipBlocks++
		}
	}
}

// notifyPrefetcher trains the attached prefetcher and feeds it
// generation-ending events. Addresses the engine returns from Train are
// issued immediately (miss-triggered L2 prefetchers); queued streams are
// rate-limited separately by issueStreams.
func (r *Runner) notifyPrefetcher(cpu int, rec trace.Record, acc *coherence.AccessResult) {
	if r.pf == nil {
		return
	}
	for _, a := range r.pf[cpu].Train(rec, acc) {
		r.stream(cpu, a)
	}
	// Overpredictions are judged at the L2 lifetime: an L1 victim with a
	// surviving L2 copy may still be used from L2.
	collecting := r.collecting()
	if collecting {
		for _, ev := range acc.L2Evictions {
			if ev.PrefetchedUnused {
				r.res.Overpredictions++
			}
		}
	}
	// One walk over the invalidations: a destroyed streamed-but-unused
	// line is an overprediction, and an invalidation ends the spatial
	// region generation on the CPU that lost the block (§2.1).
	for _, inv := range acc.Invalidations {
		if collecting && inv.PrefetchedUnused {
			r.res.Overpredictions++
		}
		if inv.L1 {
			r.pf[inv.CPU].Invalidated(inv.Addr)
		}
	}
}

// collecting reports whether statistics should be recorded for the
// current record: past the global warm-up prefix and not inside a
// sampled functional-warming phase.
func (r *Runner) collecting() bool { return r.warm && !r.warming }

// issueStreams pulls up to StreamRate requests from the CPU's streaming
// engine and applies them to the memory system.
func (r *Runner) issueStreams(cpu int) {
	if r.pf == nil {
		return
	}
	for _, a := range r.pf[cpu].Drain(r.cfg.StreamRate) {
		r.stream(cpu, a)
	}
}

// stream applies one prefetch to the hierarchy at the engine's fill
// level: L1 engines (SMS, LS) stream into L1, the rest into L2. One pass
// over the outcome does the stream's accounting, its overprediction
// count and the generation trackers' evictions.
func (r *Runner) stream(cpu int, a mem.Addr) {
	collecting := r.collecting()
	if collecting {
		r.res.StreamRequests++
	}
	sres := &r.sres
	if !r.fillL1 {
		r.sys.L2StreamInto(sres, cpu, a)
		if collecting && !sres.AlreadyPresent {
			r.res.OffChipBlocks++
			if sres.L2Evicted && sres.L2Victim.Dirty {
				r.res.OffChipBlocks++
			}
		}
		return
	}
	r.sys.StreamInto(sres, cpu, a)
	if sres.AlreadyPresent {
		// Dropped request: nothing filled, evicted or transferred.
		return
	}
	if sres.L1Evicted {
		r.pf[cpu].StreamEvicted(sres.L1Victim.Addr)
		if r.trackGens {
			r.gensL1[cpu].remove(sres.L1Victim.Addr, collecting, r.res.DensityL1, &r.res.OracleGenerationsL1)
		}
	}
	if collecting && !sres.L2Hit {
		r.res.OffChipBlocks++
	}
	if sres.L2Evicted {
		ev := &sres.L2Victim
		if collecting {
			if ev.Dirty {
				r.res.OffChipBlocks++
			}
			if ev.PrefetchedUnused {
				r.res.Overpredictions++
			}
		}
		if r.trackGens {
			r.gensL2[cpu].remove(ev.Addr, collecting, r.res.DensityL2, &r.res.OracleGenerationsL2)
		}
	}
}

// trackGenerations updates the density/oracle trackers at both levels.
func (r *Runner) trackGenerations(cpu int, rec trace.Record, acc *coherence.AccessResult) {
	r.trackGenerationsWarm(cpu, rec, acc, r.collecting())
}

// trackGenerationsWarm is trackGenerations with the warm flag explicit:
// functional warming phases keep the tracker state coherent while
// passing warm=false so generations ended there add nothing to the
// histograms or oracle counts.
func (r *Runner) trackGenerationsWarm(cpu int, rec trace.Record, acc *coherence.AccessResult, warm bool) {
	g1 := r.gensL1[cpu]
	g1.access(rec.Addr, !acc.L1Hit, warm)
	for _, ev := range acc.L1Evictions {
		g1.remove(ev.Addr, warm, r.res.DensityL1, &r.res.OracleGenerationsL1)
	}
	g2 := r.gensL2[cpu]
	if !acc.L1Hit {
		g2.access(rec.Addr, acc.Missed(coherence.LevelL2), warm)
	}
	for _, ev := range acc.L2Evictions {
		g2.remove(ev.Addr, warm, r.res.DensityL2, &r.res.OracleGenerationsL2)
	}
	for _, inv := range acc.Invalidations {
		if inv.L1 {
			r.gensL1[inv.CPU].remove(inv.Addr, warm, r.res.DensityL1, &r.res.OracleGenerationsL1)
		}
		if inv.L2 {
			r.gensL2[inv.CPU].remove(inv.Addr, warm, r.res.DensityL2, &r.res.OracleGenerationsL2)
		}
	}
}

// finish flushes still-open generations and the trailing window.
func (r *Runner) finish() {
	if r.trackGens {
		for cpu := range r.gensL1 {
			r.gensL1[cpu].flush(r.res.DensityL1, &r.res.OracleGenerationsL1)
			r.gensL2[cpu].flush(r.res.DensityL2, &r.res.OracleGenerationsL2)
		}
	}
	r.flushWindow()
	r.collectPredictorStats()
}

// collectPredictorStats gathers per-CPU engine internals. The built-in
// predictors keep their typed Result fields; schemes added through the
// registry land in the generic PrefetcherStats slice.
func (r *Runner) collectPredictorStats() {
	for _, p := range r.pf {
		switch st := p.Stats().(type) {
		case core.Stats:
			r.res.SMSStats = append(r.res.SMSStats, st)
		case ghb.Stats:
			r.res.GHBStats = append(r.res.GHBStats, st)
		case sectored.Stats:
			r.res.LSStats = append(r.res.LSStats, st)
		default:
			// Nil stats are kept so the slice index stays the CPU
			// number.
			r.res.PrefetcherStats = append(r.res.PrefetcherStats, st)
		}
	}
}

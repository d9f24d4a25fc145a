// Package exp contains one runner per figure/table in the paper's
// evaluation (§4). Each runner declares the grid of simulations its
// figure needs as an engine.Plan — workloads × named configuration
// variants, plus the baseline linkage coverage is computed against — and
// renders the executed Grid into the same rows/series the paper reports,
// so `smsexp fig11` (for example) regenerates the paper's Figure 11 as a
// text table.
//
// The runners share a Session: a thin façade binding Options and an
// optional persistent store to an engine.Engine. The engine deduplicates
// runs across figures (many figures share the same baselines), bounds
// parallelism, memoizes results, and propagates cancellation into the
// simulation loop, so every figure is cancellable and progress-observable
// through engine events.
//
// Runners select prefetchers by registry name (sim.Config.PrefetcherName:
// "sms", "ls", "ghb", ...), so schemes registered via sim.Register — like
// the next-line series in the Fig. 8 runner — plug in without touching
// the simulator.
//
// A Session whose Options carry a sampling configuration runs every
// figure in SMARTS-sampled mode (engine.Sampled transforms each plan;
// sampled cells key separately from exact ones in the store). The
// "sampled" experiment is the mode's validation figure: it runs a small
// grid exact and sampled, checks the confidence intervals against the
// exact values, and reports the wall-clock speedup.
package exp

import (
	"context"
	"runtime"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// Options scope the simulation effort.
type Options struct {
	// CPUs is the simulated processor count.
	CPUs int
	// Seed selects the workload generation seed.
	Seed int64
	// Length is the number of accesses per workload trace (half is
	// warm-up, per the paper's methodology).
	Length uint64
	// Parallel bounds concurrent simulations (0 = GOMAXPROCS).
	Parallel int
	// Sampling, when enabled, runs every standard plan cell in
	// SMARTS-style sampled mode (engine.Sampled): detailed measurement
	// windows with confidence intervals instead of every-record
	// simulation. Timing cells (WindowInstructions) and custom cells
	// stay exact. The zero value keeps the exact mode.
	Sampling sim.SamplingConfig
}

// DefaultOptions runs full-length experiments.
func DefaultOptions() Options {
	return Options{CPUs: 4, Seed: 1, Length: 1_200_000}
}

// QuickOptions runs abbreviated experiments (benches, smoke tests).
func QuickOptions() Options {
	return Options{CPUs: 2, Seed: 1, Length: 200_000}
}

// CLIOptions resolves the standard CLI flag set shared by smsexp and
// smsd: -quick overrides -cpus/-length but keeps the seed and
// parallelism the caller asked for.
func CLIOptions(cpus int, seed int64, length uint64, parallel int, quick bool) Options {
	if quick {
		q := QuickOptions()
		q.Seed = seed
		q.Parallel = parallel
		return q
	}
	return Options{CPUs: cpus, Seed: seed, Length: length, Parallel: parallel}
}

// AttachStore opens the store at dir and attaches it to the session; an
// empty dir is a no-op. It is the one place the CLIs wire -store.
func AttachStore(s *Session, dir string) error {
	if dir == "" {
		return nil
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	s.SetStore(st)
	return nil
}

func (o Options) normalized() Options {
	if o.CPUs <= 0 {
		o.CPUs = 4
	}
	if o.Length == 0 {
		o.Length = DefaultOptions().Length
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	o.Sampling = o.Sampling.Canonical()
	return o
}

// MemorySystem returns the scaled memory system used by all experiments
// (see DESIGN.md: capacity ratios compressed from the paper's Table 1),
// with a configurable block size for the Fig. 4 sweep.
func (o Options) MemorySystem(blockSize int) coherence.Config {
	return coherence.Config{
		CPUs: o.CPUs,
		L1:   cache.Config{Size: 32 << 10, Assoc: 2, BlockSize: blockSize},
		L2:   cache.Config{Size: 1 << 20, Assoc: 8, BlockSize: blockSize},
	}
}

// BaselineConfig is the standard no-prefetcher configuration every
// figure normalizes against.
func (o Options) BaselineConfig() sim.Config {
	return sim.Config{Coherence: o.MemorySystem(64)}
}

// engineConfig derives the engine configuration the session binds.
func (o Options) engineConfig(st *store.Store) engine.Config {
	return engine.Config{
		Workload: workload.Config{CPUs: o.CPUs, Seed: o.Seed, Length: o.Length},
		Warmup:   o.Length / 2,
		Parallel: o.Parallel,
		Store:    st,
	}
}

// BaseVariant is the conventional key of the baseline variant in the
// figure plans.
const BaseVariant = "base"

// basePlan starts a figure plan over the full workload suite with the
// baseline variant declared and linked.
func basePlan(name string, o Options) engine.Plan {
	return engine.Plan{
		Name:      name,
		Workloads: WorkloadNames(),
		Baseline:  BaseVariant,
		Variants:  []engine.Variant{{Key: BaseVariant, Config: o.BaselineConfig()}},
	}
}

// Session binds Options and an optional persistent store to an
// engine.Engine. With a store attached (SetStore), results also persist
// across processes: any run whose full identity — workload, generation
// config, simulator config, prefetcher — matches a stored object is
// served from the store instead of being resimulated.
type Session struct {
	opts Options
	eng  *engine.Engine
}

// NewSession builds a session with the given options.
func NewSession(opts Options) *Session {
	opts = opts.normalized()
	return &Session{opts: opts, eng: engine.New(opts.engineConfig(nil))}
}

// Options returns the session's resolved options.
func (s *Session) Options() Options { return s.opts }

// Engine returns the session's execution engine.
func (s *Session) Engine() *engine.Engine { return s.eng }

// SetStore attaches a persistent result store by rebinding the engine.
// It must be called before the session runs anything.
func (s *Session) SetStore(st *store.Store) {
	s.eng = engine.New(s.opts.engineConfig(st))
}

// Store returns the attached store (nil when none).
func (s *Session) Store() *store.Store { return s.eng.Store() }

// Simulations returns how many actual simulations this session executed
// — cache and store hits excluded, custom cells (the Fig. 8
// decoupled-sectored study) included. It is the "did we really
// resimulate?" probe used by tests and the smsd metrics endpoint.
func (s *Session) Simulations() uint64 {
	return s.eng.Simulations() + s.eng.CustomRuns()
}

// RunKey returns the store address Session.Run uses for (name, cfg),
// including the session's warm-up convention. The smsd daemon keys its
// jobs and responses on this, so it cannot diverge from what the session
// actually persists.
func (s *Session) RunKey(name string, cfg sim.Config) string {
	return s.eng.Key(name, cfg)
}

// CachedRun reports a run already available without simulating — in the
// engine's memoization layer or one store read away. It is the cheap
// probe the smsd daemon uses before committing a worker to a job; a
// probe miss is not counted in the store stats.
func (s *Session) CachedRun(name string, cfg sim.Config) (*sim.Result, bool) {
	return s.eng.Cached(name, cfg)
}

// Run simulates workload name under cfg (warm-up set to half the trace),
// memoized by the engine. Cancellation and engine events flow through
// ctx.
func (s *Session) Run(ctx context.Context, name string, cfg sim.Config) (*sim.Result, error) {
	return s.eng.Run(ctx, name, cfg)
}

// Execute runs a declarative plan through the session's engine. When the
// session's options enable sampling, the plan is transformed with
// engine.Sampled first, so every figure transparently runs sampled under
// `smsexp -sample-window` without the figure runners knowing; runners
// that must mix exact and sampled cells in one grid (the sampled-vs-exact
// validation experiment) bypass the transform via s.Engine().Execute.
func (s *Session) Execute(ctx context.Context, plan engine.Plan) (*engine.Grid, error) {
	return s.eng.Execute(ctx, engine.Sampled(plan, s.opts.Sampling))
}

// GroupNames returns the four paper groups.
func GroupNames() []string { return workload.Groups() }

// WorkloadNames returns all eleven application names in paper order.
func WorkloadNames() []string {
	var out []string
	for _, w := range workload.All() {
		out = append(out, w.Name)
	}
	return out
}

// groupOf returns the paper group of a workload name.
func groupOf(name string) string {
	w, err := workload.ByName(name)
	if err != nil {
		return ""
	}
	return w.Group
}

// meanOver averages value over the members of each group, returning
// group→mean. Missing groups map to 0.
func meanOver(names []string, value func(name string) float64) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, n := range names {
		g := groupOf(n)
		sums[g] += value(n)
		counts[g]++
	}
	out := map[string]float64{}
	for g, s := range sums {
		out[g] = s / float64(counts[g])
	}
	return out
}

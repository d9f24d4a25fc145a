package exp

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// Runner regenerates one experiment (a figure or table of the paper) as
// rendered text. The smsexp CLI and the smsd daemon both dispatch through
// this registry. Cancellation and engine events flow through ctx: a
// cancelled context stops the experiment's simulations within one
// progress interval.
type Runner func(context.Context, *Session) (string, error)

type renderable interface{ Render() string }

// render adapts a figure runner to a Runner: run it, then render its
// result under a "render" span.
func render[R renderable](run func(context.Context, *Session) (R, error)) Runner {
	return func(ctx context.Context, s *Session) (string, error) {
		r, err := run(ctx, s)
		if err != nil {
			return "", err
		}
		sp := obs.TracerFrom(ctx).Start("render", "figure", "")
		defer sp.End()
		return r.Render(), nil
	}
}

// fig13View renders the Fig. 12 grid as Fig. 13's time breakdown.
type fig13View struct{ *Fig12Result }

func (v fig13View) Render() string { return v.RenderBreakdown() }

// experiment is one registered figure or table: the plan it executes
// (nil for table1, which runs no simulations) and its runner.
type experiment struct {
	name string
	plan func(Options) engine.Plan
	run  Runner
}

// registry lists every figure and table reproduced from the paper, in the
// paper's order. It is a function, not a variable, so a binary that runs
// one figure directly links only that figure.
func registry() []experiment {
	return []experiment{
		{"table1", nil, func(_ context.Context, s *Session) (string, error) { return Table1(s), nil }},
		{"fig4", Fig4Plan, render(Fig4)},
		{"fig5", Fig5Plan, render(Fig5)},
		{"fig6", Fig6Plan, render(Fig6)},
		{"fig7", Fig7Plan, render(Fig7)},
		{"fig8", Fig8Plan, render(Fig8)},
		{"fig9", Fig9Plan, render(Fig9)},
		{"fig10", Fig10Plan, render(Fig10)},
		{"agt", AGTSizingPlan, render(AGTSizing)},
		{"fig11", Fig11Plan, render(Fig11)},
		{"fig12", Fig12Plan, render(Fig12)},
		// Fig. 13 renders from the Fig. 12 grid.
		{"fig13", Fig12Plan, render(func(ctx context.Context, s *Session) (fig13View, error) {
			r, err := Fig12(ctx, s)
			return fig13View{r}, err
		})},
		{"ablate", AblatePlan, render(Ablate)},
		{"headline", HeadlinePlan, render(Headline)},
		{"sampled", SampledPlan, render(Sampled)},
	}
}

// Experiments returns the experiment registry: name → runner for every
// figure and table reproduced from the paper.
func Experiments() map[string]Runner {
	reg := registry()
	m := make(map[string]Runner, len(reg))
	for _, e := range reg {
		m[e.name] = e.run
	}
	return m
}

// ExperimentNames returns the registry's names in the paper's order.
func ExperimentNames() []string {
	reg := registry()
	names := make([]string, len(reg))
	for i, e := range reg {
		names[i] = e.name
	}
	return names
}

// PlanFor returns the engine plan a registered experiment executes under
// the given options. The second return is false for experiments that run
// no simulations (table1) and unknown names.
func PlanFor(name string, o Options) (engine.Plan, bool) {
	for _, e := range registry() {
		if e.name == name && e.plan != nil {
			return e.plan(o.normalized()), true
		}
	}
	return engine.Plan{}, false
}

// MergedPlan builds one deduplicated grid covering several experiments —
// the prewarm form smsexp executes before rendering a multi-figure
// request, so every unique run across the figures simulates exactly once
// with full cross-figure parallelism. Custom cells are dropped: they are
// not run-memoized, so prewarming them would double their work instead
// of saving any. Unknown or simulation-free names are skipped; the bool
// reports whether anything remained.
func MergedPlan(name string, o Options, experiments ...string) (engine.Plan, bool) {
	var plans []engine.Plan
	seen := make(map[string]bool, len(experiments))
	for _, exp := range experiments {
		p, ok := PlanFor(exp, o)
		if !ok || seen[p.Name] {
			// Duplicate requests and aliases sharing one plan (fig13
			// renders from the fig12 grid) contribute the grid once;
			// merging them again would collide on the namespaced keys.
			continue
		}
		seen[p.Name] = true
		p.Customs = nil
		plans = append(plans, p)
	}
	if len(plans) == 0 {
		return engine.Plan{}, false
	}
	return engine.Merge(name, plans...), true
}

// Figure runs the named experiment through the figure-level store cache.
// Unknown names report the known set.
func (s *Session) Figure(ctx context.Context, name string) (string, error) {
	run, ok := Experiments()[name]
	if !ok {
		return "", fmt.Errorf("exp: unknown experiment %q (have: %v)", name, ExperimentNames())
	}
	return s.RunFigure(ctx, name, run)
}

// CachedFigure reports the named figure if it is already persisted in
// the store, computing nothing. It is the cheap fast path the smsd
// daemon probes before committing a worker to a figure request; a probe
// miss is not counted in the store stats (RunFigure's own lookup will
// count the logical miss exactly once).
func (s *Session) CachedFigure(name string) (string, bool) {
	if s.Store() == nil {
		return "", false
	}
	return s.Store().ProbeFigure(store.ForFigure(name, s.opts.CPUs, s.opts.Seed, s.opts.Length, s.opts.Sampling))
}

// RunFigure executes run under the figure-level store cache: with a store
// attached, a rendered figure is keyed by (experiment name, session
// options) and a hit skips every simulation behind it — including ones,
// like the Fig. 8 decoupled-sectored study, that bypass the run store.
func (s *Session) RunFigure(ctx context.Context, name string, run Runner) (string, error) {
	if s.Store() == nil {
		return run(ctx, s)
	}
	tr := obs.TracerFrom(ctx)
	key := store.ForFigure(name, s.opts.CPUs, s.opts.Seed, s.opts.Length, s.opts.Sampling)
	sp := tr.Start("store-get", "figure", "")
	text, ok := s.Store().GetFigure(key)
	sp.End()
	if ok {
		return text, nil
	}
	text, err := run(ctx, s)
	if err != nil {
		return "", err
	}
	// The store is a cache: a failed write must not lose the figure.
	sp = tr.Start("store-put", "figure", "")
	_ = s.Store().PutFigure(key, text)
	sp.End()
	return text, nil
}

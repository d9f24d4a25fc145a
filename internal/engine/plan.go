package engine

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Plan is a declarative grid of simulations: the cross product of
// Workloads × Variants, plus optional Custom cells computed outside the
// standard runner. It is the unit of work the Engine executes — figures
// declare Plans instead of hand-rolling run loops, and the smsd daemon
// turns HTTP jobs into Plans.
//
// Two cells whose configurations canonicalize identically compile to a
// single run: the compiled form is deduplicated, so a plan (or a merge of
// plans) that mentions the same (workload, config) many times — shared
// baselines, a sweep point that coincides with the default — simulates it
// exactly once.
type Plan struct {
	// Name labels the plan in events and job listings.
	Name string
	// Workloads are the registered workload names forming the first axis.
	Workloads []string
	// Variants are the named simulator configurations forming the second
	// axis. Every variant runs on every workload.
	Variants []Variant
	// Baseline optionally names the variant whose runs are the
	// normalization baseline (Grid.Baseline). It must name a declared
	// variant.
	Baseline string
	// Customs are extra grid cells computed by arbitrary functions (e.g.
	// the Fig. 8 decoupled-sectored study, which replaces the cache
	// hierarchy entirely). They share the engine's worker pool, trace
	// cache and cancellation, but not the run store: memoization of
	// custom cells is the caller's business.
	Customs []Custom
	// Extra are explicit cells beyond the Workloads × Variants cross
	// product — the form Merge emits so a combined grid keeps each
	// source plan's exact workload scope instead of inflating to the
	// union. Extra cells deduplicate against cross-product cells runwise.
	Extra []Cell
}

// Cell is one explicit (workload, key, config) grid cell.
type Cell struct {
	Workload string
	Key      string
	// Config is the simulator configuration. WarmupAccesses is
	// overwritten by the engine's warm-up convention.
	Config sim.Config
}

// Variant is one named point on a plan's configuration axis.
type Variant struct {
	// Key identifies the variant within the plan (Grid.Result's second
	// coordinate). Keys must be unique within a plan.
	Key string
	// Config is the simulator configuration. WarmupAccesses is
	// overwritten by the engine's warm-up convention.
	Config sim.Config
}

// Custom is one grid cell computed by a caller-supplied function instead
// of the standard runner.
type Custom struct {
	// Workload and Key are the cell's grid coordinates (Grid.Custom).
	Workload string
	Key      string
	// Run computes the cell over src, the trace the engine resolves for
	// Workload exactly as it does for a standard run: memo, then the
	// store's trace tier, then the generator. The engine closes src after
	// Run returns. Run must honor ctx: return promptly with ctx.Err()
	// once cancelled.
	Run func(ctx context.Context, src trace.Source) (any, error)
}

// WithVariant appends a variant built from key and cfg; it returns the
// plan for chaining in builder-style construction.
func (p Plan) WithVariant(key string, cfg sim.Config) Plan {
	p.Variants = append(p.Variants, Variant{Key: key, Config: cfg})
	return p
}

// Validate checks the plan's internal consistency: at least one cell,
// unique variant keys, unique custom/extra coordinates, and a Baseline
// that names a declared variant.
func (p Plan) Validate() error {
	if len(p.Workloads) == 0 && len(p.Customs) == 0 && len(p.Extra) == 0 {
		return fmt.Errorf("engine: plan %q declares no cells", p.Name)
	}
	if len(p.Workloads) > 0 && len(p.Variants) == 0 && len(p.Customs) == 0 && len(p.Extra) == 0 {
		return fmt.Errorf("engine: plan %q has workloads but no variants", p.Name)
	}
	seen := make(map[string]bool, len(p.Variants))
	for _, v := range p.Variants {
		if v.Key == "" {
			return fmt.Errorf("engine: plan %q has a variant with an empty key", p.Name)
		}
		if seen[v.Key] {
			return fmt.Errorf("engine: plan %q declares variant %q twice", p.Name, v.Key)
		}
		seen[v.Key] = true
	}
	if p.Baseline != "" && !seen[p.Baseline] {
		return fmt.Errorf("engine: plan %q baseline %q is not a declared variant", p.Name, p.Baseline)
	}
	extras := make(map[cellRef]bool, len(p.Extra))
	for _, c := range p.Extra {
		if c.Key == "" || c.Workload == "" {
			return fmt.Errorf("engine: plan %q has an extra cell with empty coordinates", p.Name)
		}
		ref := cellRef{c.Workload, c.Key}
		if extras[ref] || seen[c.Key] {
			return fmt.Errorf("engine: plan %q extra cell %s/%s collides with another cell", p.Name, c.Workload, c.Key)
		}
		extras[ref] = true
	}
	customs := make(map[cellRef]bool, len(p.Customs))
	for _, c := range p.Customs {
		if c.Key == "" || c.Workload == "" {
			return fmt.Errorf("engine: plan %q has a custom cell with empty coordinates", p.Name)
		}
		if c.Run == nil {
			return fmt.Errorf("engine: plan %q custom %s/%s has no Run function", p.Name, c.Workload, c.Key)
		}
		ref := cellRef{c.Workload, c.Key}
		if customs[ref] || seen[c.Key] || extras[ref] {
			return fmt.Errorf("engine: plan %q custom %s/%s collides with another cell", p.Name, c.Workload, c.Key)
		}
		customs[ref] = true
	}
	return nil
}

// Merge combines several plans into one grid under a new name, for
// executing multiple figures as a single job. Cell keys are namespaced as
// "<plan>/<key>" so plans cannot collide, and every source cell becomes
// an Extra cell, preserving each plan's exact workload scope (a plan
// over two workloads does not inflate to the union). Deduplication
// happens below the key level — cells whose configurations canonicalize
// identically (shared baselines, overlapping sweep points) still compile
// to a single run. The merged plan has no Baseline (each figure keeps
// its own notion).
func Merge(name string, plans ...Plan) Plan {
	out := Plan{Name: name}
	for _, p := range plans {
		for _, w := range p.Workloads {
			for _, v := range p.Variants {
				out.Extra = append(out.Extra, Cell{Workload: w, Key: p.Name + "/" + v.Key, Config: v.Config})
			}
		}
		for _, c := range p.Extra {
			out.Extra = append(out.Extra, Cell{Workload: c.Workload, Key: p.Name + "/" + c.Key, Config: c.Config})
		}
		for _, c := range p.Customs {
			out.Customs = append(out.Customs, Custom{Workload: c.Workload, Key: p.Name + "/" + c.Key, Run: c.Run})
		}
	}
	return out
}

// cellRef addresses one grid cell.
type cellRef struct{ workload, key string }

// node is one deduplicated run: a unique (workload, canonical config)
// pair, possibly serving many cells.
type node struct {
	workload string
	cfg      sim.Config // resolved: warm-up applied
	key      string     // store address; also the dedup key
	cells    []cellRef

	started bool // a simulation actually began (vs cached/skipped)
	cached  bool
	res     *sim.Result
	err     error
}

// compiled is the executable form of a plan.
type compiled struct {
	nodes []*node
	cells map[cellRef]*node
}

// compile resolves every cell to its canonical run and deduplicates runs
// by store address.
func (e *Engine) compile(p Plan) (*compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &compiled{cells: make(map[cellRef]*node, len(p.Workloads)*len(p.Variants)+len(p.Extra))}
	byKey := make(map[string]*node)
	add := func(workload, cellKey string, cfg sim.Config) {
		cfg = e.resolve(cfg)
		key := e.Key(workload, cfg)
		n, ok := byKey[key]
		if !ok {
			n = &node{workload: workload, cfg: cfg, key: key}
			byKey[key] = n
			c.nodes = append(c.nodes, n)
		}
		ref := cellRef{workload, cellKey}
		n.cells = append(n.cells, ref)
		c.cells[ref] = n
	}
	for _, w := range p.Workloads {
		for _, v := range p.Variants {
			add(w, v.Key, v.Config)
		}
	}
	for _, cell := range p.Extra {
		add(cell.Workload, cell.Key, cell.Config)
	}
	return c, nil
}

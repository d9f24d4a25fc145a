package sim

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/ghb"
	"repro/internal/mem"
	"repro/internal/sectored"
	"repro/internal/stride"
	"repro/internal/trace"
)

// Prefetcher is one CPU's prefetch engine, attached between the trace
// driver and the coherent hierarchy. Implementations live next to their
// predictors (internal/core, internal/ghb, ...) and satisfy the interface
// structurally, so predictor packages never import sim.
//
// Per demand access the runner calls Train, then Drain; the runner applies
// every returned address to the memory system at the engine's FillLevel
// (L1 engines stream into both levels, L2 engines fill only L2).
//
// Address slices returned by Train and Drain may alias a buffer owned by
// the engine, valid until its next Train/Drain call: the runner consumes
// them immediately, so engines reuse one buffer instead of allocating per
// access (the built-ins all do).
type Prefetcher interface {
	// Train observes one demand access by this CPU together with its
	// outcome in the hierarchy (hits/misses per level, evictions,
	// invalidations). Returned addresses are prefetches issued
	// immediately, bypassing the StreamRate budget — the channel used by
	// miss-triggered L2 prefetchers (GHB, stride) whose bursts the paper
	// does not rate-limit.
	Train(rec trace.Record, acc *coherence.AccessResult) []mem.Addr
	// Drain returns up to max pending stream requests. The runner calls
	// it once per demand access with the configured StreamRate, modeling
	// finite stream bandwidth.
	Drain(max int) []mem.Addr
	// FillLevel is the cache level prefetches fill: LevelL1 engines
	// stream blocks into L1 (and L2 en route), LevelL2 engines into L2
	// only.
	FillLevel() coherence.Level
	// StreamEvicted reports that one of this engine's own stream fills
	// displaced a previously resident block from its fill level.
	StreamEvicted(addr mem.Addr)
	// Invalidated reports that a remote write invalidated addr in this
	// CPU's L1 — the event that ends a spatial region generation (§2.1).
	Invalidated(addr mem.Addr)
	// Stats returns the engine's internal counters (predictor-specific;
	// may be nil). The runner gathers them into Result.
	Stats() any
}

// Constructor builds one per-CPU prefetch engine from the run's canonical
// Config (see Config.Canonical: defaults applied, Geometry, Coherence and
// the sub-configs resolved). The runner calls it once per simulated CPU.
// A constructor may return (nil, nil) to attach no engine at all — the
// baseline system.
type Constructor func(cfg Config) (Prefetcher, error)

var registry = struct {
	sync.RWMutex
	ctors map[string]Constructor
}{ctors: make(map[string]Constructor)}

// Register makes a prefetcher scheme available under name (as used by
// Config.PrefetcherName and the CLIs). It is intended to be
// called from package init; it panics on an empty name or a duplicate
// registration, which is always a programming error.
func Register(name string, ctor Constructor) {
	if name == "" {
		panic("sim: Register with empty prefetcher name")
	}
	if ctor == nil {
		panic(fmt.Sprintf("sim: Register(%q) with nil constructor", name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.ctors[name]; dup {
		panic(fmt.Sprintf("sim: prefetcher %q registered twice", name))
	}
	registry.ctors[name] = ctor
}

// Names returns the registered scheme names in sorted order.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.ctors))
	for name := range registry.ctors {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookup resolves a registered constructor.
func lookup(name string) (Constructor, error) {
	registry.RLock()
	ctor, ok := registry.ctors[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sim: unknown prefetcher %q (registered: %v)", name, Names())
	}
	return ctor, nil
}

// builtins are the schemes this package registers. Each builds from its
// own sub-config exactly as Config.Canonical resolved it, and own copies
// that sub-config, the only one its run's key keeps.
var builtins = map[string]struct {
	ctor Constructor
	own  func(dst *Config, src Config)
}{
	"none": {
		ctor: func(Config) (Prefetcher, error) { return nil, nil },
		own:  func(*Config, Config) {},
	},
	"sms": {
		ctor: func(cfg Config) (Prefetcher, error) { return engine(core.NewSimPrefetcher(cfg.SMS)) },
		own:  func(dst *Config, src Config) { dst.SMS = src.SMS },
	},
	"ls": {
		ctor: func(cfg Config) (Prefetcher, error) { return engine(sectored.NewSimPrefetcher(cfg.LS)) },
		own:  func(dst *Config, src Config) { dst.LS = src.LS },
	},
	"ghb": {
		ctor: func(cfg Config) (Prefetcher, error) { return engine(ghb.NewSimPrefetcher(cfg.GHB)) },
		own:  func(dst *Config, src Config) { dst.GHB = src.GHB },
	},
	"stride": {
		ctor: func(cfg Config) (Prefetcher, error) { return engine(stride.NewSimPrefetcher(cfg.Stride)) },
		own:  func(dst *Config, src Config) { dst.Stride = src.Stride },
	},
}

// engine hands a built-in adapter to the runner as a Prefetcher, keeping
// a failed build's typed nil out of the interface.
func engine[P Prefetcher](p P, err error) (Prefetcher, error) {
	if err != nil {
		return nil, err
	}
	return p, nil
}

func init() {
	for name, b := range builtins {
		Register(name, b.ctor)
	}
}

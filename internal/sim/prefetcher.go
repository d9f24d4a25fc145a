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

// Constructor builds one per-CPU prefetch engine from a fully resolved
// Config (defaults applied, Geometry and Coherence populated). The runner
// calls it once per simulated CPU. A constructor may return (nil, nil) to
// attach no engine at all — the baseline system.
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

// Built-in schemes. Each constructor resolves the per-scheme config from
// the run's Config exactly as the pre-registry switch in NewRunner did.
func init() {
	Register("none", func(Config) (Prefetcher, error) { return nil, nil })
	Register("sms", func(cfg Config) (Prefetcher, error) {
		smsCfg := cfg.SMS
		smsCfg.Geometry = cfg.Geometry
		p, err := core.NewSimPrefetcher(smsCfg)
		if err != nil {
			return nil, err
		}
		return p, nil
	})
	Register("ls", func(cfg Config) (Prefetcher, error) {
		lsCfg := cfg.LS
		lsCfg.Geometry = cfg.Geometry
		if lsCfg.CacheSize == 0 {
			lsCfg.CacheSize = cfg.Coherence.L1.Size
		}
		p, err := sectored.NewSimPrefetcher(lsCfg)
		if err != nil {
			return nil, err
		}
		return p, nil
	})
	Register("ghb", func(cfg Config) (Prefetcher, error) {
		gcfg := cfg.GHB
		gcfg.BlockSize = cfg.Coherence.L1.BlockSize
		p, err := ghb.NewSimPrefetcher(gcfg)
		if err != nil {
			return nil, err
		}
		return p, nil
	})
	Register("stride", func(cfg Config) (Prefetcher, error) {
		scfg := cfg.Stride
		scfg.BlockSize = cfg.Coherence.L1.BlockSize
		p, err := stride.NewSimPrefetcher(scfg)
		if err != nil {
			return nil, err
		}
		return p, nil
	})
}

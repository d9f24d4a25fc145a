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

// SubConfigs is a set of the built-in predictors' sub-configs
// (Config.SMS, LS, GHB and Stride) that a scheme's constructor reads.
// Config.Canonical zeroes every other one, so a run's store key and the
// tables it is charged for up front cover only what its scheme builds.
type SubConfigs uint8

const (
	// ReadsSMS marks a constructor that reads Config.SMS.
	ReadsSMS SubConfigs = 1 << iota
	// ReadsLS marks a constructor that reads Config.LS.
	ReadsLS
	// ReadsGHB marks a constructor that reads Config.GHB.
	ReadsGHB
	// ReadsStride marks a constructor that reads Config.Stride.
	ReadsStride
	// ReadsAll is every sub-config: what Register assumes.
	ReadsAll = ReadsSMS | ReadsLS | ReadsGHB | ReadsStride
)

// scheme is one registration.
type scheme struct {
	ctor  Constructor
	reads SubConfigs
}

var registry = struct {
	sync.RWMutex
	schemes map[string]scheme
}{schemes: make(map[string]scheme)}

// Register makes a prefetcher scheme available under name (as used by
// Config.PrefetcherName and the CLIs), with a constructor that may read
// every sub-config. It is intended to be called from package init; it
// panics on an empty name or a duplicate registration, which is always a
// programming error.
func Register(name string, ctor Constructor) { RegisterReading(name, ReadsAll, ctor) }

// RegisterReading is Register for a constructor that reads only the
// sub-configs in reads: a run of the scheme keeps no other, so it is not
// keyed on settings it never uses.
func RegisterReading(name string, reads SubConfigs, ctor Constructor) {
	if name == "" {
		panic("sim: Register with empty prefetcher name")
	}
	if ctor == nil {
		panic(fmt.Sprintf("sim: Register(%q) with nil constructor", name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.schemes[name]; dup {
		panic(fmt.Sprintf("sim: prefetcher %q registered twice", name))
	}
	registry.schemes[name] = scheme{ctor, reads}
}

// Names returns the registered scheme names in sorted order.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.schemes))
	for name := range registry.schemes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookup resolves a registered scheme.
func lookup(name string) (scheme, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.schemes[name]
	return s, ok
}

// engine hands a built-in adapter to the runner as a Prefetcher, keeping
// a failed build's typed nil out of the interface.
func engine[P Prefetcher](p P, err error) (Prefetcher, error) {
	if err != nil {
		return nil, err
	}
	return p, nil
}

// The built-in schemes each build from their own sub-config exactly as
// Config.Canonical resolved it.
func init() {
	RegisterReading("none", 0, func(Config) (Prefetcher, error) { return nil, nil })
	RegisterReading("sms", ReadsSMS, func(cfg Config) (Prefetcher, error) { return engine(core.NewSimPrefetcher(cfg.SMS)) })
	RegisterReading("ls", ReadsLS, func(cfg Config) (Prefetcher, error) { return engine(sectored.NewSimPrefetcher(cfg.LS)) })
	RegisterReading("ghb", ReadsGHB, func(cfg Config) (Prefetcher, error) { return engine(ghb.NewSimPrefetcher(cfg.GHB)) })
	RegisterReading("stride", ReadsStride, func(cfg Config) (Prefetcher, error) { return engine(stride.NewSimPrefetcher(cfg.Stride)) })
}

// Package cache implements the set-associative cache model used for every
// level of the simulated hierarchy. The model is functional (hit/miss and
// content tracking, no timing): timing is layered on by package timing, and
// coherence by package coherence.
//
// The block size is configurable because the paper's Figure 4 sweeps block
// sizes from 64 B to 8 kB while holding capacity fixed. Lines carry a
// prefetched/used pair of flags so the simulator can account coverage
// (prefetched lines that are hit before leaving the cache) and
// overpredictions (prefetched lines evicted or invalidated unused).
//
// Lines are stored struct-of-arrays: a packed tag word per way (tag+1,
// with 0 meaning invalid) and one packed metadata word per way holding
// the LRU stamp in the high bits and the line flags in the low byte. The
// hit scan — the single hottest loop in the simulator — therefore walks
// eight bytes per way, and a fill writes exactly two words. Because the
// stamp is taken from a counter pre-incremented on every install, a live
// way's metadata is never zero, and comparing whole metadata words orders
// ways by recency (stamps dominate the flag byte).
//
// Every operation scans a set's tags for the hit first, and only a miss
// picks a victim: the way with the smallest metadata word. An invalid
// way's word is 0 and live stamps are unique, so that is the first
// invalid way, else the least recently used one, with no separate
// bookkeeping of invalid ways.
//
// Every operation that reports a Result (AccessInto, FillInto,
// FillAtWayInto) writes the outcome into a Result the caller owns: the
// Result is overwritten on every call, so the caller reads it before the
// next call that reuses it. The coherence layer keeps one scratch Result
// per cache level and so moves no Result through its call chain.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// Config describes one cache.
type Config struct {
	// Size is the total capacity in bytes.
	Size int
	// Assoc is the set associativity.
	Assoc int
	// BlockSize is the line size in bytes (a power of two).
	BlockSize int
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.BlockSize <= 0 || c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("cache: block size %d not a positive power of two", c.BlockSize)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: associativity %d not positive", c.Assoc)
	}
	if c.Size <= 0 || c.Size%(c.BlockSize*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d not a multiple of assoc*block (%d)", c.Size, c.BlockSize*c.Assoc)
	}
	sets := c.Size / (c.BlockSize * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.Size / (c.BlockSize * c.Assoc) }

// Per-line flag bits (parallel to the tag array).
const (
	fDirty      uint8 = 1 << iota // modified data
	fPrefetched                   // brought in by a stream request
	fUsed                         // demand-hit at least once since fill
	fOffChip                      // prefetch fill was sourced from off-chip
)

// Cache is a set-associative, LRU-replacement cache.
type Cache struct {
	cfg       Config
	blockBits uint
	setBits   uint // log2(set count), precomputed for index/addrOf
	setMask   uint64
	assoc     int

	// Way state, indexed by set*assoc+way. tags holds tag+1 (0 =
	// invalid), so the hit scan needs no separate valid flag; meta holds
	// clock<<8 | flags (0 = invalid way).
	tags []uint64
	meta []uint64

	clock uint64
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	n := nsets * cfg.Assoc
	return &Cache{
		cfg:       cfg,
		blockBits: uint(bits.TrailingZeros64(uint64(cfg.BlockSize))),
		setBits:   uint(bits.TrailingZeros64(uint64(nsets))),
		setMask:   uint64(nsets - 1),
		assoc:     cfg.Assoc,
		tags:      make([]uint64, n),
		meta:      make([]uint64, n),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// BlockAddr truncates an address to this cache's block base.
func (c *Cache) BlockAddr(a mem.Addr) mem.Addr {
	return a &^ (mem.Addr(c.cfg.BlockSize) - 1)
}

func (c *Cache) index(a mem.Addr) (set uint64, tag uint64) {
	bn := uint64(a) >> c.blockBits
	return bn & c.setMask, bn >> c.setBits
}

// Eviction describes a line displaced by a fill or removed by an
// invalidation.
type Eviction struct {
	// Addr is the base address of the displaced block.
	Addr mem.Addr
	// Dirty reports whether the block held modified data.
	Dirty bool
	// PrefetchedUnused reports whether the block was streamed in and
	// never demand-hit: an overprediction (§4.2's bandwidth-wasting
	// category).
	PrefetchedUnused bool
}

// Result describes the outcome of an access or fill.
type Result struct {
	// Hit reports whether the block was present.
	Hit bool
	// PrefetchHit reports whether this is the first demand hit on a
	// streamed block — the event that converts a would-be miss into
	// prefetcher coverage.
	PrefetchHit bool
	// PrefetchOffChip refines PrefetchHit: the stream fill that brought
	// the block in was sourced from off-chip memory, so the covered
	// would-be miss was an off-chip miss.
	PrefetchOffChip bool
	// Evicted is valid when a fill displaced a victim line.
	Evicted bool
	// Victim is the displaced line when Evicted.
	Victim Eviction
}

// AccessInto performs a demand access (read or write) and writes its
// outcome into res (see the package comment's Into contract). On a miss
// the block is filled, possibly displacing a victim (see victim).
func (c *Cache) AccessInto(res *Result, a mem.Addr, write bool) {
	set, tag := c.index(a)
	c.clock++
	base := int(set) * c.assoc
	if j := c.find(base, tag+1); j >= 0 {
		c.accessHit(res, j, write)
		return
	}
	var newFlags uint8
	if write {
		newFlags = fDirty
	}
	c.fillAt(res, c.victim(base), set, tag+1, newFlags)
}

// find returns the slot of the way of the set at base holding packed tag
// k, or -1 on a miss.
func (c *Cache) find(base int, k uint64) int {
	for i, t := range c.tags[base : base+c.assoc] {
		if t == k {
			return base + i
		}
	}
	return -1
}

// victim returns the slot a fill of the set at base uses: the way with
// the smallest metadata word (see the package comment).
func (c *Cache) victim(base int) int {
	v, least := base, c.meta[base]
	for j := base + 1; j < base+c.assoc; j++ {
		if m := c.meta[j]; m < least {
			v, least = j, m
		}
	}
	return v
}

// accessHit applies a demand hit to way slot j: first-use prefetch
// accounting, used/dirty flags, LRU touch.
func (c *Cache) accessHit(res *Result, j int, write bool) {
	f := uint8(c.meta[j])
	first := f&(fPrefetched|fUsed) == fPrefetched
	*res = Result{Hit: true, PrefetchHit: first, PrefetchOffChip: first && f&fOffChip != 0}
	f |= fUsed
	if write {
		f |= fDirty
	}
	c.meta[j] = c.clock<<8 | uint64(f)
}

// Probe reports whether the block is present without updating LRU or flags.
func (c *Cache) Probe(a mem.Addr) bool {
	set, tag := c.index(a)
	return c.find(int(set)*c.assoc, tag+1) >= 0
}

// ProbeVictim is Probe that also reports the way a subsequent fill of a
// would use (see victim), so a stream fill whose parameters depend on
// intermediate work (the L2 outcome) needs only one scan of each array.
// Like Probe it leaves LRU state and the clock untouched; pass the way
// to FillAtWayInto only if no other operation touched this cache in
// between.
func (c *Cache) ProbeVictim(a mem.Addr) (hit bool, way int) {
	set, tag := c.index(a)
	base := int(set) * c.assoc
	if c.find(base, tag+1) >= 0 {
		return true, 0
	}
	return false, c.victim(base) - base
}

// FillAtWayInto installs a as a stream fill into the way chosen by a
// preceding ProbeVictim, completing the split fill without rescanning,
// and writes its outcome into res.
func (c *Cache) FillAtWayInto(res *Result, a mem.Addr, way int, offChip bool) {
	set, tag := c.index(a)
	c.clock++
	c.fillAt(res, int(set)*c.assoc+way, set, tag+1, streamFlags(offChip))
}

// FillInto inserts a block as a stream/prefetch fill and writes its
// outcome into res; offChip records whether the fill data came from
// off-chip memory (used for off-chip coverage accounting). If the block
// is already present the call is a no-op (res.Hit) and the line keeps
// its flags — callers can therefore use the Hit outcome instead of a
// separate Probe, saving a set scan.
func (c *Cache) FillInto(res *Result, a mem.Addr, offChip bool) {
	set, tag := c.index(a)
	c.clock++
	base := int(set) * c.assoc
	if c.find(base, tag+1) >= 0 {
		*res = Result{Hit: true}
		return
	}
	c.fillAt(res, c.victim(base), set, tag+1, streamFlags(offChip))
}

// streamFlags returns a stream fill's line flags.
func streamFlags(offChip bool) uint8 {
	if offChip {
		return fPrefetched | fOffChip
	}
	return fPrefetched
}

// fillAt installs packed tag k into way slot j (= set*assoc+way),
// reporting the displaced line in res if it was valid. Callers pick the
// slot with victim after their hit scan missed.
func (c *Cache) fillAt(res *Result, j int, set, k uint64, newFlags uint8) {
	if old := c.tags[j]; old != 0 {
		f := uint8(c.meta[j])
		*res = Result{Evicted: true, Victim: Eviction{
			Addr:             c.addrOf(set, old-1),
			Dirty:            f&fDirty != 0,
			PrefetchedUnused: f&(fPrefetched|fUsed) == fPrefetched,
		}}
	} else {
		*res = Result{}
	}
	c.tags[j] = k
	c.meta[j] = c.clock<<8 | uint64(newFlags)
}

func (c *Cache) addrOf(set, tag uint64) mem.Addr {
	return mem.Addr((tag<<c.setBits | set) << c.blockBits)
}

// MarkUsed marks the block containing a as demand-used if present. The
// coherent hierarchy uses it to propagate first-use information to lower
// levels: when a streamed block is used from L1, the L2 copy of the same
// stream fill must not later be scored as an overprediction.
func (c *Cache) MarkUsed(a mem.Addr) {
	set, tag := c.index(a)
	if j := c.find(int(set)*c.assoc, tag+1); j >= 0 {
		c.meta[j] |= uint64(fUsed)
	}
}

// InvalidateResult describes the outcome of an invalidation.
type InvalidateResult struct {
	// Present reports whether the block was in the cache.
	Present bool
	// WasDirty reports whether the invalidated copy was modified.
	WasDirty bool
	// PrefetchedUnused reports whether a streamed, never-used block was
	// destroyed (an overprediction).
	PrefetchedUnused bool
}

// Invalidate removes the block containing a, if present.
func (c *Cache) Invalidate(a mem.Addr) InvalidateResult {
	set, tag := c.index(a)
	j := c.find(int(set)*c.assoc, tag+1)
	if j < 0 {
		return InvalidateResult{}
	}
	f := uint8(c.meta[j])
	c.tags[j] = 0
	c.meta[j] = 0
	return InvalidateResult{
		Present:          true,
		WasDirty:         f&fDirty != 0,
		PrefetchedUnused: f&(fPrefetched|fUsed) == fPrefetched,
	}
}

// Flush empties the cache, returning the number of lines dropped.
func (c *Cache) Flush() int {
	n := 0
	for j := range c.tags {
		if c.tags[j] != 0 {
			n++
			c.tags[j] = 0
			c.meta[j] = 0
		}
	}
	return n
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// Package coherence models the multiprocessor memory system the paper
// evaluates on: per-CPU two-level private cache hierarchies kept coherent
// by an invalidation-based (MSI-style) directory over fixed-size coherence
// units.
//
// Two coherence behaviours matter to Spatial Memory Streaming and are
// modelled faithfully:
//
//  1. A write by one CPU invalidates every other CPU's copy. Invalidations
//     terminate spatial region generations (§2.1) and destroy streamed
//     blocks (counting as overpredictions).
//  2. With coherence units larger than 64 B, a reader can miss on a block
//     another CPU wrote even though the two CPUs touched disjoint 64-byte
//     sub-units — false sharing, the component Figure 4 separates out at
//     L2 for block sizes beyond 64 B.
//
// The false-sharing classifier tracks, per coherence unit, which 64-byte
// sub-units have been written since each invalidated CPU lost its copy; a
// coherence miss whose accessed sub-unit was never written in the interim
// is false sharing. A 64 B unit is one sub-unit, which the invalidating
// write always wrote, so it keeps no such record. The directory holds
// each unit's sharer and invalidation masks at the run's CPU width (see
// dirTable).
//
// Two invariants let the hot paths skip the directory: a block resident
// in a CPU's L1, and likewise one resident in its L2, has the CPU's
// sharer bit set and its invalidated bit clear. They hold because an
// invalidation destroys both of a CPU's copies when it sets the CPU's
// invalidated bit, and every fill from beyond the CPU's L2 (a demand
// miss, a stream that misses L2, an L2 stream) sets the sharer bit and
// clears the invalidated bit; a fill from the CPU's own L2 copies a
// block that satisfies them already. A read that hits L1 therefore
// needs no directory work (AccessInto), and neither does a stream fill
// that hits L2 (StreamInto): the classification and bookkeeping would
// be no-ops.
package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/mem"
)

// subUnit is the granularity at which true vs. false sharing is
// distinguished: the paper's baseline 64 B coherence unit.
const subUnit = 64

// Config describes the coherent memory system.
type Config struct {
	// CPUs is the number of processors (paper: 16).
	CPUs int
	// L1 and L2 describe each CPU's private caches. Their BlockSize
	// fields must match and set the coherence unit.
	L1, L2 cache.Config
}

// DefaultConfig returns the scaled-down version of the paper's Table 1
// memory system used throughout the reproduction: the capacity ratios
// (L1:L2 = 1:128 in the paper) are compressed so that the synthetic
// workloads' working sets produce the same qualitative hit/miss structure
// at tractable trace lengths.
func DefaultConfig() Config {
	return Config{
		CPUs: 4,
		L1:   cache.Config{Size: 32 << 10, Assoc: 2, BlockSize: 64},
		L2:   cache.Config{Size: 1 << 20, Assoc: 8, BlockSize: 64},
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.CPUs <= 0 || c.CPUs > 64 {
		return fmt.Errorf("coherence: CPUs %d out of range [1,64]", c.CPUs)
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("coherence: L1: %w", err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("coherence: L2: %w", err)
	}
	if c.L1.BlockSize != c.L2.BlockSize {
		return fmt.Errorf("coherence: L1 block %d != L2 block %d", c.L1.BlockSize, c.L2.BlockSize)
	}
	return nil
}

// Level identifies a cache level in results.
type Level int

// Cache levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelMemory
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMemory:
		return "memory"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Invalidation reports a remote copy destroyed by a write.
type Invalidation struct {
	// CPU is the processor that lost the block.
	CPU int
	// Addr is the block base address.
	Addr mem.Addr
	// L1 and L2 report which levels held (and lost) the block.
	L1, L2 bool
	// PrefetchedUnused reports whether the destroyed L1 copy was a
	// streamed block that was never used (an overprediction).
	PrefetchedUnused bool
}

// AccessResult describes one demand access through a CPU's hierarchy.
//
// The eviction and invalidation slices alias per-System scratch buffers:
// they are valid until the next Access or AccessInto call on the same
// System. Consumers must iterate (or copy) before the next access;
// retaining them across calls observes later results. This is what
// keeps the per-record hot path allocation-free.
type AccessResult struct {
	// L1Hit, L2Hit report where the access hit. If both are false, the
	// access went off-chip.
	L1Hit, L2Hit bool
	// L1PrefetchHit reports the first demand hit on a streamed L1 block.
	L1PrefetchHit bool
	// L1PrefetchOffChip refines L1PrefetchHit: the stream fill came from
	// off-chip, so an off-chip miss was covered.
	L1PrefetchOffChip bool
	// L2PrefetchHit reports the first demand hit on a streamed L2 block.
	L2PrefetchHit bool
	// CoherenceMiss reports that this CPU previously held the block and
	// lost it to a remote write (as opposed to replacement or cold).
	CoherenceMiss bool
	// FalseSharing refines CoherenceMiss: the remote writes since this
	// CPU lost the block touched only other 64 B sub-units.
	FalseSharing bool
	// L1Evictions lists L1 victims displaced by the fill (at most one)
	// — these end spatial region generations.
	L1Evictions []cache.Eviction
	// L2Evictions lists L2 victims displaced by the fill (for
	// L2-prefetcher overprediction accounting and L2-level generation
	// tracking).
	L2Evictions []cache.Eviction
	// Invalidations lists remote copies destroyed when the access is a
	// write.
	Invalidations []Invalidation
}

// reset clears the result for reuse. It replaces a whole-struct zeroing
// assignment: the slice fields are pointers, so `*r = AccessResult{}`
// pays three write barriers per record, while the common case here (the
// previous access evicted and invalidated nothing) is three loads and
// three predicted-not-taken branches.
func (r *AccessResult) reset() {
	r.L1Hit = false
	r.L2Hit = false
	r.L1PrefetchHit = false
	r.L1PrefetchOffChip = false
	r.L2PrefetchHit = false
	r.CoherenceMiss = false
	r.FalseSharing = false
	if r.L1Evictions != nil {
		r.L1Evictions = nil
	}
	if r.L2Evictions != nil {
		r.L2Evictions = nil
	}
	if r.Invalidations != nil {
		r.Invalidations = nil
	}
}

// Missed reports whether the access missed at the given level. The
// pointer receiver matters: the result is ~100 bytes, and the hot
// accounting path calls Missed several times per record.
func (r *AccessResult) Missed(l Level) bool {
	switch l {
	case LevelL1:
		return !r.L1Hit
	case LevelL2:
		return !r.L1Hit && !r.L2Hit
	default:
		return false
	}
}

// System is the coherent multiprocessor memory system.
type System struct {
	cfg       Config
	l1s, l2s  []*cache.Cache
	dir       dirTable
	blockBits uint
	subBits   uint
	subMask   uint64

	// Scratch buffers backing the AccessResult slices. Stream fills
	// report their victims by value, so a pending AccessResult stays
	// readable while its streams issue.
	accEvL1, accEvL2 []cache.Eviction
	invScratch       []Invalidation

	// r1 and r2 receive the L1 and L2 outcome of each cache operation
	// (the cache package's Into contract), so no cache.Result is
	// returned by value through the access and stream call chains.
	r1, r2 cache.Result
}

// New builds a coherent system from cfg.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	subsPer := max(1, cfg.L1.BlockSize/subUnit) // sub-units per coherence unit
	s := &System{
		cfg:       cfg,
		dir:       newDirTable(cfg.CPUs, subsPer),
		blockBits: uint(bits.TrailingZeros64(uint64(cfg.L1.BlockSize))),
		subBits:   uint(bits.TrailingZeros64(subUnit)),
		subMask:   uint64(subsPer - 1),
	}
	for i := 0; i < cfg.CPUs; i++ {
		s.l1s = append(s.l1s, cache.MustNew(cfg.L1))
		s.l2s = append(s.l2s, cache.MustNew(cfg.L2))
	}
	return s, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// CPUs returns the processor count.
func (s *System) CPUs() int { return s.cfg.CPUs }

// BlockAddr truncates to the coherence-unit base.
func (s *System) BlockAddr(a mem.Addr) mem.Addr {
	return a &^ (mem.Addr(s.cfg.L1.BlockSize) - 1)
}

func (s *System) blockNum(a mem.Addr) uint64 { return uint64(a) >> s.blockBits }

func (s *System) subOf(a mem.Addr) uint {
	return uint(uint64(a)>>s.subBits) & uint(s.subMask)
}

// Access performs a demand access by cpu. The result's slices are valid
// until the next call on this System (see AccessResult).
func (s *System) Access(cpu int, a mem.Addr, write bool) AccessResult {
	var res AccessResult
	s.AccessInto(&res, cpu, a, write)
	return res
}

// AccessInto is Access writing into a caller-owned result, so the
// per-record loop moves no ~100-byte result struct per call (the
// simulator passes one scratch result through the whole accounting
// chain).
func (s *System) AccessInto(res *AccessResult, cpu int, a mem.Addr, write bool) {
	res.reset()
	l1 := s.l1s[cpu]
	l2 := s.l2s[cpu]

	// Fast path: a read that hits this CPU's L1 needs no directory work
	// at all (the L1-copy invariant of the package comment). This
	// removes a directory probe (a likely cache miss on large
	// footprints) from the dominant access outcome.
	r1 := &s.r1
	l1.AccessInto(r1, a, write)
	if !write && r1.Hit {
		res.L1Hit = true
		res.L1PrefetchHit = r1.PrefetchHit
		res.L1PrefetchOffChip = r1.PrefetchOffChip
		if r1.PrefetchHit {
			// First use of a streamed block: its L2 copy is used too.
			l2.MarkUsed(a)
		}
		return
	}
	s.accessSlow(res, cpu, a, write, r1, l1, l2)
}

// accessSlow finishes an access that needs directory interaction: every
// write (invalidations, written-sub tracking) and every read that missed
// in L1 (coherence/false-sharing classification, sharer registration).
// r1 is the already-performed L1 access outcome.
func (s *System) accessSlow(res *AccessResult, cpu int, a mem.Addr, write bool, r1 *cache.Result, l1, l2 *cache.Cache) {
	// One lookup serves classification and bookkeeping: a new unit's
	// masks are zero, which classifies exactly like an absent unit. The
	// masks are loaded once and stored once, after the cache work, which
	// never touches the directory.
	r := s.dir.getOrInsert(s.blockNum(a))
	sharers, inval := s.dir.masks(r)
	bit := uint64(1) << uint(cpu)

	// Classify coherence/false-sharing state. The original ordering ran
	// this before the L1 access; the two touch disjoint state (the
	// directory vs. the cache arrays), so classifying after the cache
	// update observes identical values.
	if inval&bit != 0 {
		res.CoherenceMiss = true
		if !s.dir.subWritten(r, s.subOf(a)) {
			res.FalseSharing = true
		}
		inval = s.dir.reacquire(r, inval, bit)
	}

	res.L1Hit = r1.Hit
	res.L1PrefetchHit = r1.PrefetchHit
	res.L1PrefetchOffChip = r1.PrefetchOffChip
	if r1.PrefetchHit {
		// First use of a streamed block: its L2 copy is used too.
		l2.MarkUsed(a)
	}
	if r1.Evicted {
		s.accEvL1 = append(s.accEvL1[:0], r1.Victim)
		res.L1Evictions = s.accEvL1
	}
	if !r1.Hit {
		r2 := &s.r2
		l2.AccessInto(r2, a, write)
		res.L2Hit = r2.Hit
		res.L2PrefetchHit = r2.PrefetchHit
		if r2.Evicted {
			s.accEvL2 = append(s.accEvL2[:0], r2.Victim)
			res.L2Evictions = s.accEvL2
		}
	}

	// Directory bookkeeping: a write leaves the writer the only sharer
	// and every other one invalidated.
	sharers |= bit
	if write {
		remote := sharers &^ bit
		res.Invalidations = s.invalidateRemote(a, remote)
		sharers, inval = bit, inval|remote
		s.dir.markWritten(r, s.subOf(a))
	}
	s.dir.setMasks(r, sharers, inval)
}

// invalidateRemote destroys the copies of the unit containing a that the
// CPUs in remote hold. The returned slice aliases the System's scratch
// buffer.
func (s *System) invalidateRemote(a mem.Addr, remote uint64) []Invalidation {
	out := s.invScratch[:0]
	base := s.BlockAddr(a)
	for ; remote != 0; remote &= remote - 1 {
		cpu := bits.TrailingZeros64(remote)
		i1 := s.l1s[cpu].Invalidate(base)
		i2 := s.l2s[cpu].Invalidate(base)
		if i1.Present || i2.Present {
			// A streamed block is overpredicted only if its longest-
			// lived copy dies unused: judge at L2 when present.
			unused := i2.PrefetchedUnused
			if !i2.Present {
				unused = i1.PrefetchedUnused
			}
			out = append(out, Invalidation{
				CPU:              cpu,
				Addr:             base,
				L1:               i1.Present,
				L2:               i2.Present,
				PrefetchedUnused: unused,
			})
		}
	}
	s.invScratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// StreamResult describes a prefetch fill. A fill displaces at most one
// victim per level, so the victims are held by value.
type StreamResult struct {
	// AlreadyPresent reports that the target was in L1 already (the
	// stream request is dropped).
	AlreadyPresent bool
	// L2Hit reports the fill was satisfied on-chip.
	L2Hit bool
	// L1Evicted reports that the fill displaced L1Victim (it ends a
	// generation).
	L1Evicted bool
	L1Victim  cache.Eviction
	// L2Evicted reports that the fill displaced L2Victim.
	L2Evicted bool
	L2Victim  cache.Eviction
}

// Stream performs an SMS stream request: fetch the block into cpu's L1
// (and L2) as a read, obeying the coherence protocol ("SMS stream requests
// behave like read requests in the cache coherence protocol", §3.2).
func (s *System) Stream(cpu int, a mem.Addr) StreamResult {
	var res StreamResult
	s.StreamInto(&res, cpu, a)
	return res
}

// StreamInto is Stream writing into a caller-owned result (see
// AccessInto).
func (s *System) StreamInto(res *StreamResult, cpu int, a mem.Addr) {
	l1 := s.l1s[cpu]
	// One L1 scan answers both "already present?" and "which way will
	// the fill use?" — the L2 work between never touches this L1.
	hit, way := l1.ProbeVictim(a)
	if hit {
		*res = StreamResult{AlreadyPresent: true}
		return
	}
	// FillInto doubles as the presence probe: it is a flag-preserving no-op
	// on a resident block, so one scan answers "was it an L2 hit" and
	// performs the fill when it was not.
	r1, r2 := &s.r1, &s.r2
	s.l2s[cpu].FillInto(r2, a, true)
	l1.FillAtWayInto(r1, a, way, !r2.Hit)
	*res = StreamResult{
		L2Hit:     r2.Hit,
		L1Evicted: r1.Evicted,
		L1Victim:  r1.Victim,
		L2Evicted: r2.Evicted,
		L2Victim:  r2.Victim,
	}
	// An L2-resident copy is already registered (the L2-copy invariant
	// of the package comment), so only an L2 miss reaches the directory.
	if !r2.Hit {
		s.acquire(cpu, a)
	}
}

// acquire registers cpu as a sharer of a's unit holding it again: a
// stream fill is a read, so it also clears any pending invalidation.
func (s *System) acquire(cpu int, a mem.Addr) {
	r := s.dir.getOrInsert(s.blockNum(a))
	sharers, inval := s.dir.masks(r)
	bit := uint64(1) << uint(cpu)
	if inval&bit != 0 {
		inval = s.dir.reacquire(r, inval, bit)
	}
	s.dir.setMasks(r, sharers|bit, inval)
}

// L2Stream fills a block into cpu's L2 only (used by L2-targeted
// prefetchers such as GHB, which the paper applies at L2; §4.6).
func (s *System) L2Stream(cpu int, a mem.Addr) StreamResult {
	var res StreamResult
	s.L2StreamInto(&res, cpu, a)
	return res
}

// L2StreamInto is L2Stream writing into a caller-owned result (see
// AccessInto).
func (s *System) L2StreamInto(res *StreamResult, cpu int, a mem.Addr) {
	r2 := &s.r2
	s.l2s[cpu].FillInto(r2, a, true)
	if r2.Hit {
		*res = StreamResult{AlreadyPresent: true}
		return
	}
	*res = StreamResult{L2Evicted: r2.Evicted, L2Victim: r2.Victim}
	s.acquire(cpu, a)
}

// L1 exposes a CPU's L1 cache (read-mostly; used by training-structure
// variants that mirror cache contents).
func (s *System) L1(cpu int) *cache.Cache { return s.l1s[cpu] }

// L2 exposes a CPU's L2 cache.
func (s *System) L2(cpu int) *cache.Cache { return s.l2s[cpu] }

package coherence

// Differential test against the pre-open-addressing implementation: a
// verbatim copy of the map-backed System (map[uint64]*dirEntry, per-call
// slice allocation, probe-then-fill streams, classification before the
// cache update) kept as the executable specification. Randomized
// multi-CPU access/stream interleavings must produce field-identical
// results from both implementations — this is what lets the hot-path
// rewrite claim bit-identical simulation output.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
)

// refLine/refCache: a deliberately naive set-associative LRU cache,
// independent of package cache's layout tricks.
type refLine struct {
	tag        uint64
	valid      bool
	dirty      bool
	prefetched bool
	used       bool
	offChip    bool
	lru        uint64
}

type refCache struct {
	cfg       cache.Config
	blockBits uint
	setBits   uint
	sets      [][]refLine
	clock     uint64
}

func newRefCache(cfg cache.Config) *refCache {
	nsets := cfg.Sets()
	c := &refCache{cfg: cfg, sets: make([][]refLine, nsets)}
	for i := range c.sets {
		c.sets[i] = make([]refLine, cfg.Assoc)
	}
	for cfg.BlockSize>>c.blockBits > 1 {
		c.blockBits++
	}
	for nsets>>c.setBits > 1 {
		c.setBits++
	}
	return c
}

func (c *refCache) index(a mem.Addr) (uint64, uint64) {
	bn := uint64(a) >> c.blockBits
	return bn & uint64(len(c.sets)-1), bn >> c.setBits
}

func (c *refCache) addrOf(set, tag uint64) mem.Addr {
	return mem.Addr((tag<<c.setBits | set) << c.blockBits)
}

func (c *refCache) access(a mem.Addr, write bool) cache.Result {
	set, tag := c.index(a)
	c.clock++
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			res := cache.Result{Hit: true}
			if ln.prefetched && !ln.used {
				res.PrefetchHit = true
				res.PrefetchOffChip = ln.offChip
			}
			ln.used = true
			ln.lru = c.clock
			if write {
				ln.dirty = true
			}
			return res
		}
	}
	res := c.fill(set, tag, false)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag && write {
			ln.dirty = true
		}
	}
	return res
}

func (c *refCache) probe(a mem.Addr) bool {
	set, tag := c.index(a)
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) fillPrefetch(a mem.Addr, offChip bool) cache.Result {
	set, tag := c.index(a)
	c.clock++
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].tag == tag {
			return cache.Result{Hit: true}
		}
	}
	res := c.fill(set, tag, true)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			ln.offChip = offChip
		}
	}
	return res
}

func (c *refCache) fill(set, tag uint64, prefetched bool) cache.Result {
	lines := c.sets[set]
	victim := -1
	oldest := ^uint64(0)
	for i := range lines {
		if !lines[i].valid {
			victim = i
			break
		}
		if lines[i].lru < oldest {
			oldest = lines[i].lru
			victim = i
		}
	}
	res := cache.Result{}
	v := &lines[victim]
	if v.valid {
		res.Evicted = true
		res.Victim = cache.Eviction{
			Addr:             c.addrOf(set, v.tag),
			Dirty:            v.dirty,
			PrefetchedUnused: v.prefetched && !v.used,
		}
	}
	*v = refLine{tag: tag, valid: true, prefetched: prefetched, lru: c.clock}
	return res
}

func (c *refCache) markUsed(a mem.Addr) {
	set, tag := c.index(a)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			ln.used = true
			return
		}
	}
}

func (c *refCache) invalidate(a mem.Addr) cache.InvalidateResult {
	set, tag := c.index(a)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			res := cache.InvalidateResult{
				Present:          true,
				WasDirty:         ln.dirty,
				PrefetchedUnused: ln.prefetched && !ln.used,
			}
			*ln = refLine{}
			return res
		}
	}
	return cache.InvalidateResult{}
}

// refSystem is the old map-backed coherent system, verbatim semantics.
type refSystem struct {
	cfg      Config
	l1s, l2s []*refCache
	dir      map[uint64]*refDirEntry
	subsPer  int
}

// refDirEntry is a directory entry with the written sub-units as a set,
// so any unit size is exact.
type refDirEntry struct {
	sharers, invalidated uint64
	written              map[uint]bool
}

func newRefSystem(cfg Config) *refSystem {
	s := &refSystem{cfg: cfg, dir: map[uint64]*refDirEntry{}, subsPer: cfg.L1.BlockSize / subUnit}
	if s.subsPer < 1 {
		s.subsPer = 1
	}
	for i := 0; i < cfg.CPUs; i++ {
		s.l1s = append(s.l1s, newRefCache(cfg.L1))
		s.l2s = append(s.l2s, newRefCache(cfg.L2))
	}
	return s
}

func (s *refSystem) blockNum(a mem.Addr) uint64 {
	return uint64(a) / uint64(s.cfg.L1.BlockSize)
}

func (s *refSystem) blockAddr(a mem.Addr) mem.Addr {
	return a &^ (mem.Addr(s.cfg.L1.BlockSize) - 1)
}

func (s *refSystem) subOf(a mem.Addr) uint {
	if s.subsPer == 1 {
		return 0
	}
	return uint(uint64(a)/subUnit) & uint(s.subsPer-1)
}

func (s *refSystem) access(cpu int, a mem.Addr, write bool) AccessResult {
	var res AccessResult
	bn := s.blockNum(a)
	e := s.dir[bn]
	if e != nil && e.invalidated&(1<<uint(cpu)) != 0 {
		res.CoherenceMiss = true
		if !e.written[s.subOf(a)] {
			res.FalseSharing = true
		}
		e.invalidated &^= 1 << uint(cpu)
		if e.invalidated == 0 {
			e.written = nil
		}
	}
	r1 := s.l1s[cpu].access(a, write)
	res.L1Hit = r1.Hit
	res.L1PrefetchHit = r1.PrefetchHit
	res.L1PrefetchOffChip = r1.PrefetchOffChip
	if r1.PrefetchHit {
		s.l2s[cpu].markUsed(a)
	}
	if r1.Evicted {
		res.L1Evictions = append(res.L1Evictions, r1.Victim)
	}
	if !r1.Hit {
		r2 := s.l2s[cpu].access(a, write)
		res.L2Hit = r2.Hit
		res.L2PrefetchHit = r2.PrefetchHit
		if r2.Evicted {
			res.L2Evictions = append(res.L2Evictions, r2.Victim)
		}
	}
	if e == nil {
		e = &refDirEntry{}
		s.dir[bn] = e
	}
	e.sharers |= 1 << uint(cpu)
	if write {
		base := s.blockAddr(a)
		remote := e.sharers &^ (1 << uint(cpu))
		for cpuBit := 0; cpuBit < s.cfg.CPUs; cpuBit++ {
			if remote&(1<<uint(cpuBit)) == 0 {
				continue
			}
			i1 := s.l1s[cpuBit].invalidate(base)
			i2 := s.l2s[cpuBit].invalidate(base)
			if i1.Present || i2.Present {
				unused := i2.PrefetchedUnused
				if !i2.Present {
					unused = i1.PrefetchedUnused
				}
				res.Invalidations = append(res.Invalidations, Invalidation{
					CPU:              cpuBit,
					Addr:             base,
					L1:               i1.Present,
					L2:               i2.Present,
					PrefetchedUnused: unused,
				})
			}
			e.sharers &^= 1 << uint(cpuBit)
			e.invalidated |= 1 << uint(cpuBit)
		}
		if e.written == nil {
			e.written = map[uint]bool{}
		}
		e.written[s.subOf(a)] = true
	}
	return res
}

func (s *refSystem) stream(cpu int, a mem.Addr) StreamResult {
	var res StreamResult
	if s.l1s[cpu].probe(a) {
		res.AlreadyPresent = true
		return res
	}
	res.L2Hit = s.l2s[cpu].probe(a)
	if !res.L2Hit {
		r2 := s.l2s[cpu].fillPrefetch(a, true)
		res.L2Evicted, res.L2Victim = r2.Evicted, r2.Victim
	}
	r1 := s.l1s[cpu].fillPrefetch(a, !res.L2Hit)
	res.L1Evicted, res.L1Victim = r1.Evicted, r1.Victim
	s.reacquire(cpu, a)
	return res
}

// reacquire makes cpu a sharer of a's unit with no invalidation
// pending, as every stream fill does.
func (s *refSystem) reacquire(cpu int, a mem.Addr) {
	bn := s.blockNum(a)
	e := s.dir[bn]
	if e == nil {
		e = &refDirEntry{}
		s.dir[bn] = e
	}
	e.sharers |= 1 << uint(cpu)
	if e.invalidated&(1<<uint(cpu)) != 0 {
		e.invalidated &^= 1 << uint(cpu)
		if e.invalidated == 0 {
			e.written = nil
		}
	}
}

// l2Stream fills L2 only. Like stream it re-acquires the block, so no
// L2 copy coexists with a pending invalidation of its CPU.
func (s *refSystem) l2Stream(cpu int, a mem.Addr) StreamResult {
	var res StreamResult
	if s.l2s[cpu].probe(a) {
		res.AlreadyPresent = true
		return res
	}
	r2 := s.l2s[cpu].fillPrefetch(a, true)
	res.L2Evicted, res.L2Victim = r2.Evicted, r2.Victim
	s.reacquire(cpu, a)
	return res
}

// ---- the differential driver ----

func sameEvictions(a, b []cache.Eviction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameInvalidations(a, b []Invalidation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameAccess(a, b AccessResult) bool {
	return a.L1Hit == b.L1Hit && a.L2Hit == b.L2Hit &&
		a.L1PrefetchHit == b.L1PrefetchHit && a.L1PrefetchOffChip == b.L1PrefetchOffChip &&
		a.L2PrefetchHit == b.L2PrefetchHit &&
		a.CoherenceMiss == b.CoherenceMiss && a.FalseSharing == b.FalseSharing &&
		sameEvictions(a.L1Evictions, b.L1Evictions) &&
		sameEvictions(a.L2Evictions, b.L2Evictions) &&
		sameInvalidations(a.Invalidations, b.Invalidations)
}

// diffOp drives one randomly chosen operation at address a through both
// implementations and fails on any difference.
func diffOp(t *testing.T, leg string, op int, sys *System, ref *refSystem, rng *rand.Rand, cpu int, a mem.Addr) {
	t.Helper()
	switch rng.Intn(10) {
	case 0, 1:
		got := sys.Stream(cpu, sys.BlockAddr(a))
		want := ref.stream(cpu, ref.blockAddr(a))
		if got != want {
			t.Fatalf("%s op %d: Stream(cpu=%d, %#x):\n got  %+v\n want %+v", leg, op, cpu, uint64(a), got, want)
		}
	case 2:
		got := sys.L2Stream(cpu, sys.BlockAddr(a))
		want := ref.l2Stream(cpu, ref.blockAddr(a))
		if got != want {
			t.Fatalf("%s op %d: L2Stream(cpu=%d, %#x):\n got  %+v\n want %+v", leg, op, cpu, uint64(a), got, want)
		}
	default:
		write := rng.Intn(4) == 0
		got := sys.Access(cpu, a, write)
		want := ref.access(cpu, a, write)
		if !sameAccess(got, want) {
			t.Fatalf("%s op %d: Access(cpu=%d, %#x, write=%v):\n got  %+v\n want %+v", leg, op, cpu, uint64(a), write, got, want)
		}
	}
}

func TestSystemMatchesMapReference(t *testing.T) {
	configs := []Config{
		{CPUs: 4, L1: cache.Config{Size: 2048, Assoc: 2, BlockSize: 64}, L2: cache.Config{Size: 8192, Assoc: 4, BlockSize: 64}},
		{CPUs: 3, L1: cache.Config{Size: 4096, Assoc: 2, BlockSize: 256}, L2: cache.Config{Size: 16384, Assoc: 8, BlockSize: 256}},
		{CPUs: 8, L1: cache.Config{Size: 1024, Assoc: 1, BlockSize: 64}, L2: cache.Config{Size: 4096, Assoc: 2, BlockSize: 64}},
		// 8 kB units: 128 sub-units, two words of written sub-units each.
		{CPUs: 4, L1: cache.Config{Size: 32768, Assoc: 2, BlockSize: 8192}, L2: cache.Config{Size: 131072, Assoc: 4, BlockSize: 8192}},
		// With the configs above, every directory lane width: 4 bits
		// (1–4 CPUs), 8, 16, 32 and 64 (33 and 64 CPUs), with units of 1,
		// 2 and 8 sub-units.
		{CPUs: 1, L1: cache.Config{Size: 2048, Assoc: 2, BlockSize: 128}, L2: cache.Config{Size: 8192, Assoc: 4, BlockSize: 128}},
		{CPUs: 2, L1: cache.Config{Size: 4096, Assoc: 2, BlockSize: 512}, L2: cache.Config{Size: 16384, Assoc: 4, BlockSize: 512}},
		{CPUs: 16, L1: cache.Config{Size: 2048, Assoc: 2, BlockSize: 128}, L2: cache.Config{Size: 8192, Assoc: 4, BlockSize: 128}},
		{CPUs: 32, L1: cache.Config{Size: 2048, Assoc: 2, BlockSize: 64}, L2: cache.Config{Size: 8192, Assoc: 4, BlockSize: 64}},
		{CPUs: 33, L1: cache.Config{Size: 4096, Assoc: 2, BlockSize: 512}, L2: cache.Config{Size: 16384, Assoc: 4, BlockSize: 512}},
		{CPUs: 64, L1: cache.Config{Size: 2048, Assoc: 2, BlockSize: 128}, L2: cache.Config{Size: 8192, Assoc: 4, BlockSize: 128}},
		{CPUs: 64, L1: cache.Config{Size: 4096, Assoc: 2, BlockSize: 512}, L2: cache.Config{Size: 16384, Assoc: 4, BlockSize: 512}},
	}
	for ci, cfg := range configs {
		sys := MustNew(cfg)
		ref := newRefSystem(cfg)
		rng := rand.New(rand.NewSource(int64(42 + ci)))
		leg := fmt.Sprintf("cfg %d", ci)
		// A small address space forces heavy conflict, sharing, and
		// invalidation traffic.
		const blocks = 96
		for op := 0; op < 60_000; op++ {
			cpu := rng.Intn(cfg.CPUs)
			a := mem.Addr(rng.Intn(blocks))*mem.Addr(cfg.L1.BlockSize) + mem.Addr(rng.Intn(cfg.L1.BlockSize))
			diffOp(t, leg, op, sys, ref, rng, cpu, a)
		}
		if got, want := sys.dir.len(), len(ref.dir); got != want {
			t.Fatalf("%s: directory size %d, reference %d", leg, got, want)
		}
	}
}

// TestSystemMatchesMapReferenceLargeFootprint is the differential over a
// footprint the directory must page: each CPU scans its own stretch of
// units while random accesses land anywhere in 1<<17 units, so the page
// index grows several times and scans share pages with random traffic.
// It runs at 4, 16 and 64 CPUs, whose pages cover 64, 16 and 4 units.
func TestSystemMatchesMapReferenceLargeFootprint(t *testing.T) {
	for _, cpus := range []int{4, 16, 64} {
		cfg := Config{CPUs: cpus, L1: cache.Config{Size: 4096, Assoc: 2, BlockSize: 64}, L2: cache.Config{Size: 32768, Assoc: 8, BlockSize: 64}}
		sys := MustNew(cfg)
		ref := newRefSystem(cfg)
		rng := rand.New(rand.NewSource(7))
		leg := fmt.Sprintf("large %d CPUs", cpus)
		const units = 1 << 17
		scan := make([]int, cpus)
		for op := 0; op < 300_000; op++ {
			cpu := rng.Intn(cfg.CPUs)
			u := rng.Intn(units)
			if op%3 != 0 {
				u = (cpu*units/cfg.CPUs + scan[cpu]) % units
				scan[cpu]++
			}
			a := mem.Addr(u)*mem.Addr(cfg.L1.BlockSize) + mem.Addr(rng.Intn(cfg.L1.BlockSize))
			diffOp(t, leg, op, sys, ref, rng, cpu, a)
			if op%50_000 == 0 && sys.dir.len() != len(ref.dir) {
				t.Fatalf("%s op %d: directory size %d, reference %d", leg, op, sys.dir.len(), len(ref.dir))
			}
		}
		if got, want := sys.dir.len(), len(ref.dir); got != want {
			t.Fatalf("%s: directory size %d, reference %d", leg, got, want)
		}
		if got := sys.dir.len(); got < 100_000 {
			t.Fatalf("%s: footprint touched only %d units; the leg needs at least 100k", leg, got)
		}
	}
}

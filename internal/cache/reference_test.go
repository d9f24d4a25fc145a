package cache

// Reference-model property test: the array-based set-associative cache
// must agree with a naive map/slice LRU specification on arbitrary access
// sequences.

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// refCache is the executable specification: per set, a slice ordered from
// LRU (front) to MRU (back).
type refCache struct {
	cfg  Config
	sets [][]uint64 // block numbers, LRU order
}

func newRefCache(cfg Config) *refCache {
	return &refCache{cfg: cfg, sets: make([][]uint64, cfg.Sets())}
}

func (c *refCache) setOf(bn uint64) int { return int(bn % uint64(c.cfg.Sets())) }

// access returns (hit, evicted block number, eviction happened).
func (c *refCache) access(bn uint64) (bool, uint64, bool) {
	si := c.setOf(bn)
	set := c.sets[si]
	for i, b := range set {
		if b == bn {
			// Move to MRU.
			c.sets[si] = append(append(set[:i:i], set[i+1:]...), bn)
			return true, 0, false
		}
	}
	if len(set) < c.cfg.Assoc {
		c.sets[si] = append(set, bn)
		return false, 0, false
	}
	victim := set[0]
	c.sets[si] = append(set[1:len(set):len(set)], bn)
	return false, victim, true
}

func (c *refCache) invalidate(bn uint64) bool {
	si := c.setOf(bn)
	for i, b := range c.sets[si] {
		if b == bn {
			c.sets[si] = append(c.sets[si][:i], c.sets[si][i+1:]...)
			return true
		}
	}
	return false
}

func TestCacheAgreesWithLRUReference(t *testing.T) {
	cfg := Config{Size: 2048, Assoc: 2, BlockSize: 64} // 16 sets
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		c := MustNew(cfg)
		ref := newRefCache(cfg)
		var res Result
		for step := 0; step < 2000; step++ {
			bn := uint64(rng.Intn(128)) // enough aliasing to force evictions
			addr := mem.Addr(bn * 64)
			if rng.Intn(8) == 0 {
				gotInv := c.Invalidate(addr)
				wantPresent := ref.invalidate(bn)
				if gotInv.Present != wantPresent {
					t.Fatalf("trial %d step %d: invalidate present %v, want %v",
						trial, step, gotInv.Present, wantPresent)
				}
				continue
			}
			c.AccessInto(&res, addr, rng.Intn(3) == 0)
			wantHit, wantVictim, wantEvict := ref.access(bn)
			if res.Hit != wantHit {
				t.Fatalf("trial %d step %d bn=%d: hit %v, want %v", trial, step, bn, res.Hit, wantHit)
			}
			if res.Evicted != wantEvict {
				t.Fatalf("trial %d step %d bn=%d: evicted %v, want %v", trial, step, bn, res.Evicted, wantEvict)
			}
			if wantEvict && uint64(res.Victim.Addr)/64 != wantVictim {
				t.Fatalf("trial %d step %d: victim %d, want %d",
					trial, step, uint64(res.Victim.Addr)/64, wantVictim)
			}
		}
		// Final contents agree.
		for bn := uint64(0); bn < 128; bn++ {
			inRef := false
			for _, b := range ref.sets[ref.setOf(bn)] {
				if b == bn {
					inRef = true
				}
			}
			if got := c.Probe(mem.Addr(bn * 64)); got != inRef {
				t.Fatalf("trial %d: final contents diverge at block %d: %v vs %v", trial, bn, got, inRef)
			}
		}
	}
}

// wayRef is the executable specification of the replacement rule, with
// every way explicit: a fill takes the first invalid way of its set,
// else the least recently used one.
type wayRef struct {
	sets      [][]wayLine
	blockBits uint
	setBits   uint
	clock     uint64
}

type wayLine struct {
	valid, dirty, prefetched, used, offChip bool
	tag, lru                                uint64
}

func newWayRef(cfg Config) *wayRef {
	r := &wayRef{sets: make([][]wayLine, cfg.Sets())}
	for i := range r.sets {
		r.sets[i] = make([]wayLine, cfg.Assoc)
	}
	for cfg.BlockSize>>r.blockBits > 1 {
		r.blockBits++
	}
	for cfg.Sets()>>r.setBits > 1 {
		r.setBits++
	}
	return r
}

func (r *wayRef) index(a mem.Addr) (set []wayLine, s, tag uint64) {
	bn := uint64(a) >> r.blockBits
	s = bn & uint64(len(r.sets)-1)
	return r.sets[s], s, bn >> r.setBits
}

func (r *wayRef) find(set []wayLine, tag uint64) int {
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return i
		}
	}
	return -1
}

// victim returns the way a fill uses and whether it leaves a valid way
// after an invalid one (a hole Invalidate left mid-set).
func (r *wayRef) victim(set []wayLine) (way int, hole bool) {
	for i := range set {
		if !set[i].valid {
			for _, later := range set[i+1:] {
				if later.valid {
					return i, true
				}
			}
			return i, false
		}
	}
	way = 0
	for i := range set {
		if set[i].lru < set[way].lru {
			way = i
		}
	}
	return way, false
}

func (r *wayRef) fill(set []wayLine, s uint64, way int, tag uint64, ln wayLine) Result {
	var res Result
	if v := set[way]; v.valid {
		res.Evicted = true
		res.Victim = Eviction{
			Addr:             mem.Addr((v.tag<<r.setBits | s) << r.blockBits),
			Dirty:            v.dirty,
			PrefetchedUnused: v.prefetched && !v.used,
		}
	}
	ln.valid, ln.tag, ln.lru = true, tag, r.clock
	set[way] = ln
	return res
}

func (r *wayRef) access(a mem.Addr, write bool) (res Result, hole bool) {
	set, s, tag := r.index(a)
	r.clock++
	if i := r.find(set, tag); i >= 0 {
		ln := &set[i]
		first := ln.prefetched && !ln.used
		ln.used, ln.lru = true, r.clock
		ln.dirty = ln.dirty || write
		return Result{Hit: true, PrefetchHit: first, PrefetchOffChip: first && ln.offChip}, false
	}
	way, hole := r.victim(set)
	return r.fill(set, s, way, tag, wayLine{dirty: write}), hole
}

func (r *wayRef) streamFill(a mem.Addr, offChip bool) (res Result, hole bool) {
	set, s, tag := r.index(a)
	r.clock++
	if r.find(set, tag) >= 0 {
		return Result{Hit: true}, false
	}
	way, hole := r.victim(set)
	return r.fill(set, s, way, tag, wayLine{prefetched: true, offChip: offChip}), hole
}

func (r *wayRef) probeVictim(a mem.Addr) (hit bool, way int) {
	set, _, tag := r.index(a)
	if r.find(set, tag) >= 0 {
		return true, 0
	}
	way, _ = r.victim(set)
	return false, way
}

func (r *wayRef) fillAtWay(a mem.Addr, way int, offChip bool) Result {
	set, s, tag := r.index(a)
	r.clock++
	return r.fill(set, s, way, tag, wayLine{prefetched: true, offChip: offChip})
}

func (r *wayRef) invalidate(a mem.Addr) InvalidateResult {
	set, _, tag := r.index(a)
	i := r.find(set, tag)
	if i < 0 {
		return InvalidateResult{}
	}
	ln := set[i]
	set[i] = wayLine{}
	return InvalidateResult{Present: true, WasDirty: ln.dirty, PrefetchedUnused: ln.prefetched && !ln.used}
}

func (r *wayRef) markUsed(a mem.Addr) {
	set, _, tag := r.index(a)
	if i := r.find(set, tag); i >= 0 {
		set[i].used = true
	}
}

// TestCacheMatchesWayReference drives the cache and wayRef through the
// same random AccessInto, FillInto, ProbeVictim+FillAtWayInto,
// Invalidate and MarkUsed calls on 2-, 4-, 8- and 16-way caches. Every
// outcome, and the way every ProbeVictim picks, must agree, and so must
// the final contents. Invalidations leave holes mid-set, and the test
// requires fills to have reused such holes.
func TestCacheMatchesWayReference(t *testing.T) {
	for _, assoc := range []int{2, 4, 8, 16} {
		cfg := Config{Size: 4 * assoc * 64, Assoc: assoc, BlockSize: 64} // 4 sets
		c, ref := MustNew(cfg), newWayRef(cfg)
		rng := rand.New(rand.NewSource(int64(assoc)))
		blocks := 3 * 4 * assoc
		var got, want Result
		holes := 0
		for op := 0; op < 50_000; op++ {
			a := mem.Addr(rng.Intn(blocks))*64 + mem.Addr(rng.Intn(64))
			var hole bool
			switch rng.Intn(8) {
			case 0:
				offChip := rng.Intn(2) == 0
				c.FillInto(&got, a, offChip)
				want, hole = ref.streamFill(a, offChip)
			case 1:
				hit, way := c.ProbeVictim(a)
				wantHit, wantWay := ref.probeVictim(a)
				if hit != wantHit || !hit && way != wantWay {
					t.Fatalf("%d-way op %d: ProbeVictim(%#x) = %v, way %d; reference %v, way %d", assoc, op, uint64(a), hit, way, wantHit, wantWay)
				}
				if hit {
					continue
				}
				set, _, _ := ref.index(a)
				_, hole = ref.victim(set)
				offChip := rng.Intn(2) == 0
				c.FillAtWayInto(&got, a, way, offChip)
				want = ref.fillAtWay(a, way, offChip)
			case 2:
				if g, w := c.Invalidate(a), ref.invalidate(a); g != w {
					t.Fatalf("%d-way op %d: Invalidate(%#x) = %+v, reference %+v", assoc, op, uint64(a), g, w)
				}
				continue
			case 3:
				c.MarkUsed(a)
				ref.markUsed(a)
				continue
			default:
				write := rng.Intn(3) == 0
				c.AccessInto(&got, a, write)
				want, hole = ref.access(a, write)
			}
			if got != want {
				t.Fatalf("%d-way op %d at %#x: %+v, reference %+v", assoc, op, uint64(a), got, want)
			}
			if hole {
				holes++
			}
		}
		for b := 0; b < blocks; b++ {
			a := mem.Addr(b * 64)
			set, _, tag := ref.index(a)
			if got, want := c.Probe(a), ref.find(set, tag) >= 0; got != want {
				t.Fatalf("%d-way: final contents differ at block %d: %v, reference %v", assoc, b, got, want)
			}
		}
		if holes == 0 {
			t.Fatalf("%d-way: no fill reused a hole left mid-set", assoc)
		}
	}
}

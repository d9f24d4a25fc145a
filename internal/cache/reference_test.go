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

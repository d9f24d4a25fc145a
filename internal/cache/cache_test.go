package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func small() *Cache {
	return MustNew(Config{Size: 1024, Assoc: 2, BlockSize: 64}) // 8 sets
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{Size: 65536, Assoc: 2, BlockSize: 64}, true},
		{Config{Size: 1024, Assoc: 2, BlockSize: 64}, true},
		{Config{Size: 1024, Assoc: 2, BlockSize: 60}, false},
		{Config{Size: 1000, Assoc: 2, BlockSize: 64}, false},
		{Config{Size: 1024, Assoc: 0, BlockSize: 64}, false},
		{Config{Size: 0, Assoc: 2, BlockSize: 64}, false},
		{Config{Size: 64 * 2 * 3, Assoc: 2, BlockSize: 64}, false}, // 3 sets
		{Config{Size: 8 << 20, Assoc: 8, BlockSize: 8192}, true},   // Fig. 4 extreme
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%+v: unexpected error %v", c.cfg, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%+v: expected error", c.cfg)
		}
	}
	if MustNew(Config{Size: 1024, Assoc: 2, BlockSize: 64}).Config().Sets() != 8 {
		t.Error("Sets() wrong")
	}
}

func TestMissThenHit(t *testing.T) {
	c := small()
	var res Result
	if c.AccessInto(&res, 0x1000, false); res.Hit {
		t.Fatal("cold access hit")
	}
	if c.AccessInto(&res, 0x1000, false); !res.Hit {
		t.Fatal("second access missed")
	}
	// Same block, different byte.
	if c.AccessInto(&res, 0x103f, false); !res.Hit {
		t.Fatal("same-block access missed")
	}
	// Next block misses.
	if c.AccessInto(&res, 0x1040, false); res.Hit {
		t.Fatal("neighbour block hit")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := small() // 8 sets, 2-way; addresses 64*8 apart share a set
	const stride = 64 * 8
	a0, a1, a2 := mem.Addr(0), mem.Addr(stride), mem.Addr(2*stride)
	var res Result
	c.AccessInto(&res, a0, false)
	c.AccessInto(&res, a1, false)
	c.AccessInto(&res, a0, false) // a0 is MRU
	c.AccessInto(&res, a2, false)
	if !res.Evicted || res.Victim.Addr != a1 {
		t.Fatalf("expected a1 evicted, got %+v", res)
	}
	if !c.Probe(a0) || c.Probe(a1) || !c.Probe(a2) {
		t.Fatal("contents wrong after replacement")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := small()
	const stride = 64 * 8
	var res Result
	c.AccessInto(&res, 0, true)
	c.AccessInto(&res, stride, false)
	c.AccessInto(&res, 2*stride, false)
	if !res.Evicted || !res.Victim.Dirty || res.Victim.Addr != 0 {
		t.Fatalf("dirty victim not reported: %+v", res)
	}
	// Write on miss dirties the filled line.
	c2 := small()
	c2.AccessInto(&res, 0, true)
	c2.AccessInto(&res, stride, true)
	c2.AccessInto(&res, 2*stride, false)
	if !res.Victim.Dirty {
		t.Fatal("write-allocate line not dirty")
	}
}

func TestPrefetchCoverageFlags(t *testing.T) {
	c := small()
	var res Result
	if c.FillInto(&res, 0x2000, true); res.Hit {
		t.Fatal("fill of absent block reported hit")
	}
	// First demand access to a streamed block is a PrefetchHit.
	c.AccessInto(&res, 0x2000, false)
	if !res.Hit || !res.PrefetchHit {
		t.Fatalf("prefetch hit not reported: %+v", res)
	}
	// Second demand access is a plain hit.
	c.AccessInto(&res, 0x2000, false)
	if !res.Hit || res.PrefetchHit {
		t.Fatalf("second hit misflagged: %+v", res)
	}
}

func TestOverpredictionOnEviction(t *testing.T) {
	c := small()
	const stride = 64 * 8
	var res Result
	c.FillInto(&res, 0, true)         // streamed, never used
	c.AccessInto(&res, stride, false) // demand
	c.AccessInto(&res, 2*stride, false)
	if !res.Evicted || !res.Victim.PrefetchedUnused || res.Victim.Addr != 0 {
		t.Fatalf("unused prefetch eviction not flagged: %+v", res)
	}
	// A used prefetch must not be flagged.
	c2 := small()
	c2.FillInto(&res, 0, true)
	c2.AccessInto(&res, 0, false)
	c2.AccessInto(&res, stride, false)
	c2.AccessInto(&res, 2*stride, false)
	if res.Victim.PrefetchedUnused {
		t.Fatal("used prefetch flagged as overprediction")
	}
}

func TestFillExistingIsNoop(t *testing.T) {
	c := small()
	var res Result
	c.AccessInto(&res, 0x40, true)
	if c.FillInto(&res, 0x40, false); !res.Hit || res.Evicted {
		t.Fatalf("fill of present block: %+v", res)
	}
	// Dirty bit must survive.
	const stride = 64 * 8
	c.AccessInto(&res, 0x40+stride, false)
	c.AccessInto(&res, 0x40+2*stride, false)
	if !res.Victim.Dirty {
		t.Fatal("dirty bit lost by redundant fill")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	var fill Result
	c.AccessInto(&fill, 0x80, true)
	res := c.Invalidate(0x80)
	if !res.Present || !res.WasDirty {
		t.Fatalf("Invalidate = %+v", res)
	}
	if c.Probe(0x80) {
		t.Fatal("block still present after invalidation")
	}
	if res := c.Invalidate(0x80); res.Present {
		t.Fatal("double invalidation reported present")
	}
	// Invalidating an unused prefetch flags overprediction.
	c.FillInto(&fill, 0x100, true)
	if res := c.Invalidate(0x100); !res.PrefetchedUnused {
		t.Fatal("unused prefetch invalidation not flagged")
	}
}

func TestFlushOccupancy(t *testing.T) {
	c := small()
	var res Result
	for i := 0; i < 10; i++ {
		c.AccessInto(&res, mem.Addr(i*64), false)
	}
	if got := c.Occupancy(); got != 10 {
		t.Fatalf("Occupancy = %d", got)
	}
	if got := c.Flush(); got != 10 {
		t.Fatalf("Flush = %d", got)
	}
	if c.Occupancy() != 0 {
		t.Fatal("not empty after flush")
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	// Evicted addresses must be exact block bases of previously inserted
	// addresses — the SMS generation tracker depends on this.
	c := MustNew(Config{Size: 4096, Assoc: 4, BlockSize: 128})
	inserted := map[mem.Addr]bool{}
	rng := rand.New(rand.NewSource(5))
	var res Result
	for i := 0; i < 10000; i++ {
		a := mem.Addr(rng.Uint64() % (1 << 30))
		inserted[c.BlockAddr(a)] = true
		c.AccessInto(&res, a, false)
		if res.Evicted {
			if !inserted[res.Victim.Addr] {
				t.Fatalf("victim %#x never inserted", uint64(res.Victim.Addr))
			}
			if res.Victim.Addr != c.BlockAddr(res.Victim.Addr) {
				t.Fatalf("victim %#x not block-aligned", uint64(res.Victim.Addr))
			}
		}
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := MustNew(Config{Size: 2048, Assoc: 2, BlockSize: 64})
		var res Result
		for _, a := range addrs {
			c.AccessInto(&res, mem.Addr(a), a%3 == 0)
		}
		return c.Occupancy() <= 2048/64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProbeDoesNotDisturbLRU(t *testing.T) {
	c := small()
	const stride = 64 * 8
	var res Result
	c.AccessInto(&res, 0, false)
	c.AccessInto(&res, stride, false)
	c.Probe(0) // must NOT refresh 0
	c.AccessInto(&res, 2*stride, false)
	if res.Victim.Addr != 0 {
		t.Fatalf("probe disturbed LRU: victim %#x", uint64(res.Victim.Addr))
	}
}

// TestProbeVictimMatchesFill checks that the way ProbeVictim picks is
// the one FillInto's general victim scan would pick: two caches driven by
// the same random demand accesses and invalidations take every stream
// fill either as ProbeVictim+FillAtWayInto or as one FillInto, and must
// stay identical. Two ways exercise ProbeVictim's fast path, four its
// general loop.
func TestProbeVictimMatchesFill(t *testing.T) {
	for _, assoc := range []int{2, 4} {
		cfg := Config{Size: 64 * 8 * assoc, Assoc: assoc, BlockSize: 64} // 8 sets
		split, whole := MustNew(cfg), MustNew(cfg)
		rng := rand.New(rand.NewSource(int64(assoc)))
		var got, want Result
		for op := 0; op < 20_000; op++ {
			a := mem.Addr(rng.Intn(64)) * 64
			switch rng.Intn(4) {
			case 0:
				if hit, way := split.ProbeVictim(a); hit {
					got = Result{Hit: true}
				} else {
					split.FillAtWayInto(&got, a, way, true)
				}
				if whole.FillInto(&want, a, true); got != want {
					t.Fatalf("assoc %d op %d: ProbeVictim+FillAtWayInto(%#x) = %+v, FillInto = %+v", assoc, op, uint64(a), got, want)
				}
			case 1:
				split.Invalidate(a)
				whole.Invalidate(a)
			default:
				write := rng.Intn(3) == 0
				split.AccessInto(&got, a, write)
				if whole.AccessInto(&want, a, write); got != want {
					t.Fatalf("assoc %d op %d: AccessInto(%#x) diverged: %+v vs %+v", assoc, op, uint64(a), got, want)
				}
			}
		}
	}
}

func TestLargeBlockGeometry(t *testing.T) {
	// Fig. 4's largest configuration: 8 kB blocks.
	c := MustNew(Config{Size: 64 << 10, Assoc: 2, BlockSize: 8192})
	var res Result
	if c.AccessInto(&res, 0x0, false); res.Hit {
		t.Fatal("cold hit")
	}
	// Anywhere within the same 8 kB block hits.
	if c.AccessInto(&res, 0x1fff, false); !res.Hit {
		t.Fatal("same 8kB block missed")
	}
	if c.AccessInto(&res, 0x2000, false); res.Hit {
		t.Fatal("next 8kB block hit")
	}
}

func TestPrefetchOffChipSourceFlag(t *testing.T) {
	c := small()
	var res Result
	c.FillInto(&res, 0x2000, true)
	if c.AccessInto(&res, 0x2000, false); !res.PrefetchHit || !res.PrefetchOffChip {
		t.Fatalf("off-chip prefetch hit misflagged: %+v", res)
	}
	c.FillInto(&res, 0x3000, false)
	if c.AccessInto(&res, 0x3000, false); !res.PrefetchHit || res.PrefetchOffChip {
		t.Fatalf("on-chip prefetch hit misflagged: %+v", res)
	}
}

// TestIntoOverwritesResult pins the Into contract: one Result reused
// across a random mix of AccessInto, FillInto and FillAtWayInto calls,
// starting from a Result with every field set, must read exactly what a
// freshly zeroed Result reads after the same call on a twin cache — no
// field of an earlier outcome survives into a later one. Both the
// two-way fast path and the general set scan are covered.
func TestIntoOverwritesResult(t *testing.T) {
	for _, assoc := range []int{2, 4} {
		cfg := Config{Size: 2048, Assoc: assoc, BlockSize: 64}
		fresh, reused := MustNew(cfg), MustNew(cfg)
		res := Result{Hit: true, PrefetchHit: true, PrefetchOffChip: true, Evicted: true,
			Victim: Eviction{Addr: 0xdead40, Dirty: true, PrefetchedUnused: true}}
		rng := rand.New(rand.NewSource(int64(assoc)))
		for i := 0; i < 20_000; i++ {
			a := mem.Addr(rng.Intn(96) * 64)
			var want Result
			switch op := rng.Intn(4); op {
			case 0, 1:
				write := op == 1
				fresh.AccessInto(&want, a, write)
				reused.AccessInto(&res, a, write)
			case 2:
				offChip := rng.Intn(2) == 0
				fresh.FillInto(&want, a, offChip)
				reused.FillInto(&res, a, offChip)
			default:
				hit, way := fresh.ProbeVictim(a)
				if hit != reused.Probe(a) {
					t.Fatalf("assoc %d, op %d: twins disagree on presence of %#x", assoc, i, a)
				}
				if hit {
					continue
				}
				fresh.FillAtWayInto(&want, a, way, true)
				reused.FillAtWayInto(&res, a, way, true)
			}
			if res != want {
				t.Fatalf("assoc %d, op %d at %#x: reused Result read %+v, fresh %+v", assoc, i, a, res, want)
			}
		}
	}
}

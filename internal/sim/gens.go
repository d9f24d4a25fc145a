package sim

import (
	"math/bits"

	"repro/internal/mem"
	"repro/internal/stats"
)

// genTracker follows spatial region generations at one cache level for one
// CPU, with unbounded state — it is the measurement instrument behind the
// Fig. 4 oracle opportunity study and the Fig. 5 density breakdown, not a
// hardware structure.
//
// Live generations are kept in an open-addressed, linear-probing table
// with inline entries. The previous map[uint64]*genState heap-allocated
// a fresh genState for every generation; regions retire and restart
// constantly, so that was an allocation on the steady-state hot path.
// Here retirement uses backward-shift deletion: the vacated slot is
// immediately reusable by the next generation, which is what keeps the
// table allocation-free once it has grown to the peak live-region count.
type genTracker struct {
	geo   mem.Geometry
	width int // blocks per region, fixed pattern width

	// The table is struct-of-arrays: keys holds each slot's region tag
	// plus one (0 = empty), so a probe walks eight keys per cache line
	// and touches a slot's state only once it has found the region.
	keys []uint64
	gens []genState
	mask uint64
	n    int // live generations
	grow int // insert threshold (load factor 0.75)
	// last is the slot access found last. A tracker serves one CPU's
	// cache level, whose consecutive accesses mostly stay in one region
	// (86% on the dss-q1 scan), so access tries it before probing; a
	// slot holds at most one region, so a matching key needs no other
	// validation however the table changed since.
	last uint64
}

type genState struct {
	accessed mem.Pattern // blocks touched during the generation
	missed   mem.Pattern // blocks that missed after warm-up
}

// genInitialSlots sizes the empty table; it must be a power of two.
const genInitialSlots = 1024

func newGenTracker(geo mem.Geometry) *genTracker {
	return &genTracker{
		geo:   geo,
		width: geo.BlocksPerRegion(),
		keys:  make([]uint64, genInitialSlots),
		gens:  make([]genState, genInitialSlots),
		mask:  genInitialSlots - 1,
		grow:  genInitialSlots * 3 / 4,
	}
}

// newDensityHistogram builds the Fig. 5 bucket layout: 1, 2-3, 4-7, 8-15,
// 16-23, 24-31, 32 blocks.
func newDensityHistogram() *stats.Histogram {
	return stats.MustHistogram(1, 3, 7, 15, 23, 31)
}

// genHash spreads region tags (sequential for scans) over the table.
func genHash(tag uint64) uint64 { return mem.HashKey(tag) }

// find returns the slot index holding tag, or the first empty slot in its
// probe chain if absent.
func (t *genTracker) find(tag uint64) uint64 {
	i := genHash(tag) & t.mask
	for {
		if k := t.keys[i]; k == 0 || k == tag+1 {
			return i
		}
		i = (i + 1) & t.mask
	}
}

// access records a reference to the region; miss marks whether it missed
// at this level.
func (t *genTracker) access(a mem.Addr, miss, warm bool) {
	if t.n >= t.grow {
		t.rehash(len(t.keys) * 2)
	}
	tag := t.geo.RegionTag(a)
	i := t.last
	if t.keys[i] != tag+1 {
		i = t.find(tag)
		t.last = i
	}
	g := &t.gens[i]
	if t.keys[i] == 0 {
		t.keys[i] = tag + 1
		*g = genState{
			accessed: mem.NewPattern(t.width),
			missed:   mem.NewPattern(t.width),
		}
		t.n++
	}
	off := t.geo.RegionOffset(a)
	g.accessed.Set(off)
	if miss && warm {
		// Only post-warm-up misses are scored, so a generation spanning
		// the warm-up boundary contributes only its measured misses.
		g.missed.Set(off)
	}
}

// remove observes the eviction/invalidation of a block; if the block was
// accessed during the live generation, the generation ends and is scored.
func (t *genTracker) remove(a mem.Addr, warm bool, density *stats.Histogram, oracle *uint64) {
	tag := t.geo.RegionTag(a)
	i := t.find(tag)
	if t.keys[i] == 0 {
		return
	}
	g := &t.gens[i]
	if !g.accessed.Test(t.geo.RegionOffset(a)) {
		return
	}
	t.score(g, warm, density, oracle)
	t.deleteAt(i)
}

// deleteAt vacates slot i with backward-shift deletion, keeping every
// probe chain gap-free so no tombstones accumulate.
func (t *genTracker) deleteAt(i uint64) {
	t.n--
	mask := t.mask
	for {
		t.keys[i] = 0
		j := i
		for {
			j = (j + 1) & mask
			k := t.keys[j]
			if k == 0 {
				return
			}
			home := genHash(k-1) & mask
			// Slot j may move into the vacated slot only if its home
			// position precedes (or is) the vacancy along the probe chain.
			if (j-home)&mask >= (j-i)&mask {
				t.keys[i] = k
				t.gens[i] = t.gens[j]
				i = j
				break
			}
		}
	}
}

// flush ends all live generations at trace end.
func (t *genTracker) flush(density *stats.Histogram, oracle *uint64) {
	for i, k := range t.keys {
		if k == 0 {
			continue
		}
		t.keys[i] = 0
		t.score(&t.gens[i], true, density, oracle)
	}
	t.n = 0
}

// live returns the number of open generations (exposed for tests).
func (t *genTracker) live() int { return t.n }

func (t *genTracker) rehash(newSize int) {
	if newSize&(newSize-1) != 0 {
		newSize = 1 << bits.Len(uint(newSize))
	}
	oldKeys, oldGens := t.keys, t.gens
	t.keys = make([]uint64, newSize)
	t.gens = make([]genState, newSize)
	t.mask = uint64(newSize - 1)
	t.grow = newSize * 3 / 4
	for oi, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := genHash(k-1) & t.mask
		for t.keys[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.keys[i] = k
		t.gens[i] = oldGens[oi]
	}
}

// score accounts a finished generation: the oracle incurs one miss per
// generation with at least one (post-warm-up) miss, and the density
// histogram attributes the generation's misses to its density bucket.
func (t *genTracker) score(g *genState, warm bool, density *stats.Histogram, oracle *uint64) {
	if !warm {
		return
	}
	n := uint64(g.missed.PopCount())
	if n == 0 {
		return
	}
	density.Observe(n, n)
	*oracle++
}

package core

import (
	"fmt"

	"repro/internal/mem"
)

// The Active Generation Table (§3.1) records spatial patterns as the
// processor accesses spatial regions. It is logically one table; the
// paper builds it as two content-addressable memories — the *filter
// table* for regions whose current generation has seen only a single
// access (a significant minority of generations never see a second
// block, and predicting them buys nothing), and the *accumulation table*
// for regions with at least two distinct blocks accessed, recording the
// pattern bit vector.
//
// The model keeps the logical single table: one region-tag index over
// one entry pool, each entry marked as a filter or an accumulating
// generation. The two kinds keep the paper's separate capacities and
// separate LRU clocks, so the victim each kind gives up is exactly the
// one its own CAM would choose; a generation moves from filter to
// accumulation in place, without leaving the index. A region is in at
// most one kind, so every access or block removal costs one index probe
// (two only when an insert grows the index).

// trigger identifies the access that began a generation.
type trigger struct {
	pc     uint64
	offset int      // spatial region offset of the trigger access
	addr   mem.Addr // trigger block address (for address-bearing indices)
}

// agtEntry is one active generation.
type agtEntry struct {
	tag     uint64 // spatial region tag
	trig    trigger
	pattern mem.Pattern // accumulating generations only
	slot    int32       // the index slot that points here
	accum   bool        // accumulating (two or more blocks), else filter
}

// agtSlot is one index slot: key is the region tag plus one (0 marks an
// empty slot; tags are addresses shifted right, so +1 cannot wrap).
type agtSlot struct {
	key uint64
	pos int32
}

// Stamps order each kind's entries by recency. An accumulating entry's
// stamp carries accumStamp; a free pool position holds freeStamp. XORing
// with a kind's bit therefore maps that kind's stamps to its clock
// values and every other position above them, so one minimum over the
// stamp array finds the kind's least recently used entry. Each clock is
// unique per stamp, so the minimum never depends on pool order.
const (
	accumStamp uint64 = 1 << 63
	freeStamp  uint64 = ^uint64(0)
)

// activeGenerationTable holds the active spatial region generations.
type activeGenerationTable struct {
	// Tag index: open addressing, linear probing, load at most
	// 1/agtLoad. Probes are SMS's hottest memory operation and most of
	// them miss, so the index is kept sparse enough that a probe nearly
	// always ends at its first slot.
	slots []agtSlot
	mask  uint64
	used  int
	grow  int

	pool   []agtEntry
	stamps []uint64 // parallel to pool
	free   []int32  // released pool positions

	filterCap, accumCap     int // 0 = unbounded
	filters, accums         int
	filterClock, accumClock uint64
}

// agtInitialSlots sizes the empty index; it must be a power of two.
// The index doubles whenever it would pass one entry per agtLoad slots
// (the paper's 32 + 64 entries end up in 1024 slots, 16 KiB).
const (
	agtInitialSlots = 128
	agtLoad         = 8
)

// newActiveGenerationTable builds an AGT with the given filter and
// accumulation capacities (paper: 32 and 64, §4.5). A capacity <= 0
// makes that kind unbounded (for limit studies).
func newActiveGenerationTable(filterCap, accumCap int) *activeGenerationTable {
	return &activeGenerationTable{
		slots:     make([]agtSlot, agtInitialSlots),
		mask:      agtInitialSlots - 1,
		grow:      agtInitialSlots / agtLoad,
		filterCap: max(filterCap, 0),
		accumCap:  max(accumCap, 0),
	}
}

// Len returns the number of filter and accumulating entries.
func (t *activeGenerationTable) Len() (filter, accum int) { return t.filters, t.accums }

func agtHash(tag uint64) uint64 { return mem.HashKey(tag) }

// find probes the index for tag. On a hit it returns the entry's pool
// position and its slot; on a miss, pos is -1 and slot is the empty slot
// an insert of tag takes.
func (t *activeGenerationTable) find(tag uint64) (slot uint64, pos int32) {
	k := tag + 1
	for i := agtHash(tag) & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.key == k {
			return i, s.pos
		}
		if s.key == 0 {
			return i, -1
		}
	}
}

// at returns the entry at a pool position find reported.
func (t *activeGenerationTable) at(pos int32) *agtEntry { return &t.pool[pos] }

// insert starts a generation for tag in a new entry of the given kind
// (a filter entry on a trigger access; an accumulating one when the
// filter is disabled) and returns it for the caller to fill in. slot
// must come from a missing find(tag) with no table change since. If the
// kind is full, its LRU entry is removed and returned as victim.
// Removed entries stay readable until the next insert.
func (t *activeGenerationTable) insert(slot uint64, tag uint64, accum bool) (e, victim *agtEntry) {
	vp := int32(-1)
	if t.full(accum) {
		vp = t.lru(accum)
	} else if t.used >= t.grow {
		t.rehash()
		slot, _ = t.find(tag)
	}
	pos := t.alloc()
	t.slots[slot] = agtSlot{key: tag + 1, pos: pos}
	t.used++
	e = &t.pool[pos]
	e.tag, e.slot, e.accum = tag, int32(slot), accum
	if accum {
		t.accums++
	} else {
		t.filters++
	}
	t.stamp(pos, accum)
	if vp >= 0 {
		// Remove the victim only now: unlinking it first could open a
		// hole earlier on tag's probe sequence than slot.
		victim = &t.pool[vp]
		t.unlink(uint64(victim.slot))
		t.release(vp)
	}
	return e, victim
}

// promote turns the filter entry at pos into an accumulating generation
// with pattern p, in place. If the accumulation kind is full, its LRU
// entry is removed and returned (its pattern is the caller's to learn).
func (t *activeGenerationTable) promote(pos int32, p mem.Pattern) (victim *agtEntry) {
	if t.full(true) {
		vp := t.lru(true)
		victim = &t.pool[vp]
		t.unlink(uint64(victim.slot))
		t.release(vp)
	}
	t.filters--
	t.accums++
	e := &t.pool[pos]
	e.accum = true
	e.pattern = p
	t.stamp(pos, true)
	return victim
}

// touch refreshes the LRU stamp of the accumulating entry at pos.
func (t *activeGenerationTable) touch(pos int32) { t.stamp(pos, true) }

// remove ends the generation at pos, found at slot. The entry stays
// readable until the next insert.
func (t *activeGenerationTable) remove(slot uint64, pos int32) {
	t.unlink(slot)
	t.release(pos)
}

func (t *activeGenerationTable) full(accum bool) bool {
	if accum {
		return t.accumCap > 0 && t.accums >= t.accumCap
	}
	return t.filterCap > 0 && t.filters >= t.filterCap
}

func (t *activeGenerationTable) stamp(pos int32, accum bool) {
	if accum {
		t.accumClock++
		t.stamps[pos] = t.accumClock | accumStamp
		return
	}
	t.filterClock++
	t.stamps[pos] = t.filterClock
}

// lru returns the pool position of the kind's least recently used entry.
// The kind must hold at least one entry.
func (t *activeGenerationTable) lru(accum bool) int32 {
	var kind uint64
	if accum {
		kind = accumStamp
	}
	best, bi := freeStamp, 0
	for i, s := range t.stamps {
		if v := s ^ kind; v < best {
			best, bi = v, i
		}
	}
	return int32(bi)
}

// alloc returns a free pool position.
func (t *activeGenerationTable) alloc() int32 {
	if n := len(t.free); n > 0 {
		pos := t.free[n-1]
		t.free = t.free[:n-1]
		return pos
	}
	t.pool = append(t.pool, agtEntry{})
	t.stamps = append(t.stamps, freeStamp)
	return int32(len(t.pool) - 1)
}

// release frees the pool position of an entry whose slot is already
// unlinked, and uncounts its kind. The entry itself is left as it was.
func (t *activeGenerationTable) release(pos int32) {
	if t.pool[pos].accum {
		t.accums--
	} else {
		t.filters--
	}
	t.stamps[pos] = freeStamp
	t.free = append(t.free, pos)
}

// unlink empties index slot i by backward-shift deletion (no
// tombstones), keeping the moved entries' slot back-pointers current.
func (t *activeGenerationTable) unlink(i uint64) {
	t.used--
	for {
		t.slots[i].key = 0
		j := i
		for {
			j = (j + 1) & t.mask
			s := t.slots[j]
			if s.key == 0 {
				return
			}
			home := agtHash(s.key-1) & t.mask
			if (j-home)&t.mask >= (j-i)&t.mask {
				t.slots[i] = s
				t.pool[s.pos].slot = int32(i)
				i = j
				break
			}
		}
	}
}

// rehash doubles the index.
func (t *activeGenerationTable) rehash() {
	old := t.slots
	t.slots = make([]agtSlot, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	t.grow = len(t.slots) / agtLoad
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := agtHash(s.key-1) & t.mask
		for t.slots[i].key != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
		t.pool[s.pos].slot = int32(i)
	}
}

// String summarizes occupancy for debugging.
func (t *activeGenerationTable) String() string {
	return fmt.Sprintf("agt{filter %d/%d accum %d/%d}", t.filters, t.filterCap, t.accums, t.accumCap)
}

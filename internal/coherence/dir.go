package coherence

import (
	"math/bits"

	"repro/internal/mem"
)

// dirTable is the coherence directory, paged by spatial region the way
// the workloads' accesses cluster. Each coherence unit keeps two masks,
// its sharers and its CPUs with an outstanding invalidation, each in a
// lane of the run's CPU count rounded up to a power of two bits (at
// least 4). A full-map directory costs one presence bit per CPU per
// unit, and so does this one, to the lane. A page is dirPageWords 64-bit
// words of lane pairs for consecutive units (block number >> unitBits):
// 64 units at up to 4 CPUs, a byte each, down to 4 units at 33–64 CPUs,
// which keep two full 64-bit masks. A small open-addressed,
// linear-probing index maps page numbers to page ordinals. A scan
// therefore hits one index slot for a whole page and walks adjacent
// lanes in between; hashing each unit to its own slot would send
// neighbours to unrelated slots and miss the host cache on nearly every
// record of a large-footprint scan.
//
// Pages come from fixed-size slabs that are never moved or freed, so
// growth rehashes only the index and never copies a page. Units are
// never retired (a unit's sharer history stays relevant for
// false-sharing classification), so steady state performs zero
// allocations.
//
// A unit is in the directory once it has a sharer: every System
// operation that reaches a unit makes its CPU a sharer, and a write
// leaves the writer one, so no separate presence bit is kept.
//
// Units wider than 64 B also keep the set of 64 B sub-units written
// since their oldest outstanding invalidation: subWords words each, page
// by page in written. A 64-B unit keeps none (see subWritten).
type dirTable struct {
	slots []dirSlot
	mask  uint64
	grow  int        // page-insert threshold (load factor 1/2)
	slabs []*dirSlab // every page, by ordinal
	pages int        // pages handed out

	// Lane geometry, fixed per table. Shift counts are masked with 63
	// where they are used, which spares every shift a range check.
	lane     uint   // lane width in bits
	laneMask uint64 // one lane of ones
	pairMask uint64 // two lanes of ones, for lanes under 64 bits
	pairBits uint   // log2 of the bits of a unit's lane pair
	unitBits uint   // log2 of the units a page covers
	unitMask uint64 // a unit's index in its page, from its block number

	subWords int      // words in a unit's written-sub-unit set, 0 at 64 B
	written  []uint64 // written-sub-unit sets, page by page
}

// dirSlot is one index slot: key is the page number plus one (0 marks
// an empty slot; page numbers are addresses shifted right, so +1 cannot
// wrap) and page the page's ordinal.
type dirSlot struct {
	key  uint64
	page int
}

// A page is one 64-byte host cache line of lanes: 2^dirPageBits bits.
const (
	dirPageWords = 8
	dirPageBits  = 9
)

type dirPage [dirPageWords]uint64

// A slab is 512 pages, the largest small-object size class (32 KiB), so
// slabs waste nothing and a page's slab is its ordinal's high bits.
const (
	dirSlabBits  = 9
	dirSlabPages = 1 << dirSlabBits
)

type dirSlab [dirSlabPages]dirPage

// dirRef names one unit: its page, the page's ordinal and the bit
// offset of its lane pair in the page. It stays valid for the table's
// lifetime.
type dirRef struct {
	p    *dirPage
	page int
	off  uint
}

// dirInitialSlots sizes the empty index; it must be a power of two. 256
// slots hold 128 pages before the first rehash.
const dirInitialSlots = 256

// newDirTable returns an empty directory for cpus CPUs and units of
// subsPer 64 B sub-units.
func newDirTable(cpus, subsPer int) dirTable {
	laneBits := max(2, uint(bits.Len(uint(cpus-1))))
	t := dirTable{
		slots:    make([]dirSlot, dirInitialSlots),
		mask:     dirInitialSlots - 1,
		grow:     dirInitialSlots / 2,
		lane:     1 << laneBits,
		laneMask: 1<<(1<<laneBits) - 1,
		pairMask: 1<<(2<<laneBits) - 1,
		pairBits: laneBits + 1,
		unitBits: dirPageBits - 1 - laneBits,
		unitMask: 1<<(dirPageBits-1-laneBits) - 1,
	}
	if subsPer > 1 {
		t.subWords = (subsPer + 63) / 64
	}
	return t
}

// dirHash mixes the page number so that dense page sequences spread over
// the index.
func dirHash(pn uint64) uint64 { return mem.HashKey(pn) }

// lookup returns the ordinal of the page numbered pn, or -1 if absent.
func (t *dirTable) lookup(pn uint64) int {
	k := pn + 1
	for i := dirHash(pn) & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.key == k {
			return s.page
		}
		if s.key == 0 {
			return -1
		}
	}
}

// ref returns the reference to block number bn's unit on page pg.
func (t *dirTable) ref(pg int, bn uint64) dirRef {
	return dirRef{
		p:    &t.slabs[uint(pg)>>dirSlabBits][pg&(dirSlabPages-1)],
		page: pg,
		off:  uint(bn&t.unitMask) << (t.pairBits & 63),
	}
}

// getOrInsert returns the reference to block number bn's unit, whose
// masks are zero if it is new.
func (t *dirTable) getOrInsert(bn uint64) dirRef {
	pn := bn >> (t.unitBits & 63)
	pg := t.lookup(pn)
	if pg < 0 {
		pg = t.insert(pn)
	}
	return t.ref(pg, bn)
}

// insert adds a fresh page numbered pn, which must be absent, and returns
// its ordinal.
func (t *dirTable) insert(pn uint64) int {
	if t.pages >= t.grow {
		t.rehash()
	}
	pg := t.pages
	if pg&(dirSlabPages-1) == 0 {
		t.slabs = append(t.slabs, new(dirSlab))
	}
	if t.subWords > 0 {
		t.written = append(t.written, make([]uint64, t.subWords<<t.unitBits)...)
	}
	t.place(dirSlot{key: pn + 1, page: pg})
	t.pages++
	return pg
}

// place stores s in the first empty slot of its probe sequence.
func (t *dirTable) place(s dirSlot) {
	i := dirHash(s.key-1) & t.mask
	for t.slots[i].key != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = s
}

// rehash doubles the index. Slots hold page ordinals, so no page moves.
func (t *dirTable) rehash() {
	old := t.slots
	newSize := 2 * len(old)
	t.slots = make([]dirSlot, newSize)
	t.mask = uint64(newSize - 1)
	t.grow = newSize / 2
	for _, s := range old {
		if s.key != 0 {
			t.place(s)
		}
	}
}

// masks returns r's sharer and invalidation masks. Lanes under 64 bits
// share one word, so this is one load.
func (t *dirTable) masks(r dirRef) (sharers, invalidated uint64) {
	w := r.off >> 6 & (dirPageWords - 1)
	if t.lane == 64 {
		return r.p[w], r.p[(w|1)&(dirPageWords-1)]
	}
	x := r.p[w] >> (r.off & 63)
	return x & t.laneMask, x >> (t.lane & 63) & t.laneMask
}

// setMasks stores r's sharer and invalidation masks, which must fit the
// lane.
func (t *dirTable) setMasks(r dirRef, sharers, invalidated uint64) {
	w := r.off >> 6 & (dirPageWords - 1)
	if t.lane == 64 {
		r.p[w], r.p[(w|1)&(dirPageWords-1)] = sharers, invalidated
		return
	}
	sh := r.off & 63
	r.p[w] = r.p[w]&^(t.pairMask<<sh) | (sharers|invalidated<<(t.lane&63))<<sh
}

// writtenAt returns the index in written of the word of r's set that
// holds sub-unit sub.
func (t *dirTable) writtenAt(r dirRef, sub uint) int {
	u := int(r.off >> (t.pairBits & 63))
	return (r.page<<(t.unitBits&63)+u)*t.subWords + int(sub>>6)
}

// subWritten reports whether sub-unit sub of r's unit was written since
// the unit's oldest outstanding invalidation; only a unit with one is
// asked. A 64-B unit needs no set: the write that set its invalidation
// bits marked its only sub-unit, and the set empties only when the last
// bit clears.
func (t *dirTable) subWritten(r dirRef, sub uint) bool {
	return t.subWords == 0 || t.written[t.writtenAt(r, sub)]&(1<<(sub&63)) != 0
}

// markWritten records a write to sub-unit sub of r's unit.
func (t *dirTable) markWritten(r dirRef, sub uint) {
	if t.subWords > 0 {
		t.written[t.writtenAt(r, sub)] |= 1 << (sub & 63)
	}
}

// reacquire clears bit, a CPU that holds r's unit again, from
// invalidation mask inval and returns the result. When no invalidation
// is left outstanding it empties the unit's written-sub-unit set.
func (t *dirTable) reacquire(r dirRef, inval, bit uint64) uint64 {
	inval &^= bit
	if inval == 0 && t.subWords > 0 {
		i := t.writtenAt(r, 0)
		clear(t.written[i : i+t.subWords])
	}
	return inval
}

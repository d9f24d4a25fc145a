package coherence

import (
	"unsafe"

	"repro/internal/mem"
)

// dirTable is the coherence directory, paged by spatial region the way
// the workloads' accesses cluster. A page covers dirPageUnits consecutive
// coherence units (block number >> dirPageBits) and holds their entries
// inline; a small open-addressed, linear-probing index maps page numbers
// to pages. A scan therefore hits one index slot for a whole page and
// walks adjacent entries in between; hashing each unit to its own slot
// would send neighbours to unrelated slots and miss the host cache on
// nearly every record of a large-footprint scan.
//
// Pages come from fixed-size slabs that are never moved or freed, so
// growth rehashes only the index (one slot per page) and never copies
// an entry, and entry pointers stay valid for the table's lifetime.
// Entries are never retired (a unit's sharer history stays relevant for
// false-sharing classification), so steady state performs zero
// allocations.
//
// Each page records which of its units getOrInsert has returned: get
// reports nil for the others, and len counts only those, exactly as if
// every unit had its own slot.
type dirTable struct {
	slots []dirSlot
	mask  uint64
	pages int       // occupied slots
	grow  int       // page-insert threshold (load factor 1/2)
	free  []dirPage // the current slab's unused pages
	n     int       // touched units
}

// dirSlot is one index slot: key is the page number plus one (0 marks
// an empty slot; page numbers are addresses shifted right, so +1 cannot
// wrap).
type dirSlot struct {
	key  uint64
	page *dirPage
}

// A page is 32 coherence units: at 64 B units, one 2 kB spatial region,
// the region size SMS predicts over.
const (
	dirPageBits  = 5
	dirPageUnits = 1 << dirPageBits
)

type dirPage struct {
	ents    [dirPageUnits]dirEntry
	touched uint32 // bit u: getOrInsert has returned ents[u]
}

// dirSlabPages pages fill one slab: as many as fit the largest small-
// object size class (32 KiB), so a slab wastes under one page.
const dirSlabPages = 32 << 10 / unsafe.Sizeof(dirPage{})

// dirInitialSlots sizes the empty index; it must be a power of two. 256
// slots hold 128 pages (a 256 kB footprint of 64 B units) before the
// first rehash.
const dirInitialSlots = 256

func newDirTable() dirTable {
	return dirTable{
		slots: make([]dirSlot, dirInitialSlots),
		mask:  dirInitialSlots - 1,
		grow:  dirInitialSlots / 2,
	}
}

// dirHash mixes the page number so that dense page sequences spread over
// the index.
func dirHash(pn uint64) uint64 { return mem.HashKey(pn) }

// lookup returns the page numbered pn, or nil if absent.
func (t *dirTable) lookup(pn uint64) *dirPage {
	k := pn + 1
	for i := dirHash(pn) & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.key == k {
			return s.page
		}
		if s.key == 0 {
			return nil
		}
	}
}

// get returns the entry for block number bn, or nil if getOrInsert has
// never returned it.
func (t *dirTable) get(bn uint64) *dirEntry {
	p := t.lookup(bn >> dirPageBits)
	u := bn & (dirPageUnits - 1)
	if p == nil || p.touched&(1<<u) == 0 {
		return nil
	}
	return &p.ents[u]
}

// getOrInsert returns the entry for block number bn, zero if it is new.
// The pointer stays valid for the table's lifetime.
func (t *dirTable) getOrInsert(bn uint64) *dirEntry {
	pn := bn >> dirPageBits
	p := t.lookup(pn)
	if p == nil {
		p = t.insert(pn)
	}
	u := bn & (dirPageUnits - 1)
	if p.touched&(1<<u) == 0 {
		p.touched |= 1 << u
		t.n++
	}
	return &p.ents[u]
}

// insert adds a fresh page numbered pn, which must be absent.
func (t *dirTable) insert(pn uint64) *dirPage {
	if t.pages >= t.grow {
		t.rehash()
	}
	if len(t.free) == 0 {
		t.free = make([]dirPage, dirSlabPages)
	}
	p := &t.free[0]
	t.free = t.free[1:]
	t.place(dirSlot{key: pn + 1, page: p})
	t.pages++
	return p
}

// place stores s in the first empty slot of its probe sequence.
func (t *dirTable) place(s dirSlot) {
	i := dirHash(s.key-1) & t.mask
	for t.slots[i].key != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = s
}

// len returns the number of touched units.
func (t *dirTable) len() int { return t.n }

// rehash doubles the index. Slots hold page pointers, so no entry moves.
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

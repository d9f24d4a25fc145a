package core

// Differential test: the single-index AGT against a copy of the
// two-table AGT it replaced (a filter CAM and an accumulation CAM, each
// with its own entry array and its own tag index) and of the SMS
// training logic that drove them. Random access and block-removal
// streams must leave both engines with identical core.Stats, occupancy,
// stream requests and PHT state after every operation. Each operation
// inserts into the PHT at most once, and the bounded PHT stamps the way
// it writes, so equal PHT state after every operation means an equal
// sequence of PHT inserts.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// The two-table AGT, as it was.

type legacyTagIndex struct {
	slots []legacyTagIdxSlot
	mask  uint64
	n     int
	grow  int
}

type legacyTagIdxSlot struct {
	key  uint64
	pos  int32
	used bool
}

func newLegacyTagIndex() legacyTagIndex {
	const initial = 128 // power of two; grows for unbounded limit studies
	return legacyTagIndex{
		slots: make([]legacyTagIdxSlot, initial),
		mask:  initial - 1,
		grow:  initial * 3 / 4,
	}
}

func legacyTagHash(key uint64) uint64 { return mem.HashKey(key) }

// get returns the entry position for key, or -1.
func (t *legacyTagIndex) get(key uint64) int32 {
	i := legacyTagHash(key) & t.mask
	for {
		s := &t.slots[i]
		if !s.used {
			return -1
		}
		if s.key == key {
			return s.pos
		}
		i = (i + 1) & t.mask
	}
}

// put inserts or repositions key.
func (t *legacyTagIndex) put(key uint64, pos int32) {
	if t.n >= t.grow {
		t.rehash(len(t.slots) * 2)
	}
	i := legacyTagHash(key) & t.mask
	for {
		s := &t.slots[i]
		if !s.used {
			*s = legacyTagIdxSlot{key: key, pos: pos, used: true}
			t.n++
			return
		}
		if s.key == key {
			s.pos = pos
			return
		}
		i = (i + 1) & t.mask
	}
}

// del removes key with backward-shift deletion (no tombstones).
func (t *legacyTagIndex) del(key uint64) {
	i := legacyTagHash(key) & t.mask
	for {
		s := &t.slots[i]
		if !s.used {
			return
		}
		if s.key == key {
			break
		}
		i = (i + 1) & t.mask
	}
	t.n--
	mask := t.mask
	for {
		t.slots[i].used = false
		j := i
		for {
			j = (j + 1) & mask
			s := &t.slots[j]
			if !s.used {
				return
			}
			home := legacyTagHash(s.key) & mask
			if (j-home)&mask >= (j-i)&mask {
				t.slots[i] = *s
				i = j
				break
			}
		}
	}
}

func (t *legacyTagIndex) rehash(newSize int) {
	old := t.slots
	t.slots = make([]legacyTagIdxSlot, newSize)
	t.mask = uint64(newSize - 1)
	t.grow = newSize * 3 / 4
	for oi := range old {
		if !old[oi].used {
			continue
		}
		i := legacyTagHash(old[oi].key) & t.mask
		for t.slots[i].used {
			i = (i + 1) & t.mask
		}
		t.slots[i] = old[oi]
	}
}

// legacyFilterEntry is one filter-table CAM entry.
type legacyFilterEntry struct {
	tag  uint64 // spatial region tag
	trig trigger
	lru  uint64
}

// legacyFilterTable is the small CAM holding single-access generations.
type legacyFilterTable struct {
	entries  []legacyFilterEntry
	idx      legacyTagIndex
	capacity int
	clock    uint64
}

// newLegacyFilterTable builds a filter table with the given entry count
// (paper: 32 suffices across all applications, §4.5). capacity <= 0 means
// unbounded (for limit studies).
func newLegacyFilterTable(capacity int) *legacyFilterTable {
	return &legacyFilterTable{capacity: capacity, idx: newLegacyTagIndex()}
}

// Len returns the current number of entries.
func (f *legacyFilterTable) Len() int { return len(f.entries) }

// lookup finds the entry for a region tag, or nil.
func (f *legacyFilterTable) lookup(tag uint64) *legacyFilterEntry {
	if i := f.idx.get(tag); i >= 0 {
		return &f.entries[i]
	}
	return nil
}

// insert allocates an entry for a new generation, returning the victim
// entry (dropped generation) if the table was full.
func (f *legacyFilterTable) insert(tag uint64, trig trigger) (victim legacyFilterEntry, evicted bool) {
	f.clock++
	if f.capacity > 0 && len(f.entries) >= f.capacity {
		vi := 0
		for i := range f.entries {
			if f.entries[i].lru < f.entries[vi].lru {
				vi = i
			}
		}
		victim, evicted = f.entries[vi], true
		f.entries[vi] = legacyFilterEntry{tag: tag, trig: trig, lru: f.clock}
		f.idx.del(victim.tag)
		f.idx.put(tag, int32(vi))
		return victim, evicted
	}
	f.entries = append(f.entries, legacyFilterEntry{tag: tag, trig: trig, lru: f.clock})
	f.idx.put(tag, int32(len(f.entries)-1))
	return legacyFilterEntry{}, false
}

// remove deletes the entry for tag, reporting whether it existed.
func (f *legacyFilterTable) remove(tag uint64) (legacyFilterEntry, bool) {
	i := f.idx.get(tag)
	if i < 0 {
		return legacyFilterEntry{}, false
	}
	e := f.entries[i]
	last := len(f.entries) - 1
	f.entries[i] = f.entries[last]
	f.entries = f.entries[:last]
	f.idx.del(tag)
	if int(i) != last {
		f.idx.put(f.entries[i].tag, i)
	}
	return e, true
}

// legacyAccumEntry is one accumulation-table CAM entry: an active generation
// with at least two accessed blocks.
type legacyAccumEntry struct {
	tag     uint64
	trig    trigger
	pattern mem.Pattern
	lru     uint64
}

// legacyAccumTable is the CAM recording patterns of active generations.
type legacyAccumTable struct {
	entries  []legacyAccumEntry
	idx      legacyTagIndex
	capacity int
	clock    uint64
}

// newLegacyAccumTable builds an accumulation table with the given entry
// count (paper: 64 suffices; only OLTP-Oracle needs more than 32, §4.5).
// capacity <= 0 means unbounded.
func newLegacyAccumTable(capacity int) *legacyAccumTable {
	return &legacyAccumTable{capacity: capacity, idx: newLegacyTagIndex()}
}

// Len returns the current number of entries.
func (a *legacyAccumTable) Len() int { return len(a.entries) }

func (a *legacyAccumTable) lookup(tag uint64) *legacyAccumEntry {
	if i := a.idx.get(tag); i >= 0 {
		return &a.entries[i]
	}
	return nil
}

// insert allocates an entry (transfer from the filter table), returning a
// displaced victim generation if the table was full. The victim's pattern
// must be transferred to the PHT by the caller ("the entry is ...
// transferred from the accumulation table to the pattern history table",
// §3.1).
func (a *legacyAccumTable) insert(e legacyAccumEntry) (victim legacyAccumEntry, evicted bool) {
	a.clock++
	e.lru = a.clock
	if a.capacity > 0 && len(a.entries) >= a.capacity {
		vi := 0
		for i := range a.entries {
			if a.entries[i].lru < a.entries[vi].lru {
				vi = i
			}
		}
		victim, evicted = a.entries[vi], true
		a.entries[vi] = e
		a.idx.del(victim.tag)
		a.idx.put(e.tag, int32(vi))
		return victim, evicted
	}
	a.entries = append(a.entries, e)
	a.idx.put(e.tag, int32(len(a.entries)-1))
	return legacyAccumEntry{}, false
}

func (a *legacyAccumTable) remove(tag uint64) (legacyAccumEntry, bool) {
	i := a.idx.get(tag)
	if i < 0 {
		return legacyAccumEntry{}, false
	}
	e := a.entries[i]
	last := len(a.entries) - 1
	a.entries[i] = a.entries[last]
	a.entries = a.entries[:last]
	a.idx.del(tag)
	if int(i) != last {
		a.idx.put(a.entries[i].tag, i)
	}
	return e, true
}

// touch refreshes LRU state for an entry on access.
func (a *legacyAccumTable) touch(e *legacyAccumEntry) {
	a.clock++
	e.lru = a.clock
}

// legacySMS is the SMS engine as it trained on the two-table AGT.
type legacySMS struct {
	cfg   Config
	geo   mem.Geometry
	width int

	filter    *legacyFilterTable
	accum     *legacyAccumTable
	pht       *PatternHistoryTable
	useFilter bool

	regs *RegisterFile

	stats Stats
}

func newLegacySMS(cfg Config) *legacySMS {
	useFilter := cfg.FilterEntries >= 0
	cfg = cfg.Canonical()
	filterCap := cfg.FilterEntries
	if !useFilter {
		filterCap = 0
	}
	return &legacySMS{
		cfg:       cfg,
		geo:       cfg.Geometry,
		width:     cfg.Geometry.BlocksPerRegion(),
		filter:    newLegacyFilterTable(filterCap),
		accum:     newLegacyAccumTable(cfg.AccumEntries),
		pht:       MustNewPHT(cfg.PHTEntries, cfg.PHTAssoc),
		useFilter: useFilter,
		regs:      NewRegisterFile(cfg.Geometry, cfg.PredictionRegisters),
	}
}

func (s *legacySMS) Stats() Stats {
	st := s.stats
	st.PHT = s.pht.Stats()
	st.StreamsIssued = s.regs.Issued()
	st.RegistersOverwritten = s.regs.Overwritten()
	return st
}

func (s *legacySMS) Access(pc uint64, addr mem.Addr) {
	s.stats.Accesses++
	tag := s.geo.RegionTag(addr)
	off := s.geo.RegionOffset(addr)

	if e := s.accum.lookup(tag); e != nil {
		e.pattern.Set(off)
		s.accum.touch(e)
		return
	}

	if s.useFilter {
		if fe := s.filter.lookup(tag); fe != nil {
			if fe.trig.offset == off {
				return
			}
			fe2, _ := s.filter.remove(tag)
			p := mem.NewPattern(s.width)
			p.Set(fe2.trig.offset)
			p.Set(off)
			s.insertAccum(legacyAccumEntry{tag: tag, trig: fe2.trig, pattern: p})
			return
		}
		s.beginGeneration(tag, trigger{pc: pc, offset: off, addr: addr})
		return
	}

	p := mem.NewPattern(s.width)
	p.Set(off)
	s.insertAccum(legacyAccumEntry{tag: tag, trig: trigger{pc: pc, offset: off, addr: addr}, pattern: p})
	s.predict(trigger{pc: pc, offset: off, addr: addr})
	s.stats.Triggers++
}

func (s *legacySMS) beginGeneration(tag uint64, trig trigger) {
	s.stats.Triggers++
	if _, evicted := s.filter.insert(tag, trig); evicted {
		s.stats.GenerationsEvictedFilter++
	}
	s.predict(trig)
}

func (s *legacySMS) insertAccum(e legacyAccumEntry) {
	if victim, evicted := s.accum.insert(e); evicted {
		s.stats.GenerationsEvictedAccum++
		s.learn(victim)
	}
}

func (s *legacySMS) predict(trig trigger) {
	key := indexKey(s.cfg.Index, s.geo, trig.pc, trig.addr)
	pattern, ok := s.pht.Lookup(key)
	if !ok || pattern.Width() != s.width {
		return
	}
	if s.cfg.RotatePatterns {
		pattern = pattern.Rotate(trig.offset)
	}
	p := pattern
	if p.Test(trig.offset) {
		p.Clear(trig.offset)
	}
	if p.Empty() {
		return
	}
	s.stats.Predictions++
	s.stats.PredictedBlocks += uint64(p.PopCount())
	s.regs.Arm(s.geo.RegionBase(trig.addr), p)
}

func (s *legacySMS) learn(e legacyAccumEntry) {
	key := indexKey(s.cfg.Index, s.geo, e.trig.pc, e.trig.addr)
	p := e.pattern
	if s.cfg.RotatePatterns {
		p = p.Rotate(-e.trig.offset)
	}
	s.pht.Insert(key, p)
	s.stats.PatternsLearned++
}

func (s *legacySMS) BlockRemoved(addr mem.Addr) {
	tag := s.geo.RegionTag(addr)
	off := s.geo.RegionOffset(addr)
	if e := s.accum.lookup(tag); e != nil {
		if !e.pattern.Test(off) {
			return
		}
		removed, _ := s.accum.remove(tag)
		s.stats.GenerationsEnded++
		s.learn(removed)
		return
	}
	if s.useFilter {
		if fe := s.filter.lookup(tag); fe != nil && fe.trig.offset == off {
			s.filter.remove(tag)
			s.stats.GenerationsEnded++
			s.stats.GenerationsDroppedFilter++
		}
	}
}

func TestAGTMatchesTwoTableAGT(t *testing.T) {
	geo := mem.MustGeometry(64, 512) // 8 blocks per region
	configs := []Config{
		{FilterEntries: 3, AccumEntries: 4, PHTEntries: 32, PHTAssoc: 4},  // both kinds evict, small PHT
		{FilterEntries: 2, AccumEntries: 8, PHTEntries: 64, PHTAssoc: 4},  // filter-bound
		{FilterEntries: 8, AccumEntries: 2, PHTEntries: -1},               // accumulation-bound
		{FilterEntries: -1, AccumEntries: 4, PHTEntries: 32, PHTAssoc: 4}, // filter disabled
		{FilterEntries: -1, AccumEntries: -1, PHTEntries: -1},             // filter disabled, unbounded
		{FilterEntries: 4, AccumEntries: -1, PHTEntries: 64, PHTAssoc: 4}, // unbounded accumulation
		{FilterEntries: 4, AccumEntries: 6, PHTEntries: 32, PHTAssoc: 4, RotatePatterns: true, Index: IndexPC},
		{Index: IndexPCAddress, PHTEntries: 64, PHTAssoc: 4, PredictionRegisters: 2}, // paper sizes
	}
	for ci, cfg := range configs {
		cfg.Geometry = geo
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ci) + 1))
			got, want := MustNew(cfg), newLegacySMS(cfg)
			pcs := []uint64{0x400100, 0x400200, 0x400300, 0x400400}
			// More regions than any bounded kind holds, reused often
			// enough that generations span evictions.
			regions := 12 + rng.Intn(100)
			addr := func() mem.Addr {
				return mem.Addr(0x100000 + rng.Intn(regions)*512 + rng.Intn(8)*64)
			}
			for op := 0; op < 20_000; op++ {
				switch r := rng.Intn(10); {
				case r < 6:
					pc, a := pcs[rng.Intn(len(pcs))], addr()
					got.Access(pc, a)
					want.Access(pc, a)
				case r < 9:
					a := addr()
					got.BlockRemoved(a)
					want.BlockRemoved(a)
				default:
					n := 1 + rng.Intn(4)
					if g, w := got.NextStreamRequests(n), want.regs.Next(n); !reflect.DeepEqual(g, w) {
						t.Fatalf("op %d: streams %v, want %v", op, g, w)
					}
				}
				if g, w := got.Stats(), want.Stats(); g != w {
					t.Fatalf("op %d: stats\n got %+v\nwant %+v", op, g, w)
				}
				gf, ga := got.AGTOccupancy()
				if gf != want.filter.Len() || ga != want.accum.Len() {
					t.Fatalf("op %d: occupancy %d/%d, want %d/%d", op, gf, ga, want.filter.Len(), want.accum.Len())
				}
				if !reflect.DeepEqual(got.pht, want.pht) {
					t.Fatalf("op %d: PHT state diverged", op)
				}
			}
			st := got.Stats()
			if st.PatternsLearned == 0 || st.GenerationsEnded == 0 {
				t.Fatalf("stream exercised too little: %+v", st)
			}
			if cfg.FilterEntries > 0 && st.GenerationsEvictedFilter == 0 {
				t.Errorf("filter never evicted: %+v", st)
			}
			if cfg.AccumEntries > 0 && st.GenerationsEvictedAccum == 0 {
				t.Errorf("accumulation never evicted: %+v", st)
			}
		})
	}
}

package core

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// PatternHistoryTable (§3.2) is the long-term store of spatial patterns,
// organized as a set-associative structure similar to a cache, accessed
// with the prediction index built from the trigger access. A zero entry
// count selects an unbounded table for the paper's infinite-PHT limit
// studies (Figs. 6, 8, 10).
//
// The bounded table stores ways struct-of-arrays (packed tag words,
// LRU stamps, patterns in parallel slices, indexed set*assoc+way) so the
// per-trigger set scan walks eight bytes per way instead of a 48-byte
// entry. A way is valid iff its LRU stamp is nonzero — stamps are taken
// from a counter that is pre-incremented before every install, so a live
// way can never hold stamp 0, and keys may span the full 64-bit range.
type PatternHistoryTable struct {
	entries int
	assoc   int
	setBits uint

	// Bounded mode, indexed by set*assoc+way.
	tags []uint64
	lrus []uint64 // 0 = invalid way
	pats []mem.Pattern

	inf map[uint64]mem.Pattern // unbounded mode

	clock uint64

	lookups, hits, inserts, replacements uint64
}

// NewPHT builds a pattern history table. entries <= 0 (the canonical
// config spells it -1) selects the unbounded table; otherwise entries
// must be a multiple of assoc with a power-of-two set count (paper
// default: 16k entries, 16-way).
func NewPHT(entries, assoc int) (*PatternHistoryTable, error) {
	if entries <= 0 {
		return &PatternHistoryTable{inf: make(map[uint64]mem.Pattern)}, nil
	}
	if assoc <= 0 {
		return nil, fmt.Errorf("core: PHT associativity %d not positive", assoc)
	}
	if entries%assoc != 0 {
		return nil, fmt.Errorf("core: PHT entries %d not a multiple of assoc %d", entries, assoc)
	}
	nsets := entries / assoc
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("core: PHT set count %d not a power of two", nsets)
	}
	return &PatternHistoryTable{
		entries: entries,
		assoc:   assoc,
		setBits: uint(bits.TrailingZeros64(uint64(nsets))),
		tags:    make([]uint64, entries),
		lrus:    make([]uint64, entries),
		pats:    make([]mem.Pattern, entries),
	}, nil
}

// MustNewPHT is NewPHT that panics on error.
func MustNewPHT(entries, assoc int) *PatternHistoryTable {
	t, err := NewPHT(entries, assoc)
	if err != nil {
		panic(err)
	}
	return t
}

// Infinite reports whether the table is unbounded.
func (t *PatternHistoryTable) Infinite() bool { return t.inf != nil }

// Entries returns the configured capacity (0 when unbounded).
func (t *PatternHistoryTable) Entries() int { return t.entries }

func (t *PatternHistoryTable) split(key uint64) (set uint64, tag uint64) {
	nsets := uint64(t.entries / t.assoc)
	return key & (nsets - 1), key >> t.setBits
}

// Lookup returns the stored pattern for a prediction index key.
func (t *PatternHistoryTable) Lookup(key uint64) (mem.Pattern, bool) {
	t.lookups++
	if t.inf != nil {
		p, ok := t.inf[key]
		if ok {
			t.hits++
		}
		return p, ok
	}
	set, tag := t.split(key)
	base := int(set) * t.assoc
	for i, tg := range t.tags[base : base+t.assoc] {
		j := base + i
		if tg == tag && t.lrus[j] != 0 {
			t.clock++
			t.lrus[j] = t.clock
			t.hits++
			return t.pats[j], true
		}
	}
	return mem.Pattern{}, false
}

// Insert stores a pattern under a prediction index key, replacing any
// previous pattern for the key and evicting the set's LRU entry if needed
// (first invalid way, else lowest stamp — one pass finds both).
func (t *PatternHistoryTable) Insert(key uint64, p mem.Pattern) {
	t.inserts++
	if t.inf != nil {
		t.inf[key] = p
		return
	}
	set, tag := t.split(key)
	t.clock++
	base := int(set) * t.assoc
	firstInvalid := -1
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i, tg := range t.tags[base : base+t.assoc] {
		j := base + i
		l := t.lrus[j]
		if l == 0 {
			if firstInvalid < 0 {
				firstInvalid = i
			}
			continue
		}
		if tg == tag {
			t.pats[j] = p
			t.lrus[j] = t.clock
			return
		}
		if l < oldest {
			oldest = l
			victim = i
		}
	}
	if firstInvalid >= 0 {
		victim = firstInvalid
	} else {
		t.replacements++
	}
	j := base + victim
	t.tags[j] = tag
	t.pats[j] = p
	t.lrus[j] = t.clock
}

// Size returns the number of stored patterns (meaningful mostly for the
// unbounded table).
func (t *PatternHistoryTable) Size() int {
	if t.inf != nil {
		return len(t.inf)
	}
	n := 0
	for _, l := range t.lrus {
		if l != 0 {
			n++
		}
	}
	return n
}

// PHTStats reports table activity.
type PHTStats struct {
	Lookups, Hits, Inserts, Replacements uint64
}

// Stats returns activity counters.
func (t *PatternHistoryTable) Stats() PHTStats {
	return PHTStats{Lookups: t.lookups, Hits: t.hits, Inserts: t.inserts, Replacements: t.replacements}
}

package core

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// Test helpers: one index probe, then the operation, as SMS does.

func (t *activeGenerationTable) lookup(tag uint64) *agtEntry {
	if _, pos := t.find(tag); pos >= 0 {
		return t.at(pos)
	}
	return nil
}

func (t *activeGenerationTable) insertNew(e agtEntry) (agtEntry, bool) {
	slot, pos := t.find(e.tag)
	if pos >= 0 {
		panic("insertNew: tag already present")
	}
	ne, victim := t.insert(slot, e.tag, e.accum)
	ne.trig, ne.pattern = e.trig, e.pattern
	if victim == nil {
		return agtEntry{}, false
	}
	return *victim, true
}

func (t *activeGenerationTable) removeTag(tag uint64) (agtEntry, bool) {
	slot, pos := t.find(tag)
	if pos < 0 {
		return agtEntry{}, false
	}
	e := *t.at(pos)
	t.remove(slot, pos)
	return e, true
}

func (t *activeGenerationTable) touchTag(tag uint64) {
	_, pos := t.find(tag)
	t.touch(pos)
}

// checkAGT verifies the index and the pool agree: every live entry is
// found through its tag at its own slot, and the kind counts match.
func checkAGT(tb testing.TB, t *activeGenerationTable) {
	tb.Helper()
	live, filters, accums := 0, 0, 0
	for pos, st := range t.stamps {
		if st == freeStamp {
			continue
		}
		e := &t.pool[pos]
		slot, p := t.find(e.tag)
		if p != int32(pos) || slot != uint64(e.slot) {
			tb.Fatalf("tag %d: find = (slot %d, pos %d), entry at pos %d slot %d", e.tag, slot, p, pos, e.slot)
		}
		if e.accum != (st&accumStamp != 0) {
			tb.Fatalf("tag %d: kind %v but stamp %#x", e.tag, e.accum, st)
		}
		live++
		if e.accum {
			accums++
		} else {
			filters++
		}
	}
	if live != t.used || filters != t.filters || accums != t.accums {
		tb.Fatalf("live %d (filter %d accum %d), table says used %d filter %d accum %d",
			live, filters, accums, t.used, t.filters, t.accums)
	}
}

func TestFilterTableBasics(t *testing.T) {
	f := newActiveGenerationTable(2, 0)
	if n, _ := f.Len(); n != 0 {
		t.Fatal("new table not empty")
	}
	_, ev := f.insertNew(agtEntry{tag: 1, trig: trigger{pc: 10, offset: 3}})
	if ev {
		t.Fatal("insert into empty table evicted")
	}
	if e := f.lookup(1); e == nil || e.trig.pc != 10 || e.accum {
		t.Fatal("lookup failed")
	}
	if e := f.lookup(2); e != nil {
		t.Fatal("phantom lookup")
	}
	f.insertNew(agtEntry{tag: 2})
	victim, ev := f.insertNew(agtEntry{tag: 3})
	if !ev || victim.tag != 1 {
		t.Fatalf("LRU eviction wrong: %+v %v", victim, ev)
	}
	if n, _ := f.Len(); n != 2 {
		t.Fatalf("Len = %d", n)
	}
	checkAGT(t, f)
	if _, ok := f.removeTag(2); !ok {
		t.Fatal("remove failed")
	}
	if _, ok := f.removeTag(2); ok {
		t.Fatal("double remove succeeded")
	}
	checkAGT(t, f)
}

func TestFilterTableUnbounded(t *testing.T) {
	f := newActiveGenerationTable(0, 0)
	for i := uint64(0); i < 1000; i++ {
		if _, ev := f.insertNew(agtEntry{tag: i}); ev {
			t.Fatal("unbounded table evicted")
		}
	}
	if n, _ := f.Len(); n != 1000 {
		t.Fatalf("Len = %d", n)
	}
	checkAGT(t, f)
}

func TestAccumTableBasics(t *testing.T) {
	a := newActiveGenerationTable(0, 2)
	p := mem.PatternOf(4, 0, 1)
	a.insertNew(agtEntry{tag: 1, pattern: p, accum: true})
	a.insertNew(agtEntry{tag: 2, pattern: p, accum: true})
	// Touch tag 1 so tag 2 is LRU.
	a.touchTag(1)
	victim, ev := a.insertNew(agtEntry{tag: 3, pattern: p, accum: true})
	if !ev || victim.tag != 2 || !victim.accum {
		t.Fatalf("LRU eviction wrong: %+v", victim)
	}
	if a.lookup(1) == nil || a.lookup(3) == nil || a.lookup(2) != nil {
		t.Fatal("contents wrong")
	}
	if a.String() == "" {
		t.Error("empty String()")
	}
	if e, ok := a.removeTag(3); !ok || e.tag != 3 {
		t.Fatal("remove failed")
	}
	if _, n := a.Len(); n != 1 {
		t.Fatalf("Len = %d", n)
	}
	checkAGT(t, a)
}

// TestPromoteInPlace: a filter entry becomes accumulating without moving,
// and a full accumulation kind gives up its LRU entry, never a filter
// entry.
func TestPromoteInPlace(t *testing.T) {
	a := newActiveGenerationTable(4, 2)
	p := mem.PatternOf(4, 0, 1)
	a.insertNew(agtEntry{tag: 1, pattern: p, accum: true})
	a.insertNew(agtEntry{tag: 2, pattern: p, accum: true})
	a.insertNew(agtEntry{tag: 3, trig: trigger{pc: 7, offset: 2}})
	a.insertNew(agtEntry{tag: 4})
	a.touchTag(1)
	_, pos := a.find(3)
	if victim := a.promote(pos, mem.PatternOf(4, 2, 3)); victim == nil || victim.tag != 2 {
		t.Fatalf("promotion evicted %+v, want tag 2", victim)
	}
	if _, p2 := a.find(3); p2 != pos {
		t.Fatalf("promoted entry moved from %d to %d", pos, p2)
	}
	e := a.lookup(3)
	if !e.accum || e.trig.pc != 7 || e.pattern.String() != "0011" {
		t.Fatalf("promoted entry = %+v", *e)
	}
	if f, n := a.Len(); f != 1 || n != 2 {
		t.Fatalf("Len = %d, %d, want 1, 2", f, n)
	}
	checkAGT(t, a)
}

func TestAccumPatternMutationThroughLookup(t *testing.T) {
	a := newActiveGenerationTable(0, 4)
	p := mem.NewPattern(8)
	p.Set(0)
	a.insertNew(agtEntry{tag: 7, pattern: p, accum: true})
	e := a.lookup(7)
	e.pattern.Set(5)
	if got := a.lookup(7).pattern; !got.Test(5) || !got.Test(0) {
		t.Fatal("in-place pattern mutation lost")
	}
}

// TestTablesNeverExceedCapacity drives random trigger, promote, touch and
// remove operations and checks both kinds stay within capacity and the
// index stays consistent with the pool.
func TestTablesNeverExceedCapacity(t *testing.T) {
	f := func(ops []uint16) bool {
		a := newActiveGenerationTable(8, 8)
		for _, op := range ops {
			tag := uint64(op % 64)
			slot, pos := a.find(tag)
			switch {
			case op&0x8000 != 0:
				if pos >= 0 {
					a.remove(slot, pos)
				}
			case pos < 0:
				a.insert(slot, tag, op&0x100 != 0)
			case a.at(pos).accum:
				a.touch(pos)
			default:
				a.promote(pos, mem.NewPattern(4))
			}
			if f, n := a.Len(); f > 8 || n > 8 {
				return false
			}
			checkAGT(t, a)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package coherence

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/mem"
)

func TestDirTableTouchedUnitsOnly(t *testing.T) {
	tb := newDirTable()
	e := tb.getOrInsert(100) // page 3, unit 4
	if e == nil || *e != (dirEntry{}) {
		t.Fatalf("new entry = %+v, want a zero entry", e)
	}
	if tb.get(100) != e {
		t.Fatal("get does not return the inserted entry")
	}
	// The rest of the page exists but was never returned.
	for _, bn := range []uint64{96, 99, 101, 127} {
		if tb.get(bn) != nil {
			t.Fatalf("get(%d) on an untouched unit of a live page is non-nil", bn)
		}
	}
	if tb.get(128) != nil {
		t.Fatal("get on an absent page is non-nil")
	}
	tb.getOrInsert(100)
	tb.getOrInsert(101)
	if got := tb.len(); got != 2 {
		t.Fatalf("len = %d, want 2 touched units", got)
	}
}

func TestDirTableEntryPointersStable(t *testing.T) {
	tb := newDirTable()
	const bn = 12345
	e := tb.getOrInsert(bn)
	e.sharers = 0b101
	// Thousands of later inserts, spread over many pages, grow the
	// index several times and open new slabs.
	for k := uint64(0); k < 50_000; k++ {
		tb.getOrInsert(1<<20 + k*7).writtenSubs = k
	}
	if got := tb.get(bn); got != e {
		t.Fatalf("entry moved: get = %p, getOrInsert returned %p", got, e)
	}
	e.invalidated = 0b10
	if got := tb.getOrInsert(bn); got.sharers != 0b101 || got.invalidated != 0b10 {
		t.Fatalf("entry through the old pointer = %+v, want sharers 0b101 invalidated 0b10", *got)
	}
	if got := tb.get(1<<20 + 49_999*7); got == nil || got.writtenSubs != 49_999 {
		t.Fatalf("last inserted entry = %+v", got)
	}
	if got := tb.len(); got != 50_001 {
		t.Fatalf("len = %d, want 50001", got)
	}
}

// BenchmarkDirectoryScan times demand reads of a footprint far larger
// than the simulated caches: four CPUs each scan their own quarter of
// 1<<22 sequential coherence units, interleaved access by access, so
// every access misses L1 and goes through the directory. One iteration
// is a whole scan on a fresh System; it reports ns per access and the
// directory's bytes per touched unit.
func BenchmarkDirectoryScan(b *testing.B) {
	const cpus, units = 4, 1 << 22
	cfg := DefaultConfig()
	cfg.CPUs = cpus
	block := mem.Addr(cfg.L1.BlockSize)
	var res AccessResult
	var scan time.Duration
	var s *System
	for i := 0; i < b.N; i++ {
		s = MustNew(cfg)
		start := time.Now()
		for u := 0; u < units/cpus; u++ {
			for cpu := 0; cpu < cpus; cpu++ {
				a := mem.Addr(cpu*units/cpus+u) * block
				s.AccessInto(&res, cpu, a, false)
			}
		}
		scan += time.Since(start)
	}
	b.ReportMetric(float64(scan.Nanoseconds())/float64(b.N*units), "ns/access")
	b.ReportMetric(float64(dirBytes(&s.dir))/float64(s.dir.len()), "dir-B/unit")
}

// dirBytes returns the heap t holds: the index plus every slab page
// handed out or waiting in the current slab.
func dirBytes(t *dirTable) int {
	const slot, page = int(unsafe.Sizeof(dirSlot{})), int(unsafe.Sizeof(dirPage{}))
	return len(t.slots)*slot + (t.pages+len(t.free))*page
}

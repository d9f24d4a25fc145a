package coherence

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/workload"
)

// get returns the reference to block number bn's unit and whether the
// unit is in the directory (has a sharer).
func (t *dirTable) get(bn uint64) (dirRef, bool) {
	pg := t.lookup(bn >> (t.unitBits & 63))
	if pg < 0 {
		return dirRef{}, false
	}
	r := t.ref(pg, bn)
	sharers, _ := t.masks(r)
	return r, sharers != 0
}

// len returns the number of units in the directory.
func (t *dirTable) len() int {
	n := 0
	for pg := 0; pg < t.pages; pg++ {
		for u := uint64(0); u < 1<<t.unitBits; u++ {
			if sharers, _ := t.masks(t.ref(pg, u)); sharers != 0 {
				n++
			}
		}
	}
	return n
}

// dirBytes returns the heap t holds: the index, the slab list, every
// slab page handed out or waiting in the last slab, and the
// written-sub-unit words.
func dirBytes(t *dirTable) int {
	const slot, slab, word = int(unsafe.Sizeof(dirSlot{})), int(unsafe.Sizeof(dirSlab{})), 8
	return len(t.slots)*slot + cap(t.slabs)*int(unsafe.Sizeof(t.slabs[0])) + len(t.slabs)*slab + cap(t.written)*word
}

func TestDirTableTouchedUnitsOnly(t *testing.T) {
	tb := newDirTable(4, 1)  // 64 units a page
	r := tb.getOrInsert(100) // page 1, unit 36
	if sharers, inval := tb.masks(r); sharers != 0 || inval != 0 {
		t.Fatalf("new unit masks = %#x, %#x, want zero", sharers, inval)
	}
	if _, ok := tb.get(100); ok {
		t.Fatal("a unit with no sharer is in the directory")
	}
	tb.setMasks(r, 0b10, 0)
	if got, ok := tb.get(100); !ok || got != r {
		t.Fatalf("get = %+v, %v, want the inserted unit %+v", got, ok, r)
	}
	// The rest of the page exists but has no sharer.
	for _, bn := range []uint64{64, 99, 101, 127} {
		if _, ok := tb.get(bn); ok {
			t.Fatalf("get(%d) on an untouched unit of a live page is present", bn)
		}
	}
	if _, ok := tb.get(128); ok {
		t.Fatal("get on an absent page is present")
	}
	tb.setMasks(tb.getOrInsert(101), 0b1, 0)
	if got := tb.len(); got != 2 {
		t.Fatalf("len = %d, want 2 touched units", got)
	}
}

func TestDirTableEntryPointersStable(t *testing.T) {
	tb := newDirTable(4, 1)
	const bn = 12345
	r := tb.getOrInsert(bn)
	tb.setMasks(r, 0b101, 0)
	// Thousands of later inserts, spread over many pages, grow the
	// index several times and open new slabs.
	for k := uint64(0); k < 50_000; k++ {
		tb.setMasks(tb.getOrInsert(1<<20+k*7), k%15+1, 0)
	}
	if got, ok := tb.get(bn); !ok || got != r {
		t.Fatalf("unit moved: get = %+v, getOrInsert returned %+v", got, r)
	}
	tb.setMasks(r, 0b101, 0b10)
	if sharers, inval := tb.masks(tb.getOrInsert(bn)); sharers != 0b101 || inval != 0b10 {
		t.Fatalf("unit through the old reference = %#b, %#b, want sharers 0b101 invalidated 0b10", sharers, inval)
	}
	if got, ok := tb.get(1<<20 + 49_999*7); !ok {
		t.Fatal("last inserted unit absent")
	} else if sharers, _ := tb.masks(got); sharers != 49_999%15+1 {
		t.Fatalf("last inserted unit's sharers = %d", sharers)
	}
	if got := tb.len(); got != 50_001 {
		t.Fatalf("len = %d, want 50001", got)
	}
}

// TestDirTableLanesIndependent stores distinct masks in every unit of a
// few pages at each lane width and reads them back: no unit's store may
// touch a neighbour's lanes.
func TestDirTableLanesIndependent(t *testing.T) {
	for _, cpus := range []int{1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64} {
		tb := newDirTable(cpus, 1)
		if width := int(tb.lane); width < cpus || width < 4 || width >= 2*max(cpus, 4) {
			t.Fatalf("%d CPUs: lane width %d", cpus, width)
		}
		all := uint64(1)<<cpus - 1
		val := func(bn, salt uint64) uint64 { return mem.HashKey(bn^salt)&all | 1 }
		n := uint64(3) << tb.unitBits
		for pass := 0; pass < 2; pass++ {
			for bn := uint64(0); bn < n; bn++ {
				tb.setMasks(tb.getOrInsert(bn), val(bn, uint64(pass)), val(bn, 99+uint64(pass))&^1)
			}
			for bn := uint64(0); bn < n; bn++ {
				r, ok := tb.get(bn)
				sharers, inval := tb.masks(r)
				if !ok || sharers != val(bn, uint64(pass)) || inval != val(bn, 99+uint64(pass))&^1 {
					t.Fatalf("%d CPUs pass %d unit %d: masks %#x, %#x", cpus, pass, bn, sharers, inval)
				}
			}
		}
		if tb.pages != 3 || tb.len() != int(n) {
			t.Fatalf("%d CPUs: %d pages, %d units, want 3 and %d", cpus, tb.pages, tb.len(), n)
		}
	}
}

// scanDirectory fills a directory for cpus CPUs the way
// BenchmarkDirectoryScan's System does: each CPU reads its own stretch of
// sequential coherence units, interleaved access by access.
func scanDirectory(cpus, units int) *dirTable {
	tb := newDirTable(cpus, 1)
	for u := 0; u < units/cpus; u++ {
		for cpu := 0; cpu < cpus; cpu++ {
			r := tb.getOrInsert(uint64(cpu*units/cpus + u))
			sharers, inval := tb.masks(r)
			tb.setMasks(r, sharers|1<<cpu, inval)
		}
	}
	return &tb
}

// TestDirectoryFootprint bounds what the directory holds per touched unit:
// on a large scan, at most 3 bytes up to 4 CPUs and at most the 25.3
// bytes of the full-width 24-byte entries it replaced at any CPU count;
// and for the web workloads, whose accesses touch a few units of each
// page, at most 0.5 MiB at the default length.
func TestDirectoryFootprint(t *testing.T) {
	const units = 1 << 20
	for _, cpus := range []int{1, 2, 4, 8, 16, 32, 64} {
		tb := scanDirectory(cpus, units)
		if got := tb.len(); got != units {
			t.Fatalf("%d CPUs: %d units, want %d", cpus, got, units)
		}
		perUnit := float64(dirBytes(tb)) / units
		t.Logf("%d CPUs: %.2f B/unit", cpus, perUnit)
		limit := 25.3
		if cpus <= 4 {
			limit = 3
		}
		if perUnit > limit {
			t.Errorf("%d CPUs: directory holds %.2f B/unit on a %d-unit scan, want <= %.1f", cpus, perUnit, units, limit)
		}
	}
	if testing.Short() {
		t.Skip("web-workload directories need full-length traces")
	}
	for _, name := range []string{"web-apache", "web-zeus"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := MustNew(DefaultConfig())
		src := w.Make(workload.Config{CPUs: 4, Seed: 1, Length: 1_200_000})
		var res AccessResult
		for rec, ok := src.Next(); ok; rec, ok = src.Next() {
			s.AccessInto(&res, int(rec.CPU), rec.Addr, rec.IsWrite())
		}
		mib := float64(dirBytes(&s.dir)) / (1 << 20)
		t.Logf("%s: %.3f MiB over %d units", name, mib, s.dir.len())
		if mib >= 0.5 {
			t.Errorf("%s: directory holds %.3f MiB over %d units at 1.2M records, want < 0.5", name, mib, s.dir.len())
		}
	}
}

// BenchmarkDirectoryScan times demand reads of a footprint far larger
// than the simulated caches: each CPU scans its own stretch of 1<<22
// sequential coherence units, interleaved access by access, so every
// access misses L1 and goes through the directory. One iteration is a
// whole scan on a fresh System; it reports ns per access and the
// directory's bytes per touched unit, at 4, 16 and 64 CPUs.
func BenchmarkDirectoryScan(b *testing.B) {
	for _, cpus := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("cpus=%d", cpus), func(b *testing.B) {
			const units = 1 << 22
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
		})
	}
}

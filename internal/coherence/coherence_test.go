package coherence

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
)

func smallSys(cpus int, blockSize int) *System {
	return MustNew(Config{
		CPUs: cpus,
		L1:   cache.Config{Size: 16 * blockSize, Assoc: 2, BlockSize: blockSize},
		L2:   cache.Config{Size: 64 * blockSize, Assoc: 4, BlockSize: blockSize},
	})
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.CPUs = 0
	if bad.Validate() == nil {
		t.Error("CPUs=0 accepted")
	}
	bad = DefaultConfig()
	bad.L2.BlockSize = 128
	if bad.Validate() == nil {
		t.Error("mismatched block sizes accepted")
	}
	bad = DefaultConfig()
	bad.L1.Size = 7777
	if bad.Validate() == nil {
		t.Error("bad L1 accepted")
	}
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" || LevelMemory.String() != "memory" {
		t.Error("Level strings wrong")
	}
	if Level(9).String() == "" {
		t.Error("unknown level should render")
	}
}

func TestHierarchyHitMiss(t *testing.T) {
	s := smallSys(2, 64)
	r := s.Access(0, 0x1000, false)
	if r.L1Hit || r.L2Hit {
		t.Fatalf("cold access hit: %+v", r)
	}
	r = s.Access(0, 0x1000, false)
	if !r.L1Hit {
		t.Fatal("second access not an L1 hit")
	}
	// Evict from L1 by filling the set; then the block should hit in L2.
	const l1Stride = 64 * 8 // 8 L1 sets
	s.Access(0, 0x1000+l1Stride, false)
	s.Access(0, 0x1000+2*l1Stride, false)
	r = s.Access(0, 0x1000, false)
	if r.L1Hit {
		t.Fatal("expected L1 miss after set pressure")
	}
	if !r.L2Hit {
		t.Fatal("expected L2 hit")
	}
}

func TestMissedHelper(t *testing.T) {
	r := AccessResult{L1Hit: false, L2Hit: true}
	if !r.Missed(LevelL1) || r.Missed(LevelL2) || r.Missed(LevelMemory) {
		t.Error("Missed logic wrong")
	}
	r = AccessResult{}
	if !r.Missed(LevelL2) {
		t.Error("off-chip access must miss L2")
	}
}

func TestWriteInvalidatesRemote(t *testing.T) {
	s := smallSys(4, 64)
	// CPUs 1..3 read the block.
	for cpu := 1; cpu < 4; cpu++ {
		s.Access(cpu, 0x40, false)
	}
	// CPU 0 writes it.
	r := s.Access(0, 0x40, true)
	if len(r.Invalidations) != 3 {
		t.Fatalf("got %d invalidations, want 3", len(r.Invalidations))
	}
	for _, inv := range r.Invalidations {
		if inv.CPU == 0 {
			t.Error("writer invalidated itself")
		}
		if !inv.L1 {
			t.Error("L1 copy not invalidated")
		}
		if inv.Addr != 0x40 {
			t.Errorf("invalidation addr %#x", uint64(inv.Addr))
		}
	}
	// Remote copies are gone: CPU 1 misses again.
	r = s.Access(1, 0x40, false)
	if r.L1Hit || r.L2Hit {
		t.Fatal("invalidated copy still present")
	}
	if !r.CoherenceMiss {
		t.Fatal("coherence miss not classified")
	}
	// 64 B units: the write hit the same sub-unit, so it is true sharing.
	if r.FalseSharing {
		t.Fatal("64B unit misclassified as false sharing")
	}
}

func TestNoSelfInvalidation(t *testing.T) {
	s := smallSys(2, 64)
	s.Access(0, 0x40, false)
	r := s.Access(0, 0x40, true)
	if len(r.Invalidations) != 0 {
		t.Fatal("write with no remote sharers invalidated someone")
	}
}

func TestFalseSharingClassification(t *testing.T) {
	// 512 B coherence units: CPU 1 reads sub-unit 0; CPU 0 writes
	// sub-unit 7. CPU 1's re-read of sub-unit 0 is false sharing.
	s := smallSys(2, 512)
	s.Access(1, 0x0, false)  // sub-unit 0
	s.Access(0, 0x1c0, true) // sub-unit 7 of the same 512B unit
	r := s.Access(1, 0x0, false)
	if !r.CoherenceMiss || !r.FalseSharing {
		t.Fatalf("false sharing not detected: %+v", r)
	}
	// Re-read again without remote writes: plain hit.
	r = s.Access(1, 0x0, false)
	if !r.L1Hit {
		t.Fatal("expected hit after refetch")
	}

	// True sharing at 512 B: writer touches the same sub-unit.
	s2 := smallSys(2, 512)
	s2.Access(1, 0x0, false)
	s2.Access(0, 0x0, true)
	r = s2.Access(1, 0x0, false)
	if !r.CoherenceMiss || r.FalseSharing {
		t.Fatalf("true sharing misclassified: %+v", r)
	}
}

func TestFalseSharingMixedWrites(t *testing.T) {
	// If any interim write touched the reader's sub-unit, it is true
	// sharing even if other sub-units were also written.
	s := smallSys(2, 512)
	s.Access(1, 0x0, false)
	s.Access(0, 0x1c0, true) // other sub-unit
	s.Access(0, 0x0, true)   // reader's sub-unit
	r := s.Access(1, 0x0, false)
	if !r.CoherenceMiss || r.FalseSharing {
		t.Fatalf("mixed writes misclassified: %+v", r)
	}
}

// TestNoFalseSharingAt64B states why 64 B units keep no written-sub-unit
// set: a 64 B unit is one sub-unit, and the write that invalidated a
// copy wrote it, so no coherence miss at 64 B is ever false sharing.
func TestNoFalseSharingAt64B(t *testing.T) {
	for _, cpus := range []int{2, 4, 16, 64} {
		s := smallSys(cpus, 64)
		rng := rand.New(rand.NewSource(int64(cpus)))
		misses := 0
		for op := 0; op < 50_000; op++ {
			cpu := rng.Intn(cpus)
			a := mem.Addr(rng.Intn(32 * 64))
			switch rng.Intn(8) {
			case 0:
				s.Stream(cpu, s.BlockAddr(a))
			default:
				r := s.Access(cpu, a, rng.Intn(3) == 0)
				if r.FalseSharing {
					t.Fatalf("%d CPUs op %d: false sharing at 64 B units: %+v", cpus, op, r)
				}
				if r.CoherenceMiss {
					misses++
				}
			}
		}
		if misses < 1000 {
			t.Fatalf("%d CPUs: only %d coherence misses; the traffic shares too little to test", cpus, misses)
		}
	}
}

func TestStreamFillsL1(t *testing.T) {
	s := smallSys(2, 64)
	r := s.Stream(0, 0x200)
	if r.AlreadyPresent {
		t.Fatal("stream of absent block reported present")
	}
	acc := s.Access(0, 0x200, false)
	if !acc.L1Hit || !acc.L1PrefetchHit {
		t.Fatalf("streamed block not a prefetch hit: %+v", acc)
	}
	// Streaming a present block is a no-op.
	if r := s.Stream(0, 0x200); !r.AlreadyPresent {
		t.Fatal("stream of present block not dropped")
	}
}

func TestStreamClearsInvalidationState(t *testing.T) {
	s := smallSys(2, 64)
	s.Access(1, 0x40, false)
	s.Access(0, 0x40, true) // invalidates CPU 1
	s.Stream(1, 0x40)       // SMS re-fetches ahead of demand
	r := s.Access(1, 0x40, false)
	if !r.L1Hit {
		t.Fatal("streamed block missing")
	}
	if r.CoherenceMiss {
		t.Fatal("hit after stream still classified as coherence miss")
	}
}

func TestStreamInvalidatedByRemoteWrite(t *testing.T) {
	s := smallSys(2, 64)
	s.Stream(1, 0x40)
	r := s.Access(0, 0x40, true)
	found := false
	for _, inv := range r.Invalidations {
		if inv.CPU == 1 && inv.PrefetchedUnused {
			found = true
		}
	}
	if !found {
		t.Fatalf("unused streamed copy not reported as overprediction: %+v", r.Invalidations)
	}
}

func TestL2Stream(t *testing.T) {
	s := smallSys(2, 64)
	s.L2Stream(0, 0x300)
	r := s.Access(0, 0x300, false)
	if r.L1Hit {
		t.Fatal("L2 stream filled L1")
	}
	if !r.L2Hit || !r.L2PrefetchHit {
		t.Fatalf("L2 stream not hit at L2: %+v", r)
	}
	if r := s.L2Stream(0, 0x300); !r.AlreadyPresent {
		t.Fatal("redundant L2 stream not dropped")
	}
}

func TestL1EvictionsReported(t *testing.T) {
	s := smallSys(1, 64)
	const l1Stride = 64 * 8
	s.Access(0, 0, false)
	s.Access(0, l1Stride, false)
	r := s.Access(0, 2*l1Stride, false)
	if len(r.L1Evictions) != 1 || r.L1Evictions[0].Addr != 0 {
		t.Fatalf("L1 eviction not reported: %+v", r.L1Evictions)
	}
	// Stream fills can evict too.
	sr := s.Stream(0, 3*l1Stride)
	if !sr.L1Evicted || sr.L1Victim.Addr != l1Stride {
		t.Fatalf("stream eviction not reported: %+v", sr)
	}
}

func TestCPUsIsolatedHierarchies(t *testing.T) {
	s := smallSys(2, 64)
	s.Access(0, 0x40, false)
	r := s.Access(1, 0x40, false)
	if r.L1Hit || r.L2Hit {
		t.Fatal("CPU 1 hit in CPU 0's caches")
	}
}

func TestBlockAddr(t *testing.T) {
	s := smallSys(1, 512)
	if got := s.BlockAddr(0x7ff); got != 0x600 {
		t.Fatalf("BlockAddr(0x7ff) = %#x, want 0x600", uint64(got))
	}
	if s.CPUs() != 1 {
		t.Error("CPUs() wrong")
	}
	if s.L1(0) == nil || s.L2(0) == nil {
		t.Error("cache accessors nil")
	}
}

func TestInvalidationsAcrossManyCPUs(t *testing.T) {
	s := smallSys(8, 64)
	for cpu := 0; cpu < 8; cpu++ {
		s.Access(cpu, mem.Addr(0x40), false)
	}
	r := s.Access(3, 0x40, true)
	if len(r.Invalidations) != 7 {
		t.Fatalf("%d invalidations, want 7", len(r.Invalidations))
	}
}

func TestStreamOffChipSourceTracking(t *testing.T) {
	s := smallSys(1, 64)
	// Block absent everywhere: stream sources off-chip.
	s.Stream(0, 0x40)
	r := s.Access(0, 0x40, false)
	if !r.L1PrefetchHit || !r.L1PrefetchOffChip {
		t.Fatalf("off-chip stream source lost: %+v", r)
	}
	// Block resident in L2 only: stream sources on-chip.
	const l1Stride = 64 * 16 // evict from L1 (16 sets x 2 ways)
	s.Access(0, 0x1000, false)
	for i := 1; i <= 2; i++ {
		s.Access(0, mem.Addr(0x1000+i*l1Stride*8), false)
	}
	if s.L1(0).Probe(0x1000) {
		t.Skip("L1 geometry kept the block; adjust strides")
	}
	s.Stream(0, 0x1000)
	r = s.Access(0, 0x1000, false)
	if !r.L1PrefetchHit || r.L1PrefetchOffChip {
		t.Fatalf("on-chip stream source misflagged: %+v", r)
	}
}

func TestL2EvictionsReported(t *testing.T) {
	s := smallSys(1, 64)
	// L2: 64 blocks, 4-way, 16 sets. Fill one set (stride 64*16) with
	// 4 blocks, then a 5th evicts.
	const l2Stride = 64 * 16
	for i := 0; i < 4; i++ {
		s.Access(0, mem.Addr(i*l2Stride), false)
	}
	r := s.Access(0, mem.Addr(4*l2Stride), false)
	if len(r.L2Evictions) != 1 {
		t.Fatalf("L2 evictions = %v", r.L2Evictions)
	}
}

func TestL1PrefetchUseMarksL2Copy(t *testing.T) {
	// When a streamed block is used from L1, the L2 copy of the same
	// fill must not later be scored as an unused prefetch.
	s := smallSys(1, 64)
	s.Stream(0, 0x40)
	s.Access(0, 0x40, false) // first use (L1 prefetch hit)
	// Evict the L2 copy via set pressure: 4-way L2, 16 sets.
	const l2Stride = 64 * 16
	var evicted []cache.Eviction
	for i := 1; i <= 5; i++ {
		r := s.Access(0, mem.Addr(0x40+i*l2Stride), false)
		evicted = append(evicted, r.L2Evictions...)
	}
	found := false
	for _, ev := range evicted {
		if ev.Addr == 0x40 {
			found = true
			if ev.PrefetchedUnused {
				t.Fatal("used stream fill scored as overprediction at L2")
			}
		}
	}
	if !found {
		t.Skip("set pressure did not evict the block; geometry changed")
	}
}

func TestInvalidationUnusedJudgedAtL2(t *testing.T) {
	// An invalidated stream fill whose L1 copy was used must not be an
	// overprediction even though the L2 line flags would be stale
	// without MarkUsed propagation.
	s := smallSys(2, 64)
	s.Stream(1, 0x40)
	s.Access(1, 0x40, false) // use it
	r := s.Access(0, 0x40, true)
	for _, inv := range r.Invalidations {
		if inv.CPU == 1 && inv.PrefetchedUnused {
			t.Fatal("used streamed block reported unused on invalidation")
		}
	}
}

// TestFalseSharingClassifiedAcross8KUnit: in an 8 kB coherence unit a
// re-read of the exact 64 B sub-unit another CPU wrote is true sharing,
// and a re-read of a sub-unit it did not write is false sharing, in the
// unit's upper 4 kB as in its lower.
func TestFalseSharingClassifiedAcross8KUnit(t *testing.T) {
	cfg := Config{
		CPUs: 2,
		L1:   cache.Config{Size: 32 << 10, Assoc: 2, BlockSize: 8192},
		L2:   cache.Config{Size: 128 << 10, Assoc: 4, BlockSize: 8192},
	}
	for _, off := range []mem.Addr{64, 4096 - 64, 4096, 4160, 8192 - 64} {
		for _, same := range []bool{true, false} {
			s := MustNew(cfg)
			const unit = mem.Addr(0x100000)
			s.Access(0, unit+off, false)
			w := unit + off
			if !same {
				w = unit + (off+4096)%8192 // other half of the unit
			}
			s.Access(1, w, true)
			r := s.Access(0, unit+off, false)
			if !r.CoherenceMiss {
				t.Fatalf("offset %d: re-read after a remote write is not a coherence miss", off)
			}
			if r.FalseSharing == same {
				t.Errorf("offset %d, writer at offset %d: FalseSharing = %v, want %v", off, w-unit, r.FalseSharing, !same)
			}
		}
	}
}

// TestCopiesHoldDirectoryInvariant checks the invariant the L1 read fast
// path and the L2-hit stream skip rest on, over random mixes of demand
// accesses, L1 streams and L2 streams: after every operation, each CPU
// holding a copy of the touched unit at either level has its sharer bit
// set and its invalidated bit clear, and every 500 operations the same
// holds for every unit of the address space. Small caches over a small
// footprint keep evictions, invalidations and refills frequent.
func TestCopiesHoldDirectoryInvariant(t *testing.T) {
	for _, cpus := range []int{1, 4, 16, 64} {
		for _, unit := range []int{64, 128, 512} {
			sys := smallSys(cpus, unit)
			rng := rand.New(rand.NewSource(int64(cpus*1000 + unit)))
			const units = 48
			check := func(op int, bn uint64) {
				a := mem.Addr(bn) * mem.Addr(unit)
				for cpu := 0; cpu < cpus; cpu++ {
					inL1, inL2 := sys.L1(cpu).Probe(a), sys.L2(cpu).Probe(a)
					if !inL1 && !inL2 {
						continue
					}
					r, ok := sys.dir.get(bn)
					var sharers, inval uint64
					if ok {
						sharers, inval = sys.dir.masks(r)
					}
					bit := uint64(1) << uint(cpu)
					if sharers&bit == 0 || inval&bit != 0 {
						t.Fatalf("%d CPUs, %d-B units, op %d: CPU %d holds unit %d (L1 %v, L2 %v) with sharers %#x, invalidated %#x",
							cpus, unit, op, cpu, bn, inL1, inL2, sharers, inval)
					}
				}
			}
			for op := 0; op < 20_000; op++ {
				cpu := rng.Intn(cpus)
				bn := uint64(rng.Intn(units))
				a := mem.Addr(bn)*mem.Addr(unit) + mem.Addr(rng.Intn(unit))
				switch rng.Intn(5) {
				case 0:
					sys.Stream(cpu, sys.BlockAddr(a))
				case 1:
					sys.L2Stream(cpu, sys.BlockAddr(a))
				default:
					sys.Access(cpu, a, rng.Intn(3) == 0)
				}
				check(op, bn)
				if op%500 == 499 {
					for u := uint64(0); u < units; u++ {
						check(op, u)
					}
				}
			}
		}
	}
}

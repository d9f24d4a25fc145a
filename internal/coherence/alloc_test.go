package coherence

// Steady-state allocation regression: once the directory has seen the
// working set, demand accesses and stream fills — including their
// eviction/invalidation reporting, which aliases the System's scratch
// buffers — must not allocate.

import (
	"testing"

	"repro/internal/mem"
)

func TestAccessSteadyStateZeroAllocs(t *testing.T) {
	s := MustNew(DefaultConfig())
	const blocks = 8192
	// Prewarm: every block touched by every CPU, with writes, so the
	// directory, caches, and scratch buffers reach steady state.
	for cpu := 0; cpu < s.CPUs(); cpu++ {
		for b := 0; b < blocks; b++ {
			s.Access(cpu, mem.Addr(b*64), b%8 == 0)
		}
	}
	var res AccessResult
	var sres StreamResult
	state := uint64(1)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 10_000; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			b := int(state>>33) % blocks
			cpu := int(state>>29) & 3
			switch i % 8 {
			case 0:
				s.AccessInto(&res, cpu, mem.Addr(b*64), true)
			case 1:
				s.StreamInto(&sres, cpu, mem.Addr(b*64))
			case 2:
				s.L2StreamInto(&sres, cpu, mem.Addr(b*64))
			default:
				s.AccessInto(&res, cpu, mem.Addr(b*64), false)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("coherent system allocated %.1f times per 10k-op mix; the directory and scratch buffers must be allocation-free at steady state", allocs)
	}
}

func TestDirTableSteadyStateZeroAllocs(t *testing.T) {
	tb := newDirTable(64, 1)
	const keys = 40_000 // forces several growth rehashes during prewarm
	for k := uint64(0); k < keys; k++ {
		tb.setMasks(tb.getOrInsert(k), k+1, k)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for k := uint64(0); k < keys; k++ {
			r, ok := tb.get(k)
			if sharers, inval := tb.masks(r); !ok || sharers != k+1 || inval != k {
				t.Fatal("directory entry lost")
			}
			tb.getOrInsert(k)
		}
	})
	if allocs != 0 {
		t.Fatalf("directory table allocated %.1f times per full-working-set sweep", allocs)
	}
}

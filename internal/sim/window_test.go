package sim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/trace"
)

// mkWindowRunner builds a runner with windowing enabled and no warm-up so
// every record is measured. Misses group under the fixed overlapGap and
// maxMLP.
func mkWindowRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(Config{
		Coherence: coherence.Config{
			CPUs: 2,
			L1:   cache.Config{Size: 1 << 10, Assoc: 2, BlockSize: 64},
			L2:   cache.Config{Size: 8 << 10, Assoc: 4, BlockSize: 64},
		},
		WindowInstructions: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sumWindows(res *Result) (offReads, offGroups uint64) {
	for _, w := range res.Windows {
		offReads += w.OffChipReads
		offGroups += w.OffChipReadGroups
	}
	return
}

func TestWindowGroupingByGap(t *testing.T) {
	r := mkWindowRunner(t)
	// Two bursts of 3 cold misses each, separated by more than the gap.
	seq := uint64(1)
	for burst := 0; burst < 2; burst++ {
		for i := 0; i < 3; i++ {
			r.Step(trace.Record{Seq: seq, PC: 0x400, Addr: mem.Addr(0x100000 + burst*0x10000 + i*64)})
			seq += overlapGap / 8 // within the gap
		}
		seq += 2 * overlapGap // beyond the gap
	}
	r.finish()
	res := &r.res
	offReads, offGroups := sumWindows(res)
	if offReads != 6 {
		t.Fatalf("offReads = %d, want 6", offReads)
	}
	if offGroups != 2 {
		t.Fatalf("offGroups = %d, want 2 (two serialized bursts)", offGroups)
	}
}

func TestWindowGroupCapByMaxMLP(t *testing.T) {
	r := mkWindowRunner(t)
	// 3*maxMLP cold misses in rapid succession: gap never exceeded, but
	// the MSHR cap splits them into 3 groups.
	seq := uint64(1)
	for i := 0; i < 3*maxMLP; i++ {
		r.Step(trace.Record{Seq: seq, PC: 0x400, Addr: mem.Addr(0x100000 + i*64)})
		seq += 2
	}
	r.finish()
	_, offGroups := sumWindows(&r.res)
	if offGroups != 3 {
		t.Fatalf("offGroups = %d, want 3 (%d misses / cap %d)", offGroups, 3*maxMLP, maxMLP)
	}
}

func TestWindowPerCPUGrouping(t *testing.T) {
	// Misses on different CPUs never share a group (each core has its
	// own MSHRs).
	r := mkWindowRunner(t)
	seq := uint64(1)
	for i := 0; i < 4; i++ {
		r.Step(trace.Record{Seq: seq, PC: 0x400, CPU: uint8(i % 2), Addr: mem.Addr(0x100000 + i*64)})
		seq += 2
	}
	r.finish()
	_, offGroups := sumWindows(&r.res)
	if offGroups != 2 {
		t.Fatalf("offGroups = %d, want 2 (one per CPU)", offGroups)
	}
}

func TestWindowBoundaries(t *testing.T) {
	r := mkWindowRunner(t)
	// Records spanning 3 windows of 1000 instructions.
	for seq := uint64(1); seq < 3000; seq += 100 {
		r.Step(trace.Record{Seq: seq, PC: 0x400, Addr: mem.Addr(0x200000 + seq*64)})
	}
	r.finish()
	if got := len(r.res.Windows); got != 3 {
		t.Fatalf("windows = %d, want 3", got)
	}
	for i, w := range r.res.Windows {
		if w.Instructions != 1000 {
			t.Fatalf("window %d instructions = %d", i, w.Instructions)
		}
	}
}

func TestWindowUpgradeAccounting(t *testing.T) {
	// A write whose first touch hits an off-chip-sourced streamed block
	// must count as an off-chip write (the §4.7 upgrade cost).
	r, err := NewRunner(Config{
		Coherence: coherence.Config{
			CPUs: 1,
			L1:   cache.Config{Size: 1 << 10, Assoc: 2, BlockSize: 64},
			L2:   cache.Config{Size: 8 << 10, Assoc: 4, BlockSize: 64},
		},
		PrefetcherName:     "sms",
		WindowInstructions: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Train SMS: region A blocks 0,1 under one PC; end generation.
	A := mem.Addr(0x100000)
	r.Step(trace.Record{Seq: 1, PC: 0x400, Addr: A})
	r.Step(trace.Record{Seq: 4, PC: 0x404, Addr: A + 64})
	// Evict region A's blocks via set pressure to end the generation
	// (L1: 8 sets; stride 512).
	r.Step(trace.Record{Seq: 7, PC: 0x500, Addr: A + 512})
	r.Step(trace.Record{Seq: 10, PC: 0x500, Addr: A + 1024})
	// Trigger on region B: SMS streams B+64 (off-chip source).
	B := mem.Addr(0x200000)
	r.Step(trace.Record{Seq: 13, PC: 0x400, Addr: B})
	// First touch of the streamed block is a WRITE: upgrade.
	r.Step(trace.Record{Seq: 16, PC: 0x404, Addr: B + 64, Kind: trace.Write})
	r.finish()
	var offW uint64
	for _, w := range r.res.Windows {
		offW += w.OffChipWrites
	}
	if offW == 0 {
		t.Fatal("upgrade on streamed block not charged to the store buffer")
	}
}

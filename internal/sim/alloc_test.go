package sim

// Steady-state allocation regression tests: once the tables have grown to
// their working-set size, the per-record hot path — batched stepping, the
// open-addressed directory, the generation tables, the prefetcher
// train/drain buffers — must perform zero heap allocations. These tests
// are the precise form of the CI bench gate (scripts/bench.sh --check).

import (
	"context"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// boundedTrace builds a deterministic multi-CPU trace over a fixed
// address range, touching every block during the prewarm so the measured
// loop cannot trigger table growth.
func boundedTrace(cpus, n int) []trace.Record {
	const blocks = 4096 // 256 kB footprint at 64 B blocks
	recs := make([]trace.Record, n)
	var seq uint64
	state := uint64(0x243f6a8885a308d3)
	for i := range recs {
		seq += 3
		var blk int
		if i < blocks {
			blk = i // first sweep: touch every block in order
		} else {
			state = state*6364136223846793005 + 1442695040888963407
			blk = int(state>>33) % blocks
		}
		recs[i] = trace.Record{
			Seq:  seq,
			PC:   0x400000 + uint64(i%32)*4,
			Addr: mem.Addr(blk * 64),
			CPU:  uint8(i % cpus),
			Kind: trace.Kind(btoi(i%16 == 0)),
		}
	}
	return recs
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestStepSteadyStateZeroAllocs(t *testing.T) {
	for _, pf := range []string{"none", "sms", "ls", "ghb", "stride", "nextline"} {
		t.Run(pf, func(t *testing.T) {
			r := MustNewRunner(Config{
				PrefetcherName:   pf,
				WarmupAccesses:   10_000,
				TrackGenerations: true,
			})
			recs := boundedTrace(4, 120_000)
			for _, rec := range recs {
				r.Step(rec)
			}
			// Replay a slice of the trace; every structure is at its
			// steady-state size now.
			probe := recs[20_000:30_000]
			allocs := testing.AllocsPerRun(10, func() {
				for i := range probe {
					r.Step(probe[i])
				}
			})
			if allocs != 0 {
				t.Fatalf("%s: Step allocated %.1f times per %d-record batch; hot path must be allocation-free", pf, allocs, len(probe))
			}
		})
	}
}

func TestRunContextBatchLoopZeroAllocs(t *testing.T) {
	r := MustNewRunner(Config{PrefetcherName: "sms", WarmupAccesses: 1})
	recs := boundedTrace(4, 100_000)
	// Prewarm through the public batch loop so r.batch and all tables
	// are sized.
	ctx := context.Background()
	if _, err := r.RunContext(ctx, trace.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	// RunContext has a small per-call constant cost (the detached Result,
	// occasional predictor-stats growth); the record loop itself must add
	// nothing, so allocations may not scale with the record count.
	perCall := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := r.RunContext(ctx, trace.NewSliceSource(recs[:n])); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := perCall(200)
	large := perCall(50_000)
	if large > small+1 {
		t.Fatalf("RunContext allocations scale with record count: %.1f for 200 records vs %.1f for 50000; the batch loop must be allocation-free per record", small, large)
	}
}

func TestGenTrackerSteadyStateZeroAllocs(t *testing.T) {
	geo := mem.DefaultGeometry()
	tr := newGenTracker(geo)
	density := newDensityHistogram()
	var oracle uint64
	const regions = 2048
	addr := func(i int) mem.Addr {
		return mem.Addr(i%regions)*mem.Addr(geo.RegionSize()) + mem.Addr((i*7)%geo.BlocksPerRegion())*64
	}
	for i := 0; i < 4*regions; i++ {
		tr.access(addr(i), i%3 == 0, true)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < regions; i++ {
			a := addr(i)
			tr.access(a, true, true)
			tr.remove(a, true, density, &oracle) // retire: slot reused in place
			tr.access(a, false, true)            // restart the generation
		}
	})
	if allocs != 0 {
		t.Fatalf("generation table allocated %.1f times per access/retire cycle; retirement must reuse slots", allocs)
	}
}

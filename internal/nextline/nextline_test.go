package nextline

import (
	"math/rand"
	"testing"

	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{BlockSize: 48}); err == nil {
		t.Error("non-power-of-two block size accepted")
	}
	if _, err := New(Config{Degree: -1}); err == nil {
		t.Error("negative degree accepted")
	}
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	if cfg.Degree != DefaultDegree || cfg.BlockSize != 64 || cfg.QueueDepth != DefaultQueueDepth {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestTrainSchedulesNextLines(t *testing.T) {
	p, _ := New(Config{Degree: 2, BlockSize: 64})
	miss := coherence.AccessResult{} // L1Hit false: a miss
	p.Train(trace.Record{Addr: 0x1008}, &miss)
	got := p.Drain(10)
	want := []mem.Addr{0x1040, 0x1080}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Drain = %#x, want %#x", got, want)
	}
	// Hits on non-prefetched lines must not train.
	p.Train(trace.Record{Addr: 0x2000}, &coherence.AccessResult{L1Hit: true})
	if out := p.Drain(10); len(out) != 0 {
		t.Fatalf("hit scheduled prefetches: %#x", out)
	}
	// First-use hits on streamed lines keep the stream running.
	p.Train(trace.Record{Addr: 0x2000}, &coherence.AccessResult{L1Hit: true, L1PrefetchHit: true})
	if out := p.Drain(10); len(out) != 2 {
		t.Fatalf("prefetch hit did not train: %#x", out)
	}
}

func TestDrainRateLimit(t *testing.T) {
	p, _ := New(Config{Degree: 4, BlockSize: 64})
	p.Train(trace.Record{Addr: 0}, &coherence.AccessResult{})
	if got := p.Drain(3); len(got) != 3 || got[0] != 0x40 {
		t.Fatalf("Drain(3) = %#x", got)
	}
	if got := p.Drain(3); len(got) != 1 || got[0] != 0x100 {
		t.Fatalf("second Drain = %#x", got)
	}
	if got := p.Drain(3); got != nil {
		t.Fatalf("empty Drain = %#x", got)
	}
}

func TestQueueBound(t *testing.T) {
	p, _ := New(Config{Degree: 4, BlockSize: 64, QueueDepth: 6})
	for i := 0; i < 4; i++ {
		p.Train(trace.Record{Addr: mem.Addr(i * 0x1000)}, &coherence.AccessResult{})
	}
	st := p.Stats().(Stats)
	if st.Trains != 4 || st.Scheduled != 6 || st.Dropped != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if got := p.Drain(100); len(got) != 6 {
		t.Fatalf("queue held %d, want 6", len(got))
	}
}

// TestQueueMatchesSliceFIFO drives the ring queue and a plain slice
// FIFO with the same drop-at-QueueDepth rule through random Train and
// Drain calls, so the head wraps many times: every Drain must return the
// same addresses in the same order.
func TestQueueMatchesSliceFIFO(t *testing.T) {
	const depth = 7
	p, _ := New(Config{Degree: 3, BlockSize: 64, QueueDepth: depth})
	var ref []mem.Addr
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 20_000; op++ {
		if rng.Intn(3) == 0 {
			a := mem.Addr(rng.Intn(1<<20)) * 64
			p.Train(trace.Record{Addr: a}, &coherence.AccessResult{})
			for i := 1; i <= 3; i++ {
				if len(ref) < depth {
					ref = append(ref, a+mem.Addr(i)*64)
				}
			}
			continue
		}
		max := rng.Intn(6)
		got := p.Drain(max)
		n := min(max, len(ref))
		if len(got) != n {
			t.Fatalf("op %d: Drain(%d) returned %d addresses, want %d", op, max, len(got), n)
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("op %d: Drain(%d)[%d] = %#x, want %#x", op, max, i, got[i], ref[i])
			}
		}
		ref = ref[n:]
	}
}

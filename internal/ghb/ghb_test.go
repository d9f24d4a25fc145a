package ghb

import (
	"slices"
	"testing"

	"repro/internal/mem"
)

func TestConfigDefaults(t *testing.T) {
	g := MustNew(Config{})
	cfg := g.Config()
	if cfg.HistoryEntries != 256 || cfg.IndexEntries != 256 || cfg.Degree != DefaultDegree ||
		cfg.MaxChain != DefaultMaxChain || cfg.BlockSize != 64 {
		t.Errorf("defaults = %+v", cfg)
	}
	if _, err := New(Config{HistoryEntries: 2}); err == nil {
		t.Error("tiny history accepted")
	}
	if _, err := New(Config{BlockSize: 100}); err == nil {
		t.Error("bad block size accepted")
	}
}

// trainSeq trains the prefetcher with a sequence of block indices for one
// PC and returns the prefetches from the last training.
func trainSeq(g *GHB, pc uint64, blocks ...uint64) []mem.Addr {
	var out []mem.Addr
	for _, b := range blocks {
		out = g.Train(pc, mem.Addr(b*64))
	}
	return out
}

func TestConstantStridePrediction(t *testing.T) {
	g := MustNew(Config{})
	// Constant stride +2: deltas are all 2; the pair (2,2) recurs.
	out := trainSeq(g, 0x400, 0, 2, 4, 6, 8, 10)
	if len(out) != DefaultDegree {
		t.Fatalf("prefetches = %v, want degree %d", out, DefaultDegree)
	}
	for i, a := range out {
		want := mem.Addr((10 + 2*uint64(i+1)) * 64)
		if a != want {
			t.Errorf("prefetch %d = %#x, want %#x", i, uint64(a), uint64(want))
		}
	}
}

func TestRepeatingDeltaPattern(t *testing.T) {
	g := MustNew(Config{})
	// Delta pattern +1,+1,+6 repeating: after seeing it twice, the pair
	// at the end of the second repetition matches the first and predicts
	// the continuation.
	blocks := []uint64{0, 1, 2, 8, 9, 10, 16, 17}
	out := trainSeq(g, 0x400, blocks...)
	// The two most recent deltas are (+1, +6) (10→16→17); their previous
	// occurrence is 2→8→9, which was followed in time by +1, +6, +1 —
	// so the prediction continues 18, 24, 25.
	if len(out) < 3 {
		t.Fatalf("prefetches = %v, want at least 3", out)
	}
	want := []mem.Addr{18 * 64, 24 * 64, 25 * 64}
	for i, w := range want {
		if out[i] != w {
			t.Errorf("prefetch %d = %#x, want %#x", i, uint64(out[i]), uint64(w))
		}
	}
}

func TestNoMatchNoPrediction(t *testing.T) {
	g := MustNew(Config{})
	out := trainSeq(g, 0x400, 0, 100, 3, 777, 21, 9000)
	if len(out) != 0 {
		t.Fatalf("random deltas predicted %v", out)
	}
	if g.Stats().Matches != 0 {
		t.Error("phantom match")
	}
}

func TestPCLocalization(t *testing.T) {
	g := MustNew(Config{})
	// Interleave two PCs: each has a perfect stride; localization must
	// keep them separate. Train's result aliases the engine's reused
	// buffer, so copy before the next Train call.
	var lastA, lastB []mem.Addr
	for i := uint64(0); i < 8; i++ {
		lastA = append(lastA[:0], g.Train(0x400, mem.Addr(i*2*64))...)        // stride 2
		lastB = append(lastB[:0], g.Train(0x500, mem.Addr((1000+i*5)*64))...) // stride 5
	}
	if len(lastA) == 0 || len(lastB) == 0 {
		t.Fatal("localized streams not predicted")
	}
	if lastA[0] != mem.Addr((7*2+2)*64) {
		t.Errorf("PC A prediction %#x", uint64(lastA[0]))
	}
	if lastB[0] != mem.Addr((1000+7*5+5)*64) {
		t.Errorf("PC B prediction %#x", uint64(lastB[0]))
	}
}

func TestInterleavingDefeatsGlobalDeltas(t *testing.T) {
	// The paper's §4.6 point: when one PC's accesses interleave multiple
	// independent sequences, the delta stream is disrupted and GHB cannot
	// predict unless the interleaving itself repeats.
	g := MustNew(Config{})
	// One PC alternates between two unrelated walks.
	blocks := []uint64{0, 1000, 2, 1777, 4, 2312, 6, 3001}
	out := trainSeq(g, 0x400, blocks...)
	if len(out) != 0 {
		t.Fatalf("interleaved stream predicted %v", out)
	}
}

func TestHistoryWrapInvalidation(t *testing.T) {
	g := MustNew(Config{HistoryEntries: 8})
	// Fill the buffer with other PCs so PC 0x400's chain is overwritten.
	g.Train(0x400, 0)
	for i := 0; i < 10; i++ {
		g.Train(uint64(0x900+i), mem.Addr(uint64(i)*64*100))
	}
	// The chain for 0x400 must be treated as dead (no stale links).
	out := g.Train(0x400, mem.Addr(2*64))
	if len(out) != 0 {
		t.Fatalf("stale chain produced prefetches %v", out)
	}
	// After re-establishing a fresh stride, prediction resumes.
	out = trainSeq(g, 0x400, 4, 6, 8, 10)
	if len(out) == 0 {
		t.Fatal("fresh chain not predicted")
	}
}

func TestDegreeBound(t *testing.T) {
	g := MustNew(Config{Degree: 2})
	out := trainSeq(g, 0x400, 0, 2, 4, 6, 8, 10)
	if len(out) != 2 {
		t.Fatalf("degree not honoured: %v", out)
	}
}

func TestStatsAccumulate(t *testing.T) {
	g := MustNew(Config{})
	trainSeq(g, 0x400, 0, 2, 4, 6, 8, 10)
	st := g.Stats()
	if st.Trains != 6 || st.Lookups != 6 {
		t.Errorf("stats = %+v", st)
	}
	if st.Matches == 0 || st.Prefetches == 0 {
		t.Errorf("no matches/prefetches recorded: %+v", st)
	}
	if st.ChainLength == 0 {
		t.Error("chain length not tracked")
	}
}

func TestNegativeStride(t *testing.T) {
	g := MustNew(Config{})
	out := trainSeq(g, 0x400, 100, 97, 94, 91, 88, 85)
	if len(out) == 0 {
		t.Fatal("descending stride not predicted")
	}
	if out[0] != mem.Addr(82*64) {
		t.Errorf("prediction %#x, want %#x", uint64(out[0]), uint64(82*64))
	}
}

func TestPredictionNeverNegative(t *testing.T) {
	g := MustNew(Config{})
	out := trainSeq(g, 0x400, 10, 8, 6, 4, 2, 0)
	for _, a := range out {
		if int64(a) < 0 {
			t.Fatalf("negative prefetch address %v", out)
		}
	}
}

func TestStorageBitsMatchesSMSPHTOrder(t *testing.T) {
	// §4.6: the 16k-entry GHB is sized to roughly match the SMS PHT
	// budget (~96 KiB in our cost model).
	big := MustNew(Config{HistoryEntries: 16384})
	kib := float64(big.StorageBits()) / 8 / 1024
	if kib < 48 || kib > 192 {
		t.Fatalf("GHB-16k = %.1f KiB, want same order as the SMS PHT", kib)
	}
	small := MustNew(Config{HistoryEntries: 256})
	if small.StorageBits() >= big.StorageBits() {
		t.Fatal("256-entry GHB should cost less than 16k")
	}
}

// TestSlotMaskMatchesModulo pins the power-of-two slot mask to the %
// fallback it replaces: the same training stream through a GHB using
// the mask and through one forced onto % yields identical prefetches
// and Stats, at both paper sizes and at a size where the mask cannot
// apply. The stream is long enough to wrap each buffer several times.
func TestSlotMaskMatchesModulo(t *testing.T) {
	for _, tc := range []struct {
		entries int
		masked  bool
	}{{256, true}, {16384, true}, {1000, false}} {
		masked := MustNew(Config{HistoryEntries: tc.entries})
		if got := masked.slotMask != 0; got != tc.masked {
			t.Fatalf("%d entries: masked=%v, want %v", tc.entries, got, tc.masked)
		}
		modulo := MustNew(Config{HistoryEntries: tc.entries})
		modulo.slotMask = 0

		state := uint64(tc.entries)
		trains := 4*tc.entries + 20_000
		for i := 0; i < trains; i++ {
			// Eight PCs, each walking its own stride pattern with
			// occasional jumps, so chains, wrap-around and delta matches
			// all occur.
			state = state*6364136223846793005 + 1442695040888963407
			pc := 0x400 + (state>>60)*4
			block := uint64(i)*(1+pc%5) + (state>>40)%3*((state>>50)%2)
			a := mem.Addr(block * 64)
			got, want := masked.Train(pc, a), modulo.Train(pc, a)
			if !slices.Equal(got, want) {
				t.Fatalf("%d entries, train %d: masked %v, modulo %v", tc.entries, i, got, want)
			}
		}
		if masked.Stats() != modulo.Stats() {
			t.Fatalf("%d entries: stats %+v, modulo %+v", tc.entries, masked.Stats(), modulo.Stats())
		}
		if st := masked.Stats(); st.Prefetches == 0 || st.Matches == 0 {
			t.Fatalf("%d entries: stream never predicted (%+v)", tc.entries, st)
		}
	}
}

// referencePredict is the full-walk predict that the early-stopping walk
// replaced: it collects up to MaxChain chain entries, forms every delta,
// then searches them for the previous occurrence of (d2, d1). It counts
// every entry walked into ChainLength, so only that field may differ.
func (g *GHB) referencePredict(seq int64, blockNum uint64) []mem.Addr {
	g.stats.Lookups++
	var addrs []uint64
	for cur := seq; g.live(cur) && len(addrs) < g.cfg.MaxChain; cur = g.slot(cur).prev {
		addrs = append(addrs, g.slot(cur).blockNum)
		g.stats.ChainLength++
	}
	if len(addrs) < 4 {
		return nil
	}
	var deltas []int64
	for i := 0; i+1 < len(addrs); i++ {
		deltas = append(deltas, int64(addrs[i])-int64(addrs[i+1]))
	}
	d1, d2 := deltas[0], deltas[1]
	match := -1
	for j := 2; j+1 < len(deltas); j++ {
		if deltas[j] == d1 && deltas[j+1] == d2 {
			match = j
			break
		}
	}
	if match < 0 {
		return nil
	}
	g.stats.Matches++
	var out []mem.Addr
	cur := int64(blockNum)
	k := match - 1
	for len(out) < g.cfg.Degree {
		if k < 0 {
			k = match - 1
		}
		cur += deltas[k]
		k--
		if cur < 0 {
			break
		}
		out = append(out, mem.Addr(uint64(cur)*uint64(g.cfg.BlockSize)))
		g.stats.Prefetches++
	}
	return out
}

// TestEarlyStopMatchesFullWalk pins the early-stopping chain walk to the
// full walk it replaced: random miss sequences through both give
// identical prefetch addresses and identical Stats apart from
// ChainLength, which the early stop can only shorten. The sequences mix
// strides, repeating delta patterns and jumps over a few PCs, at sizes
// that wrap the buffer and at a chain bound shorter than the history.
func TestEarlyStopMatchesFullWalk(t *testing.T) {
	for _, cfg := range []Config{{}, {HistoryEntries: 16384}, {HistoryEntries: 1000, MaxChain: 9, Degree: 7}} {
		fast, ref := MustNew(cfg), MustNew(cfg)
		state := uint64(cfg.HistoryEntries) + 1
		rnd := func() uint64 {
			state = state*6364136223846793005 + 1442695040888963407
			return state >> 33
		}
		blocks := map[uint64]uint64{}
		for i := 0; i < 60_000; i++ {
			pc := 0x400 + rnd()%6*4
			pattern := []uint64{1, 1, 6, 2, 1 + pc%3}
			step := pattern[i%len(pattern)]
			switch r := rnd() % 16; {
			case r == 0:
				step = rnd() % 5000 // jump
			case r == 1:
				step = -step // reverse
			}
			blocks[pc] += step
			a := mem.Addr(blocks[pc] % (1 << 40) * 64)
			got := fast.Train(pc, a)
			want := ref.referencePredict(ref.record(pc, a))
			if !slices.Equal(got, want) {
				t.Fatalf("%+v, train %d: early stop %v, full walk %v", cfg, i, got, want)
			}
		}
		f, r := fast.Stats(), ref.Stats()
		if f.ChainLength > r.ChainLength {
			t.Errorf("%+v: early stop walked %d entries, full walk %d", cfg, f.ChainLength, r.ChainLength)
		}
		f.ChainLength, r.ChainLength = 0, 0
		if f != r {
			t.Fatalf("%+v: stats %+v, full walk %+v", cfg, f, r)
		}
		if f.Matches == 0 || f.Prefetches == 0 {
			t.Fatalf("%+v: stream never predicted (%+v)", cfg, f)
		}
	}
}

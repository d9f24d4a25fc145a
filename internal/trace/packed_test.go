package trace_test

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestPackedReplayEqualsGenerator: every built-in workload's trace, at
// the quick experiment length, packs, and every access path of its
// replay yields the generator's records.
func TestPackedReplayEqualsGenerator(t *testing.T) {
	cfg := workload.Config{CPUs: 2, Seed: 1, Length: 200_000}
	for _, w := range workload.All() {
		if w.External {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			want := trace.Collect(w.Make(cfg), 0)
			p, ok := trace.Pack(w.Make(cfg), cfg.Length)
			if !ok {
				t.Fatal("trace does not pack")
			}
			if got := p.NewSource().Records(); got != uint64(len(want)) {
				t.Fatalf("packed %d records, generator %d", got, len(want))
			}
			check := func(path string, got []trace.Record) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d records, want %d", path, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: record %d = %v, want %v", path, i, got[i], want[i])
					}
				}
			}
			check("Next", trace.Collect(p.NewSource(), 0))
			for _, size := range []int{1, 7, 4095, 4096, 5000} {
				src, buf := p.NewSource(), make([]trace.Record, size)
				var got []trace.Record
				for n := src.NextBatch(buf); n > 0; n = src.NextBatch(buf) {
					got = append(got, buf[:n]...)
				}
				check("NextBatch", got)
			}
			for _, max := range []int{1, 3, 4095, 4096, 10_000} {
				src := p.NewSource()
				var got []trace.Record
				for v := src.NextView(max); len(v) > 0; v = src.NextView(max) {
					if len(v) > max || len(v) > 4096 {
						t.Fatalf("NextView(%d) returned %d records", max, len(v))
					}
					got = append(got, v...)
				}
				check("NextView", got)
			}

			n := uint64(len(want))
			rng := rand.New(rand.NewSource(1))
			positions := []uint64{0, 1, 4095, 4096, 4097, 8191, 8192, 3 * 4096, n - 1, n, n + 1, 1 << 40}
			for range 20 {
				positions = append(positions, uint64(rng.Int63n(int64(n))))
			}
			src := p.NewSource()
			for _, pos := range positions {
				if err := src.Seek(pos); err != nil {
					t.Fatal(err)
				}
				got := src.NextView(5000)
				if pos >= n && len(got) != 0 || pos < n && len(got) != int(min(4096, n-pos)) {
					t.Fatalf("Seek(%d) of %d records: viewed %d", pos, n, len(got))
				}
				for i := range got {
					if got[i] != want[pos+uint64(i)] {
						t.Fatalf("Seek(%d): record %d = %v, want %v", pos, pos+uint64(i), got[i], want[pos+uint64(i)])
					}
				}
				next := pos + uint64(len(got))
				if r, ok := src.Next(); ok != (next < n) || ok && r != want[next] {
					t.Fatalf("Seek(%d): Next after the view = %v, %v", pos, r, ok)
				}
			}
		})
	}
}

// TestPackRefusesWideRecords: a PC of 2^32 or more, or a Seq step of
// 2^16 or more within a checkpoint interval, does not pack; the widest
// values that do pack replay unchanged.
func TestPackRefusesWideRecords(t *testing.T) {
	recs := func(pc, step uint64) []trace.Record {
		out := make([]trace.Record, 10)
		for i := range out {
			out[i] = trace.Record{Seq: 1000 + uint64(i)*step, PC: pc, Addr: 1 << 50, CPU: 3, Kind: trace.Write}
		}
		return out
	}
	for _, c := range []struct {
		pc, step uint64
		ok       bool
	}{
		{1<<32 - 1, 1<<16 - 1, true},
		{1 << 32, 1, false},
		{0x400000, 1 << 16, false},
	} {
		want := recs(c.pc, c.step)
		p, ok := trace.Pack(trace.NewSliceSource(want), uint64(len(want)))
		if ok != c.ok {
			t.Fatalf("PC %#x, step %d: packed %v, want %v", c.pc, c.step, ok, c.ok)
		}
		if !ok {
			continue
		}
		got := trace.Collect(p.NewSource(), 0)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("PC %#x, step %d: record %d = %v, want %v", c.pc, c.step, i, got[i], want[i])
			}
		}
	}
}

// TestPackIntoReusesArrays: packing into a trace with room keeps its
// arrays and replays exactly the new records, a shorter trace included;
// a trace without room, or none, gets new arrays.
func TestPackIntoReusesArrays(t *testing.T) {
	cfg := workload.Config{CPUs: 2, Seed: 1, Length: 20_000}
	gen := func(name string, n uint64) []trace.Record {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Length = n
		return trace.Collect(w.Make(c), 0)
	}
	pack := func(p *trace.Packed, recs []trace.Record) *trace.Packed {
		t.Helper()
		q, ok := trace.PackInto(p, trace.NewSliceSource(recs), uint64(len(recs)))
		if !ok {
			t.Fatal("trace does not pack")
		}
		got := trace.Collect(q.NewSource(), 0)
		if len(got) != len(recs) {
			t.Fatalf("replayed %d records, packed %d", len(got), len(recs))
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("record %d = %v, want %v", i, got[i], recs[i])
			}
		}
		return q
	}
	p := pack(nil, gen("oltp-db2", 20_000))
	if q := pack(p, gen("dss-q1", 20_000)); q != p {
		t.Fatal("a trace of the same length did not reuse the arrays")
	}
	if q := pack(p, gen("web-apache", 5_000)); q != p {
		t.Fatal("a shorter trace did not reuse the arrays")
	}
	if q := pack(p, gen("oltp-oracle", 30_000)); q == p {
		t.Fatal("a longer trace was packed into arrays without room")
	}
}

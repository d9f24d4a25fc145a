// Repository-level benchmark harness: one benchmark per table and figure
// in the paper's evaluation section. Each benchmark regenerates its
// figure's dataset end to end (trace generation → simulation → metric)
// on an abbreviated configuration and reports the figure's headline
// numbers as benchmark metrics.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-length figures (the numbers recorded in EXPERIMENTS.md) come from
// `go run ./cmd/smsexp all`.
package repro_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/ghb"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/stride"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchOptions returns small-but-meaningful experiment options; each
// benchmark builds a fresh session so cached results are not re-counted.
func benchOptions() exp.Options {
	return exp.Options{CPUs: 2, Seed: 1, Length: 120_000}
}

func BenchmarkTable1Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(benchOptions())
		if out := exp.Table1(s); out == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig4BlockSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(benchOptions())
		res, err := exp.Fig4(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: OLTP L2 opportunity at 8kB regions (the paper's
		// motivation: opportunity grows with region size).
		for _, row := range res.Rows {
			if row.Group == workload.GroupOLTP && row.Size == 8192 {
				b.ReportMetric(row.L2Opportunity, "oltp-l2-opportunity-8k")
			}
		}
	}
}

func BenchmarkFig5Density(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(benchOptions())
		res, err := exp.Fig5(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 22 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

func BenchmarkFig6Indexing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(benchOptions())
		res, err := exp.Fig6(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Group == workload.GroupDSS && row.Index == core.IndexPCOffset {
				b.ReportMetric(100*row.Coverage.Covered, "dss-pcoff-coverage-%")
			}
		}
	}
}

func BenchmarkFig7PHTStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(benchOptions())
		if _, err := exp.Fig7(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Training(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Session construction is excluded from the timed region: its
		// allocation count varies run to run (map growth, pool reuse),
		// which made identical commits record different allocs/op in
		// BENCH_history.jsonl. The figure computation is the thing being
		// measured and gated.
		b.StopTimer()
		s := exp.NewSession(benchOptions())
		b.StartTimer()
		res, err := exp.Fig8(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Group == workload.GroupOLTP && row.Train == exp.TrainDS {
				b.ReportMetric(100*row.Coverage.Uncovered, "oltp-ds-uncovered-%")
			}
		}
	}
}

func BenchmarkFig9TrainingStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(benchOptions())
		if _, err := exp.Fig9(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10RegionSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(benchOptions())
		if _, err := exp.Fig10(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAGTSizing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(benchOptions())
		if _, err := exp.AGTSizing(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11VsGHB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(benchOptions())
		res, err := exp.Fig11(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Workload == "sparse" && row.Variant == exp.VariantSMS {
				b.ReportMetric(100*row.Coverage.Covered, "sparse-sms-coverage-%")
			}
		}
	}
}

func BenchmarkFig12Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(benchOptions())
		res, err := exp.Fig12(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GeoMean, "geomean-speedup")
	}
}

func BenchmarkFig13Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(benchOptions())
		res, err := exp.Fig12(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if res.RenderBreakdown() == "" {
			b.Fatal("empty breakdown")
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(benchOptions())
		if _, err := exp.Ablate(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigureStore measures the cost of a figure regeneration against
// a cold store (every simulation runs, results are persisted) versus a
// warm one (the figure is a single store hit, zero simulations) — the gap
// is what the persistent store buys repeated smsexp/smsd invocations.
func BenchmarkFigureStore(b *testing.B) {
	const figure = "fig8"
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := store.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			s := exp.NewSession(benchOptions())
			s.SetStore(st)
			b.StartTimer()
			if _, err := s.Figure(context.Background(), figure); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		dir := b.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		warm := exp.NewSession(benchOptions())
		warm.SetStore(st)
		if _, err := warm.Figure(context.Background(), figure); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh store handle and session per iteration models a new
			// process hitting the same store directory.
			st, err := store.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			s := exp.NewSession(benchOptions())
			s.SetStore(st)
			if _, err := s.Figure(context.Background(), figure); err != nil {
				b.Fatal(err)
			}
			if s.Simulations() != 0 {
				b.Fatalf("warm store ran %d simulations", s.Simulations())
			}
		}
	})
}

// ---- component microbenchmarks ----

func BenchmarkSMSAccess(b *testing.B) {
	sms := core.MustNew(core.Config{})
	geo := sms.Geometry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := mem.Addr(uint64(i*64) & 0xFFFFFF)
		sms.Access(0x400100+uint64(i%8)*4, addr)
		if i%7 == 0 {
			sms.BlockRemoved(geo.BlockAddr(addr))
		}
		sms.NextStreamRequests(2)
	}
}

func BenchmarkGHBTrain(b *testing.B) {
	g := ghb.MustNew(ghb.Config{HistoryEntries: 16384})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Train(0x400100+uint64(i%16)*4, mem.Addr(uint64(i)*64))
	}
}

func BenchmarkStrideTrain(b *testing.B) {
	p := stride.MustNew(stride.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Train(0x400100+uint64(i%16)*4, mem.Addr(uint64(i)*128))
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	// End-to-end records/second through the batched hot path (the loop
	// RunContext runs): batched trace generation feeding the coherent
	// hierarchy with SMS attached, on the heaviest-interleaving
	// workload. ns/op is ns/record. A steady-state prewarm lets the
	// tables reach their working-set size so the measured loop shows
	// the zero-allocation regime the CI gate asserts.
	w, err := workload.ByName("oltp-oracle")
	if err != nil {
		b.Fatal(err)
	}
	runner := sim.MustNewRunner(sim.Config{PrefetcherName: "sms"})
	src := trace.Batched(w.Make(workload.Config{CPUs: 4, Seed: 1, Length: 1 << 62}))
	batch := make([]trace.Record, sim.DefaultBatchRecords)
	step := func(records int) {
		for records > 0 {
			n := len(batch)
			if n > records {
				n = records
			}
			n = src.NextBatch(batch[:n])
			if n == 0 {
				b.Fatal("source exhausted")
			}
			for i := range batch[:n] {
				runner.Step(batch[i])
			}
			records -= n
		}
	}
	step(500_000) // prewarm to steady state
	b.ReportAllocs()
	b.ResetTimer()
	step(b.N)
}

// BenchmarkStreamThroughput is BenchmarkSimulatorThroughput with the
// next-line prefetcher on em3d: about four stream requests per access,
// half of them L1 misses, so the stream issue and fill path
// (coherence.StreamInto and the runner's per-stream accounting) does
// most of the work. ns/op is ns/record; steady state must not allocate.
func BenchmarkStreamThroughput(b *testing.B) {
	w, err := workload.ByName("em3d")
	if err != nil {
		b.Fatal(err)
	}
	runner := sim.MustNewRunner(sim.Config{PrefetcherName: "nextline"})
	src := trace.Batched(w.Make(workload.Config{CPUs: 4, Seed: 1, Length: 1 << 62}))
	batch := make([]trace.Record, sim.DefaultBatchRecords)
	step := func(records int) {
		for records > 0 {
			n := src.NextBatch(batch[:min(len(batch), records)])
			if n == 0 {
				b.Fatal("source exhausted")
			}
			for i := range batch[:n] {
				runner.Step(batch[i])
			}
			records -= n
		}
	}
	step(500_000) // prewarm to steady state
	b.ReportAllocs()
	b.ResetTimer()
	step(b.N)
}

func BenchmarkSampledThroughput(b *testing.B) {
	// Sampled-mode records/second through RunContext: an in-memory
	// (seekable) replay of the same workload as SimulatorThroughput,
	// with SMARTS sampling skipping the cold gaps via Seek. ns/op is
	// ns per consumed trace record, so the ratio to
	// BenchmarkSimulatorThroughput is the sampled-mode speedup on
	// seekable sources. The window schedule is per-source, so one
	// runner consumes the corpus repeatedly; the measured loop must
	// stay allocation-free per record (the CI gate asserts it — the
	// few fixed allocations per RunContext call amortize to zero).
	w, err := workload.ByName("oltp-oracle")
	if err != nil {
		b.Fatal(err)
	}
	const corpus = 1 << 20
	recs := trace.Collect(w.Make(workload.Config{CPUs: 4, Seed: 1, Length: corpus}), 0)
	runner := sim.MustNewRunner(sim.Config{
		PrefetcherName: "sms",
		Sampling:       sim.SamplingConfig{WindowRecords: 2048, IntervalRecords: 16_384, WarmupRecords: 4096},
	})
	run := func(records int) {
		for records > 0 {
			n := records
			if n > len(recs) {
				n = len(recs)
			}
			if _, err := runner.RunContext(context.Background(), trace.NewSliceSource(recs[:n])); err != nil {
				b.Fatal(err)
			}
			records -= n
		}
	}
	run(500_000) // prewarm to steady state
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// BenchmarkPipelinedThroughput measures the end-to-end RunContext hot
// path — the exact route engine runs take, drain loop included — on the
// baseline (prefetcher-free) configuration. ns/op is ns/record. Its one
// leg keeps the name "serial" so recorded history stays comparable.
// Steady state is 0 allocs/op: the corpus is long enough that a timed
// run makes at most a handful of RunContext calls, whose per-call Result
// copy truncates to zero per record; scripts/bench.sh --check gates it
// with the other hot paths.
func BenchmarkPipelinedThroughput(b *testing.B) {
	w, err := workload.ByName("oltp-oracle")
	if err != nil {
		b.Fatal(err)
	}
	const corpus = 1 << 21
	recs := trace.Collect(w.Make(workload.Config{CPUs: 4, Seed: 1, Length: corpus}), 0)
	b.Run("serial", func(b *testing.B) {
		runner := sim.MustNewRunner(sim.Config{})
		run := func(records int) {
			for records > 0 {
				n := records
				if n > len(recs) {
					n = len(recs)
				}
				if _, err := runner.RunContext(context.Background(), trace.NewSliceSource(recs[:n])); err != nil {
					b.Fatal(err)
				}
				records -= n
			}
		}
		run(corpus / 2) // prewarm: tables reach working-set size
		b.ReportAllocs()
		b.ResetTimer()
		run(b.N)
	})
}

func BenchmarkTraceGeneration(b *testing.B) {
	// Batched generation throughput; ns/op is ns/record.
	w, err := workload.ByName("oltp-db2")
	if err != nil {
		b.Fatal(err)
	}
	src := trace.Batched(w.Make(workload.Config{CPUs: 4, Seed: 1, Length: 1 << 62}))
	batch := make([]trace.Record, sim.DefaultBatchRecords)
	b.ReportAllocs()
	b.ResetTimer()
	left := b.N
	for left > 0 {
		n := len(batch)
		if n > left {
			n = left
		}
		if n = src.NextBatch(batch[:n]); n == 0 {
			b.Fatal("source exhausted")
		}
		left -= n
	}
}

// BenchmarkTraceReplay is the replay half of the replay-vs-generate
// comparison (BenchmarkTraceGeneration is the other half, over the same
// workload): records/second decoded from an mmap'd v2 trace file
// through the zero-copy view path — the stream the engine's disk trace
// tier feeds to the simulator. ns/op is ns/record; steady state must
// run at 0 allocs/op (CI gate).
func BenchmarkTraceReplay(b *testing.B) {
	w, err := workload.ByName("oltp-db2")
	if err != nil {
		b.Fatal(err)
	}
	const records = 2_000_000
	path := filepath.Join(b.TempDir(), "bench.smst")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	tw, err := trace.NewV2Writer(f, trace.Header{CPUs: 4, Workload: "oltp-db2"})
	if err != nil {
		b.Fatal(err)
	}
	src := trace.Batched(w.Make(workload.Config{CPUs: 4, Seed: 1, Length: records}))
	buf := make([]trace.Record, sim.DefaultBatchRecords)
	for {
		n := src.NextBatch(buf)
		if n == 0 {
			break
		}
		if err := tw.WriteBatch(buf[:n]); err != nil {
			b.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}

	m, err := trace.OpenMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	var sink uint64
	replay := func(n int) {
		for n > 0 {
			v := m.NextView(sim.DefaultBatchRecords)
			if len(v) == 0 {
				m.Reset()
				continue
			}
			sink += v[len(v)-1].Seq
			n -= len(v)
		}
	}
	replay(records) // prewarm: fault the mapping in, size the decode buffer
	b.ReportAllocs()
	b.ResetTimer()
	replay(b.N)
	if sink == 0 {
		b.Fatal("replay produced nothing")
	}
}

// BenchmarkMemoReplay replays a 2M-record oltp-db2 trace from the
// engine's in-memory trace memo format (trace.Packed) through the view
// path the simulator drains it by, unpacking 16-byte records into
// Records. ns/op is ns/record; steady state must run at 0 allocs/op (CI
// gate).
func BenchmarkMemoReplay(b *testing.B) {
	w, err := workload.ByName("oltp-db2")
	if err != nil {
		b.Fatal(err)
	}
	const records = 2_000_000
	p, ok := trace.Pack(w.Make(workload.Config{CPUs: 4, Seed: 1, Length: records}), records)
	if !ok {
		b.Fatal("oltp-db2 trace does not pack")
	}
	src := p.NewSource()
	var sink uint64
	replay := func(n int) {
		for n > 0 {
			v := src.NextView(sim.DefaultBatchRecords)
			if len(v) == 0 {
				_ = src.Seek(0)
				continue
			}
			sink += v[len(v)-1].Seq
			n -= len(v)
		}
	}
	replay(sim.DefaultBatchRecords) // size the unpack buffer
	b.ReportAllocs()
	b.ResetTimer()
	replay(b.N)
	if sink == 0 {
		b.Fatal("replay produced nothing")
	}
}

func BenchmarkTraceIO(b *testing.B) {
	recs := make([]trace.Record, 1000)
	for i := range recs {
		recs[i] = trace.Record{Seq: uint64(i), PC: 0x400100, Addr: mem.Addr(i * 64)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink countingWriter
		tw, err := trace.NewWriter(&sink)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := tw.Write(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := tw.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// Command smsim runs one workload through the simulated memory system
// with a chosen prefetcher and prints miss, coverage and predictor
// statistics. It is the quickest way to poke at a single configuration.
//
// Examples:
//
//	smsim -workload oltp-db2 -prefetcher sms
//	smsim -workload dss-q1 -prefetcher ghb -ghb-entries 16384
//	smsim -workload sparse -prefetcher sms -region 4096 -pht 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/ghb"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"

	// Registered through the sim registry alone; imported so the scheme
	// is selectable here even if no library path pulls it in.
	_ "repro/internal/nextline"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body: it parses argv, simulates, prints the report
// to stdout and returns the exit code (2 for a usage error, 1 for a
// failed run).
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name       = fs.String("workload", "oltp-db2", "workload name (see -list)")
		list       = fs.Bool("list", false, "list workloads and exit")
		prefetcher = fs.String("prefetcher", "none", "prefetcher name: "+strings.Join(sim.Names(), " | "))
		cpus       = fs.Int("cpus", 4, "simulated processors")
		seed       = fs.Int64("seed", 1, "workload seed")
		length     = fs.Uint64("length", 1_200_000, "trace length in accesses (half warm-up)")
		region     = fs.Int("region", mem.DefaultRegionSize, "spatial region size in bytes")
		index      = fs.String("index", "PC+off", "SMS index: Addr | PC+addr | PC | PC+off")
		pht        = fs.Int("pht", core.DefaultPHTEntries, "PHT entries (0 = unbounded)")
		ghbEntries = fs.Int("ghb-entries", 256, "GHB history buffer entries")
		storeDir   = fs.String("store", "", "persistent result store directory (shared with smsexp/smsd)")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile (post-run) to this file")
		traceOut   = fs.String("trace-out", "", "write run-phase spans as Chrome trace-event JSON (load via chrome://tracing or ui.perfetto.dev)")

		sampleWindow   = fs.Uint64("sample-window", 0, "SMARTS sampling: detailed window length in records (0 = exact mode)")
		sampleInterval = fs.Uint64("sample-interval", 0, "SMARTS sampling: records per interval (0 = 50x window)")
		sampleWarmup   = fs.Uint64("sample-warmup", 0, "SMARTS sampling: functional-warming records before each window (0 = 4x window)")
		confidence     = fs.Float64("confidence", 0, "SMARTS sampling: confidence level for reported intervals (0 = 0.95)")
	)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "smsim:", err)
		return 1
	}

	// Profiling hooks: perf work on the simulator starts from a profile,
	// not a guess (see README "Performance"). The CPU profile covers the
	// whole run including trace generation; the heap profile is taken
	// after the run with an explicit GC so it shows retained structures,
	// not transient garbage.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fatal(err)
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "smsim: writing heap profile:", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, w := range workload.All() {
			fmt.Fprintf(stdout, "%-12s %-10s %s\n", w.Name, w.Group, w.Description)
		}
		return 0
	}

	w, err := workload.ByName(*name)
	if err != nil {
		return fatal(err)
	}
	idx, err := core.ParseIndexKind(*index)
	if err != nil {
		return fatal(err)
	}
	geo, err := mem.NewGeometry(mem.DefaultBlockSize, *region)
	if err != nil {
		return fatal(err)
	}
	phtEntries := *pht
	if phtEntries == 0 {
		phtEntries = -1
	}

	opts := exp.Options{CPUs: *cpus, Seed: *seed, Length: *length}
	cfg := sim.Config{
		Coherence:      opts.MemorySystem(64),
		Geometry:       geo,
		WarmupAccesses: *length / 2,
		SMS:            core.Config{Index: idx, PHTEntries: phtEntries},
		GHB:            ghb.Config{HistoryEntries: *ghbEntries},
		Sampling: sim.SamplingConfig{
			WindowRecords:   *sampleWindow,
			IntervalRecords: *sampleInterval,
			WarmupRecords:   *sampleWarmup,
			Confidence:      *confidence,
		},
	}
	if err := cfg.Sampling.Validate(); err != nil {
		return fatal(err)
	}
	pfName := strings.ToLower(*prefetcher)
	if pfName == "" {
		pfName = "none"
	}
	cfg.PrefetcherName = pfName

	// Running through the experiment session gives smsim the same store
	// flow and the same key derivation as smsexp and the smsd daemon: an
	// identical earlier run from any of the three is served from disk.
	// The signal context makes Ctrl-C stop the simulation mid-trace
	// through the engine's cancellation path.
	session := exp.NewSession(opts)
	if err := exp.AttachStore(session, *storeDir); err != nil {
		return fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}
	res, err := session.Run(ctx, w.Name, cfg)
	if err != nil {
		return fatal(err)
	}
	if tracer != nil {
		if err := writeChromeTrace(*traceOut, tracer); err != nil {
			return fatal(err)
		}
	}

	fmt.Fprintf(stdout, "workload        %s (%s)\n", w.Name, w.Group)
	fmt.Fprintf(stdout, "prefetcher      %s\n", pfName)
	if session.Store() != nil {
		state := "miss (simulated and stored)"
		if session.Simulations() == 0 {
			state = "hit (served from store)"
		}
		fmt.Fprintf(stdout, "store           %s, key %s\n", state, session.RunKey(w.Name, cfg)[:12])
	}
	fmt.Fprintf(stdout, "accesses        %d (reads %d, writes %d)\n", res.Accesses, res.Reads, res.Writes)
	fmt.Fprintf(stdout, "L1 read misses  %d (%.2f%% of reads)\n", res.L1ReadMisses, 100*res.L1MissesPerAccess())
	fmt.Fprintf(stdout, "off-chip reads  %d (%.2f%% of reads)\n", res.OffChipReadMisses, 100*res.OffChipMissesPerAccess())
	if s := res.Sampling; s != nil {
		fmt.Fprintf(stdout, "sampling        %d windows of %d records (interval %d, warmup %d), %.1f%% simulated\n",
			s.Windows, s.Config.WindowRecords, s.Config.IntervalRecords, s.Config.WarmupRecords,
			100*s.SimulatedFraction())
		for _, m := range s.Metrics {
			fmt.Fprintf(stdout, "  %-32s %.5f ± %.5f (std %.5f) at %.0f%% confidence\n",
				m.Name, m.Mean, m.HalfWidth, m.StdDev, 100*s.Config.Confidence)
		}
	}
	fmt.Fprintf(stdout, "coherence       %d off-chip read misses (%d false sharing)\n", res.CoherenceReadMisses, res.FalseSharingReadMisses)
	if pfName != "none" {
		fmt.Fprintf(stdout, "covered L1      %d\n", res.L1CoveredMisses)
		fmt.Fprintf(stdout, "covered offchip %d\n", res.OffChipCoveredMisses)
		fmt.Fprintf(stdout, "streams issued  %d (overpredictions %d, %.1f%% of streams)\n",
			res.StreamRequests, res.Overpredictions, 100*stats.Ratio(res.Overpredictions, res.StreamRequests))
	}
	for cpu, st := range res.SMSStats {
		fmt.Fprintf(stdout, "SMS[cpu%d]       triggers=%d learned=%d predictions=%d pht-hit=%.1f%%\n",
			cpu, st.Triggers, st.PatternsLearned, st.Predictions,
			100*stats.Ratio(st.PHT.Hits, st.PHT.Lookups))
	}
	if pfName == "sms" && *pht > 0 {
		budget := core.PHTStorage(geo, *pht, core.DefaultPHTAssoc)
		agt := core.AGTStorage(geo, core.DefaultFilterEntries, core.DefaultAccumEntries)
		fmt.Fprintf(stdout, "hardware budget per CPU: PHT %.1fKiB + AGT %.1fKiB\n", budget.KiB(), agt.KiB())
	}
	for cpu, st := range res.GHBStats {
		fmt.Fprintf(stdout, "GHB[cpu%d]       trains=%d matches=%d prefetches=%d\n", cpu, st.Trains, st.Matches, st.Prefetches)
	}
	for cpu, st := range res.PrefetcherStats {
		// Rendered as JSON, normalized through a generic value (maps
		// marshal with sorted keys), so a typed struct (fresh run) and
		// the map a store hit decodes to print identically.
		data, err := json.Marshal(st)
		if err == nil {
			var norm any
			if json.Unmarshal(data, &norm) == nil {
				if d, err := json.Marshal(norm); err == nil {
					data = d
				}
			}
			fmt.Fprintf(stdout, "%s[cpu%d]  %s\n", pfName, cpu, data)
			continue
		}
		fmt.Fprintf(stdout, "%s[cpu%d]  %+v\n", pfName, cpu, st)
	}
	return 0
}

// writeChromeTrace dumps the run's spans as Chrome trace-event JSON.
func writeChromeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

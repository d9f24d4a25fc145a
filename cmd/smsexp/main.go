// Command smsexp regenerates the paper's figures and tables.
//
// Usage:
//
//	smsexp [flags] <experiment> [<experiment> ...]
//	smsexp [flags] all
//
// Experiments: table1 fig4 fig5 fig6 fig7 fig8 fig9 fig10 agt fig11 fig12
// fig13 ablate headline sampled. Each prints a text table with the
// rows/series of the corresponding figure in Somogyi et al., "Spatial
// Memory Streaming" (ISCA 2006).
//
// With -sample (or an explicit -sample-window), every figure runs in
// SMARTS-style sampled mode: detailed measurement windows separated by
// functional warming and fast-forwarded gaps, with confidence intervals
// in the results. The `sampled` experiment validates the mode against
// exact runs.
//
// With -store DIR, simulation results and rendered figures persist in a
// content-addressed store, so regenerating a figure a second time — in
// this or any later process, including the smsd daemon — is a cache hit
// that performs no simulations.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	// Ctrl-C cancels the in-flight simulations through the engine's
	// context path instead of abandoning the process mid-figure.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main; it returns the process exit code.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smsexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cpus     = fs.Int("cpus", 4, "simulated processors")
		seed     = fs.Int64("seed", 1, "workload generation seed")
		length   = fs.Uint64("length", 1_200_000, "accesses per workload trace (half is warm-up)")
		parallel = fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		quick    = fs.Bool("quick", false, "abbreviated runs (overrides -cpus/-length)")
		storeDir = fs.String("store", "", "persistent result store directory (reused across runs and by smsd)")
		traceOut = fs.String("trace-out", "", "write run-phase spans as Chrome trace-event JSON (load via chrome://tracing or ui.perfetto.dev)")

		sample         = fs.Bool("sample", false, "run figures in SMARTS-style sampled mode with figure-scale defaults")
		sampleWindow   = fs.Uint64("sample-window", 0, "sampling: detailed window length in records (implies -sample)")
		sampleInterval = fs.Uint64("sample-interval", 0, "sampling: records per interval (0 = 50x window)")
		sampleWarmup   = fs.Uint64("sample-warmup", 0, "sampling: functional-warming records before each window (0 = 4x window)")
		confidence     = fs.Float64("confidence", 0, "sampling: confidence level for reported intervals (0 = 0.95)")
	)
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	opts := exp.CLIOptions(*cpus, *seed, *length, *parallel, *quick)
	if *sample || *sampleWindow > 0 {
		opts.Sampling = exp.SampledConfig(opts)
		if *sampleWindow > 0 {
			opts.Sampling = sim.SamplingConfig{
				WindowRecords:   *sampleWindow,
				IntervalRecords: *sampleInterval,
				WarmupRecords:   *sampleWarmup,
			}
		}
		if *confidence > 0 {
			opts.Sampling.Confidence = *confidence
		}
		if err := opts.Sampling.Validate(); err != nil {
			fmt.Fprintln(stderr, "smsexp:", err)
			return 2
		}
	}
	session := exp.NewSession(opts)
	if err := exp.AttachStore(session, *storeDir); err != nil {
		fmt.Fprintln(stderr, "smsexp:", err)
		return 1
	}

	// The tracer spans everything below — the prewarm grid and every
	// figure — so one trace file shows the whole invocation's timeline.
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}

	args := fs.Args()
	if len(args) == 1 && args[0] == "all" {
		args = exp.ExperimentNames()
	}
	// Validate every experiment name up front so a typo at the end of the
	// list cannot waste the simulations before it.
	registry := exp.Experiments()
	for _, name := range args {
		if _, ok := registry[name]; !ok {
			fmt.Fprintf(stderr, "smsexp: unknown experiment %q\nknown experiments: %s\n",
				name, strings.Join(exp.ExperimentNames(), " "))
			return 2
		}
	}

	// Multi-figure requests prewarm one merged grid first: every unique
	// simulation across the still-uncached figures runs exactly once,
	// with full cross-figure parallelism, and the per-figure renders
	// below become memoization hits. (Figures already persisted at the
	// figure level are excluded — prewarming them would simulate runs a
	// figure-cache hit skips entirely.)
	if len(args) > 1 {
		var cold []string
		for _, name := range args {
			if _, ok := session.CachedFigure(name); !ok {
				cold = append(cold, name)
			}
		}
		if plan, ok := exp.MergedPlan("prewarm", session.Options(), cold...); ok {
			start := time.Now()
			if _, err := session.Execute(ctx, plan); err != nil {
				fmt.Fprintf(stderr, "smsexp: prewarming shared grid: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "[prewarmed the %d-experiment shared grid in %v]\n",
				len(cold), time.Since(start).Round(time.Millisecond))
		}
	}

	for _, name := range args {
		start := time.Now()
		out, err := session.Figure(ctx, name)
		if err != nil {
			fmt.Fprintf(stderr, "smsexp: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintln(stdout, out)
		fmt.Fprintf(stderr, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "smsexp:", err)
			return 1
		}
		if err := tracer.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(stderr, "smsexp: writing trace:", err)
			return 1
		}
	}
	return 0
}

func usage(fs *flag.FlagSet, stderr io.Writer) {
	fmt.Fprintf(stderr, `smsexp regenerates the figures of "Spatial Memory Streaming" (ISCA 2006).

usage: smsexp [flags] <experiment> [<experiment> ...]
       smsexp [flags] all

experiments: %s

flags:
`, strings.Join(exp.ExperimentNames(), " "))
	fs.PrintDefaults()
}

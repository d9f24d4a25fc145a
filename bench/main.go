// Command bench is the repository's benchmark: four workloads that time
// the Spatial Memory Streaming simulator end to end, a traced mode that
// splits the time across its layers, exact-output checks against pinned
// digests, and a comparison of result files. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [-trace-out FILE]
//	bash bench/run.sh -all [-sets 2] -seed N [-pin] [-out FILE]
//	bash bench/run.sh -pin -seed N
//	bash bench/run.sh compare BASE.json [...] [-- CHANGE.json ...]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
)

func main() {
	// One simulation goroutine per core, never more, whatever the caller's
	// environment says.
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(mainWithArgs(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func mainWithArgs(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	if len(argv) > 0 && argv[0] == "compare" {
		if err := compareFiles(stdout, argv[1:]); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 1
		}
		return 0
	}

	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run one workload: "+workloadNames())
		seed     = fs.Int64("seed", 1, "workload generation seed")
		seconds  = fs.Float64("seconds", 20, "measuring time of one workload run, in seconds")
		traced   = fs.Int("trace", 0, "1: a traced run that reports the per-layer metrics instead of the end-to-end ones")
		traceOut = fs.String("trace-out", "", "with -trace 1, write every span as Chrome trace-event JSON to this file")
		all      = fs.Bool("all", false, "run every workload, each in its own process, and write a result file")
		sets     = fs.Int("sets", 1, "with -all: passes over the workloads, the order reversed in every second one")
		pin      = fs.Bool("pin", false, "record the seed's exact outputs from this commit into the pins directory")
		pinsDir  = fs.String("pins", "bench/pins", "pins directory")
		out      = fs.String("out", "", "with -all: result file (default .bench_build/results/seed-N-TIME.json)")
		workDir  = fs.String("work", ".bench_build/work", "scratch directory for stores and traces")
	)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}

	if *pin {
		if err := recordPins(ctx, *pinsDir, *seed, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !*all && *name == "" {
			return 0
		}
	}
	switch {
	case *all:
		opts := allOptions{seed: *seed, seconds: *seconds, sets: *sets, pinsDir: *pinsDir, out: *out, workDir: *workDir}
		if err := runAll(ctx, opts, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (workloads: %s)\n", *name, workloadNames())
			return 2
		}
		pins, err := loadPins(*pinsDir, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if pins == nil {
			fmt.Fprintf(stderr, "bench: seed %d is not pinned in %s; outputs are checked against this process's own reference runs only\n", *seed, *pinsDir)
		}
		cfg := runConfig{seed: *seed, seconds: *seconds, traced: *traced == 1, sc: fullScale, pins: pins, workDir: *workDir}
		if err := runOne(ctx, w, cfg, *traceOut, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	default:
		fs.Usage()
		return 2
	}
}

// runOne runs one workload in this process and prints its report, the
// result line last.
func runOne(ctx context.Context, w workloadDef, cfg runConfig, traceOut string, stdout, stderr io.Writer) error {
	rep, tracer, err := runWorkload(ctx, w, cfg)
	if err != nil {
		return err
	}
	if traceOut != "" && tracer != nil {
		if err := writeTrace(traceOut, tracer); err != nil {
			return err
		}
	}
	return rep.print(stdout, stderr)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// roundCapSeconds is the time a full measurement round of the benchmark
// — 4 runs plus 22 per workload, with set-up and two builds — must fit in.
const roundCapSeconds = 3420

// allOptions configures -all.
type allOptions struct {
	seed    int64
	seconds float64
	sets    int
	pinsDir string
	out     string
	workDir string
}

// runAll runs every workload, each in its own child process so each
// reports its own peak RSS, `sets` times over with the order reversed in
// every second set; writes the result file; and, with two sets or more,
// compares the sets against each other.
func runAll(ctx context.Context, o allOptions, stdout, stderr io.Writer) error {
	pins, err := loadPins(o.pinsDir, o.seed)
	if err != nil {
		return err
	}
	if pins == nil {
		return fmt.Errorf("seed %d is not pinned in %s: run with -pin to record its exact outputs from this commit, then check later commits against them", o.seed, o.pinsDir)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rf := resultFile{Env: currentEnvironment(o.seed), Seconds: o.seconds}
	start := time.Now()
	runs := 0
	for set := 0; set < o.sets; set++ {
		order := make([]string, 0, len(workloads))
		for _, w := range workloads {
			order = append(order, w.name)
		}
		if set%2 == 1 {
			slices.Reverse(order)
		}
		sr := setResult{Order: order, Workloads: map[string]workloadResult{}}
		for _, name := range order {
			t0 := time.Now()
			wr, err := runChild(ctx, exe, name, o, stdout, stderr)
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", set+1, name, err)
			}
			wr.ElapsedS = time.Since(t0).Seconds()
			sr.Workloads[name] = wr
			runs++
		}
		rf.Sets = append(rf.Sets, sr)
	}
	elapsed := time.Since(start).Seconds()

	out := o.out
	if out == "" {
		out = filepath.Join(".bench_build", "results", fmt.Sprintf("seed-%d-%s.json", o.seed, time.Now().UTC().Format("20060102T150405Z")))
	}
	if err := writeJSON(out, rf); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)

	roundRuns := 4 + 22*len(workloads)
	perRun := elapsed / float64(runs)
	fmt.Fprintf(stdout, "elapsed %.1f s for %d set(s), %d runs, %.1f s per run; a full round of %d runs at this pace takes about %.0f s of its %d s cap, before builds and traced runs\n",
		elapsed, o.sets, runs, perRun, roundRuns, perRun*float64(roundRuns), roundCapSeconds)
	if o.sets >= 2 {
		fmt.Fprintln(stdout, "\nodd sets (A) against even sets (B):")
		if n := compareSets(stdout, rf); n > 0 {
			return fmt.Errorf("%d pair(s) of the same code disagree beyond their bounds", n)
		}
	}
	return nil
}

// runChild runs one workload in a child process, echoes its output, and
// parses its metric lines and result line.
func runChild(ctx context.Context, exe, name string, o allOptions, stdout, stderr io.Writer) (workloadResult, error) {
	var wr workloadResult
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", "0",
		"-pins", o.pinsDir,
		"-work", o.workDir)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return wr, err
	}
	if err := cmd.Start(); err != nil {
		return wr, err
	}
	var last string
	wr.Extra = map[string]metric{}
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		text := sc.Text()
		fmt.Fprintln(stdout, text)
		last = text
		if f := strings.Fields(text); len(f) == 4 && f[0] == name {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				wr.Extra[f[1]] = metric{Value: v, Unit: f[3]}
			}
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return wr, err
	}
	if scanErr != nil {
		return wr, scanErr
	}
	if err := json.Unmarshal([]byte(last), &wr.outcome); err != nil {
		return wr, fmt.Errorf("decoding the result line %q: %w", last, err)
	}
	for name := range wr.Metrics {
		delete(wr.Extra, name)
	}
	return wr, nil
}

// recordPins computes every workload's exact outputs for the seed at
// full scale and writes the seed's pin file.
func recordPins(ctx context.Context, dir string, seed int64, stderr io.Writer) error {
	p := &pinFile{Seed: seed, Commit: commit(), Workloads: map[string]workloadPin{}}
	for _, w := range workloads {
		t0 := time.Now()
		wp, err := w.pin(ctx, seed, fullScale)
		if err != nil {
			return fmt.Errorf("pinning %s: %w", w.name, err)
		}
		p.Workloads[w.name] = wp
		fmt.Fprintf(stderr, "pinned %s for seed %d in %.1f s\n", w.name, seed, time.Since(t0).Seconds())
	}
	if err := savePins(dir, p); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", pinPath(dir, seed))
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTrace writes the run's spans as Chrome trace-event JSON.
func writeTrace(path string, t *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

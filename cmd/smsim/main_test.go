package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// captureTrace writes an 8-CPU sparse trace to a v2 file.
func captureTrace(t *testing.T) string {
	t.Helper()
	w, err := workload.ByName("sparse")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "eight.smst")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := trace.NewV2Writer(f, trace.Header{CPUs: 8, Workload: "sparse"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteBatch(trace.Collect(w.Make(workload.Config{CPUs: 8, Seed: 1, Length: 4_000}), 0)); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestExitCodes(t *testing.T) {
	eight := "trace:" + captureTrace(t)
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"help", []string{"-h"}, 0, "usage"},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2, "not defined"},
		{"unknown workload", []string{"-workload", "nope"}, 1, "unknown workload"},
		{"unknown prefetcher", []string{"-workload", "sparse", "-prefetcher", "bogus", "-length", "4000"}, 1, "bogus"},
		{"trace with more CPUs than the run", []string{"-workload", eight, "-prefetcher", "sms", "-length", "4000"}, 1, "declares 8 CPUs, more than the run's 4"},
		{"trace with as many CPUs as the run", []string{"-workload", eight, "-prefetcher", "sms", "-length", "4000", "-cpus", "8"}, 0, ""},
	}
	for _, tc := range cases {
		code, _, stderr := runCLI(t, tc.args...)
		if code != tc.code {
			t.Errorf("%s: exit = %d, want %d (stderr: %s)", tc.name, code, tc.code, stderr)
		}
		if !strings.Contains(strings.ToLower(stderr), strings.ToLower(tc.stderr)) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, stderr, tc.stderr)
		}
	}
}

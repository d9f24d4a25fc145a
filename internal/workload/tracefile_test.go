package workload

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
)

// captureV2 writes workload name's trace under cfg to a v2 file.
func captureV2(t *testing.T, name string, cfg Config) (string, []trace.Record) {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	recs := trace.Collect(w.Make(cfg), 0)
	path := filepath.Join(t.TempDir(), "capture.smst")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := trace.NewV2Writer(f, trace.Header{CPUs: cfg.CPUs, Workload: name})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, recs
}

func TestTraceWorkloadReplaysFile(t *testing.T) {
	cfg := Config{CPUs: 2, Seed: 3, Length: 12_000}
	path, recs := captureV2(t, "dss-q1", cfg)

	w, err := ByName(TracePrefix + path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Group != GroupTrace || !w.External || w.Name != TracePrefix+path {
		t.Fatalf("trace workload = %+v", w)
	}

	// The replay ignores CPUs/seed/scale and reproduces the capture.
	got := trace.Collect(w.Make(Config{CPUs: 16, Seed: 99, Scale: 4}), 0)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}

	// Length caps the replay; two sources are independent streams.
	a := w.Make(Config{Length: 100})
	b := w.Make(Config{})
	if n := len(trace.Collect(a, 0)); n != 100 {
		t.Fatalf("Length cap yielded %d records", n)
	}
	if n := len(trace.Collect(b, 0)); n != len(recs) {
		t.Fatalf("uncapped source yielded %d records", n)
	}

	// Second lookup reuses the cached file handle.
	again, err := ByName(TracePrefix + path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(trace.Collect(again.Make(Config{}), 0)); n != len(recs) {
		t.Fatalf("cached handle yielded %d records", n)
	}
}

func TestTraceWorkloadReopensOverwrittenFile(t *testing.T) {
	cfg := Config{CPUs: 1, Seed: 1, Length: 2000}
	path, _ := captureV2(t, "sparse", cfg)
	w, err := ByName(TracePrefix + path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(trace.Collect(w.Make(Config{}), 0)); n != 2000 {
		t.Fatalf("first capture yielded %d records", n)
	}

	// Re-capture over the same path with a different length: the next
	// lookup must serve the new file, not the stale cached mapping.
	other, _ := captureV2(t, "sparse", Config{CPUs: 1, Seed: 2, Length: 3000})
	data, err := os.ReadFile(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := ByName(TracePrefix + path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(trace.Collect(w2.Make(Config{}), 0)); n != 3000 {
		t.Fatalf("overwritten capture yielded %d records, want 3000", n)
	}
}

func TestTraceWorkloadStaysOutOfAll(t *testing.T) {
	before := len(All())
	path, _ := captureV2(t, "sparse", Config{CPUs: 1, Seed: 1, Length: 1000})
	if _, err := OpenTraceWorkload(path); err != nil {
		t.Fatal(err)
	}
	if got := len(All()); got != before {
		t.Fatalf("All() grew from %d to %d after registering a trace workload", before, got)
	}
}

func TestTraceWorkloadErrors(t *testing.T) {
	if _, err := ByName("trace:"); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := ByName("trace:" + filepath.Join(t.TempDir(), "missing.smst")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.smst")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("trace:" + bad); !errors.Is(err, trace.ErrBadFormat) {
		t.Errorf("garbage file error = %v, want ErrBadFormat", err)
	}
}

// sourceErr returns the error a source latched, if it reports one.
func sourceErr(src trace.Source) error {
	if e, ok := src.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// TestTraceWorkloadBoundsCPUs: a replay never hands the simulator a
// record naming a CPU the run does not have. A file whose header
// declares more CPUs than the run yields nothing and an error naming
// both counts; a v1 file, which declares none, ends at its first record
// out of range with an error naming it.
func TestTraceWorkloadBoundsCPUs(t *testing.T) {
	path, recs := captureV2(t, "sparse", Config{CPUs: 8, Seed: 1, Length: 4_000})
	w, err := ByName(TracePrefix + path)
	if err != nil {
		t.Fatal(err)
	}
	src := w.Make(Config{CPUs: 4})
	if n := len(trace.Collect(src, 0)); n != 0 {
		t.Errorf("8-CPU file on a 4-CPU run replayed %d records, want 0", n)
	}
	if err := sourceErr(src); err == nil || !strings.Contains(err.Error(), "8 CPUs") || !strings.Contains(err.Error(), "4") {
		t.Errorf("8-CPU file on a 4-CPU run: err = %v, want one naming both counts", err)
	}

	v1 := filepath.Join(t.TempDir(), "v1.smst")
	f, err := os.Create(v1)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	first := slices.IndexFunc(recs, func(r trace.Record) bool { return r.CPU >= 4 })
	if first < 0 {
		t.Fatal("the 8-CPU capture names no CPU above 3")
	}
	w1, err := ByName(TracePrefix + v1)
	if err != nil {
		t.Fatal(err)
	}
	src = w1.Make(Config{CPUs: 4})
	got := trace.Collect(src, 0)
	if len(got) != first || !slices.Equal(got, recs[:first]) {
		t.Errorf("v1 replay on a 4-CPU run yielded %d records, want the %d before the first out of range", len(got), first)
	}
	if err := sourceErr(src); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("record %d", first)) {
		t.Errorf("v1 replay on a 4-CPU run: err = %v, want one naming record %d", err, first)
	}
	// With enough CPUs, the same file replays in full.
	src = w1.Make(Config{CPUs: 8})
	if got := trace.Collect(src, 0); !slices.Equal(got, recs) || sourceErr(src) != nil {
		t.Errorf("v1 replay on an 8-CPU run: %d records, err %v", len(got), sourceErr(src))
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestGenStatDumpSliceConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.smst")

	code, out, stderr := runCLI(t, "gen", "-workload", "sparse", "-o", path, "-cpus", "2", "-length", "5000", "-block", "512")
	if code != 0 {
		t.Fatalf("gen exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "wrote 5000 records") {
		t.Fatalf("gen output:\n%s", out)
	}

	// stat is index-backed on v2: records/blocks come from the footer.
	code, out, _ = runCLI(t, "stat", "-i", path)
	if code != 0 {
		t.Fatalf("stat exit = %d", code)
	}
	for _, want := range []string{"format          v2", "records         5000", "blocks          10", "workload        sparse", "cpus            2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stat output missing %q:\n%s", want, out)
		}
	}
	// -full decodes and reports content statistics.
	code, out, _ = runCLI(t, "stat", "-i", path, "-full")
	if code != 0 || !strings.Contains(out, "distinct PCs") || !strings.Contains(out, "writes") {
		t.Fatalf("stat -full exit %d output:\n%s", code, out)
	}

	// dump -skip is an index seek; the first printed record must be
	// record 4000 of the capture.
	w, err := workload.ByName("sparse")
	if err != nil {
		t.Fatal(err)
	}
	recs := trace.Collect(w.Make(workload.Config{CPUs: 2, Seed: 1, Length: 5000}), 0)
	code, out, _ = runCLI(t, "dump", "-i", path, "-n", "3", "-skip", "4000")
	if code != 0 {
		t.Fatalf("dump exit = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 || lines[0] != recs[4000].String() {
		t.Fatalf("dump -skip 4000 printed:\n%s\nwant first line %q", out, recs[4000].String())
	}

	// slice [1000,1250) and verify the extracted records.
	slicePath := filepath.Join(dir, "slice.smst")
	code, _, stderr = runCLI(t, "slice", "-i", path, "-o", slicePath, "-skip", "1000", "-n", "250")
	if code != 0 {
		t.Fatalf("slice exit = %d, stderr:\n%s", code, stderr)
	}
	sf, err := trace.OpenFile(slicePath)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	got := trace.Collect(sf.NewSource(), 0)
	if len(got) != 250 {
		t.Fatalf("slice holds %d records", len(got))
	}
	for i := range got {
		if got[i] != recs[1000+i] {
			t.Fatalf("slice record %d mismatch", i)
		}
	}
	if sf.Info().Workload != "sparse" {
		t.Fatalf("slice lost the source workload: %+v", sf.Info())
	}

	// convert v1 -> v2 preserves the stream exactly. The CLI writes
	// only v2; the legacy input comes from the library's v1 writer.
	v1Path := filepath.Join(dir, "t1.smst")
	v2Path := filepath.Join(dir, "t2.smst")
	writeV1(t, v1Path, recs)
	if code, _, stderr = runCLI(t, "convert", "-i", v1Path, "-o", v2Path); code != 0 {
		t.Fatalf("convert to v2 exit = %d, stderr:\n%s", code, stderr)
	}
	rf, err := trace.OpenFile(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	back := trace.Collect(rf.NewSource(), 0)
	if len(back) != len(recs) {
		t.Fatalf("round trip lost records: %d vs %d", len(back), len(recs))
	}
	for i := range back {
		if back[i] != recs[i] {
			t.Fatalf("round-trip record %d mismatch", i)
		}
	}
}

// writeV1 writes recs as a legacy v1 trace file.
func writeV1(t *testing.T, path string, recs []trace.Record) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if info, err := trace.Stat(path); err != nil || info.Version != 1 {
		t.Fatalf("v1 writer produced %+v (%v)", info, err)
	}
}

func TestGenStoreCapturesIntoTraceTier(t *testing.T) {
	dir := t.TempDir()
	code, out, stderr := runCLI(t, "gen", "-workload", "dss-q1", "-store", dir, "-cpus", "2", "-length", "3000")
	if code != 0 {
		t.Fatalf("gen -store exit = %d, stderr:\n%s", code, stderr)
	}
	key := store.ForTrace("dss-q1", workload.Config{CPUs: 2, Seed: 1, Length: 3000})
	if !strings.Contains(out, key) {
		t.Fatalf("gen -store did not print the content address %s:\n%s", key, out)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := st.OpenTrace(key)
	if !ok {
		t.Fatal("capture not found in the trace tier")
	}
	defer f.Close()
	if f.Info().Records != 3000 || f.Info().Workload != "dss-q1" || f.Info().WorkloadHash != key {
		t.Fatalf("tier capture info = %+v", f.Info())
	}
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "g.smst")
	if code, _, _ := runCLI(t, "gen", "-workload", "sparse", "-o", good, "-length", "100"); code != 0 {
		t.Fatal("setup gen failed")
	}
	bad := filepath.Join(dir, "bad.smst")
	if err := os.WriteFile(bad, []byte("not a trace file at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		code int
	}{
		{"no args", nil, 2},
		{"unknown command", []string{"frobnicate"}, 2},
		{"help", []string{"help"}, 0},
		{"gen bad flag", []string{"gen", "-definitely-not-a-flag"}, 2},
		{"gen no output", []string{"gen", "-workload", "sparse"}, 2},
		{"gen both outputs", []string{"gen", "-workload", "sparse", "-o", "x", "-store", dir}, 2},
		{"gen unknown workload", []string{"gen", "-workload", "nope", "-o", filepath.Join(dir, "x")}, 1},
		{"stat missing file", []string{"stat", "-i", filepath.Join(dir, "missing")}, 1},
		{"stat garbage file", []string{"stat", "-i", bad}, 1},
		{"dump garbage file", []string{"dump", "-i", bad}, 1},
		{"slice missing io", []string{"slice", "-i", good}, 2},
		{"convert missing io", []string{"convert", "-o", "x"}, 2},
	}
	for _, tc := range cases {
		if code, _, stderr := runCLI(t, tc.args...); code != tc.code {
			t.Errorf("%s: exit = %d, want %d (stderr: %s)", tc.name, code, tc.code, stderr)
		}
	}
}

func TestDumpTraceWorkloadNameAlsoWorks(t *testing.T) {
	// gen accepts a trace: source too, so the toolchain can re-capture
	// (e.g. re-block) an existing file through the workload family.
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig.smst")
	if code, _, _ := runCLI(t, "gen", "-workload", "sparse", "-o", orig, "-length", "400"); code != 0 {
		t.Fatal("setup gen failed")
	}
	re := filepath.Join(dir, "re.smst")
	code, _, stderr := runCLI(t, "gen", "-workload", "trace:"+orig, "-o", re, "-length", "400")
	if code != 0 {
		t.Fatalf("gen from trace: source exit = %d, stderr:\n%s", code, stderr)
	}
	a, err := trace.OpenFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := trace.OpenFile(re)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ra := trace.Collect(a.NewSource(), 0)
	rb := trace.Collect(b.NewSource(), 0)
	if len(ra) != len(rb) {
		t.Fatalf("re-capture has %d records, want %d", len(rb), len(ra))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("re-captured record %d mismatch", i)
		}
	}
}

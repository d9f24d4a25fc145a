package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func traceRecords(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Seq: uint64(i * 3), PC: 0x400000 + uint64(i%8)*4,
			Addr: mem.Addr(1<<30 + uint64(i%64)*64), CPU: uint8(i % 2), Kind: trace.Kind(i % 2)}
	}
	return recs
}

func TestForTraceCanonicalizes(t *testing.T) {
	a := ForTrace("oltp-db2", workload.Config{CPUs: 4, Seed: 1})
	b := ForTrace("oltp-db2", workload.Config{CPUs: 4, Seed: 1, Scale: 1.0, Length: workload.DefaultLength})
	if a != b {
		t.Error("equivalent configs hash differently")
	}
	if a == ForTrace("dss-q1", workload.Config{CPUs: 4, Seed: 1}) {
		t.Error("workload name not in key")
	}
	if a == ForTrace("oltp-db2", workload.Config{CPUs: 4, Seed: 2}) {
		t.Error("seed not in key")
	}
	if a == ForRun("oltp-db2", workload.Config{CPUs: 4, Seed: 1}, sim.Config{}) {
		t.Error("trace key collides with a run key")
	}
}

func TestTraceTierRoundTripAndStats(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.Config{CPUs: 2, Seed: 7, Length: 5000}
	key := ForTrace("sparse", wcfg)
	recs := traceRecords(5000)

	if s.HasTrace(key) {
		t.Fatal("empty store has a trace")
	}
	if _, ok := s.OpenTrace(key); ok {
		t.Fatal("miss reported as hit")
	}
	hdr := trace.Header{CPUs: 2, Workload: "sparse", WorkloadHash: key}
	if err := s.PutTrace(key, hdr, trace.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	if !s.HasTrace(key) {
		t.Fatal("written trace not found")
	}

	f, ok := s.OpenTrace(key)
	if !ok {
		t.Fatal("written trace did not open")
	}
	defer f.Close()
	if f.Info().Workload != "sparse" || f.Info().WorkloadHash != key || f.Info().Records != 5000 {
		t.Fatalf("trace info = %+v", f.Info())
	}
	got := trace.Collect(f.NewSource(), 0)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records", len(got))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}

	st := s.Stats()
	if st.TraceWrites != 1 || st.TraceHits != 1 || st.TraceMisses != 1 || st.TraceBytesWritten == 0 {
		t.Fatalf("stats = %+v", st)
	}

	infos, err := s.ListTraces()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Key != key || infos[0].Records != 5000 ||
		infos[0].Workload != "sparse" || infos[0].Bytes == 0 {
		t.Fatalf("ListTraces = %+v", infos)
	}
}

func TestTraceTierCorruptArtifactIsAMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := ForTrace("sparse", workload.Config{CPUs: 1, Seed: 1, Length: 10})
	if err := s.PutTrace(key, trace.Header{}, trace.NewSliceSource(traceRecords(10))); err != nil {
		t.Fatal(err)
	}
	path := s.tracePath(key)
	if err := os.WriteFile(path, []byte("SMSTgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.OpenTrace(key); ok {
		t.Fatal("corrupt trace opened")
	}
	if st := s.Stats(); st.Corrupt == 0 || st.TraceMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// A torn artifact does not break listing either.
	if infos, err := s.ListTraces(); err != nil || len(infos) != 0 {
		t.Fatalf("ListTraces over corrupt artifact = %v, %v", infos, err)
	}
}

func TestTraceSinkAbortLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ForTrace("sparse", workload.Config{CPUs: 1, Seed: 2})
	ts, err := s.BeginTrace(key, trace.Header{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.W.WriteBatch(traceRecords(100)); err != nil {
		t.Fatal(err)
	}
	ts.Abort()
	if s.HasTrace(key) {
		t.Fatal("aborted trace published")
	}
	left, err := filepath.Glob(filepath.Join(dir, "traces", "*", "*"))
	if err != nil || len(left) != 0 {
		t.Fatalf("aborted sink left files: %v (%v)", left, err)
	}
}

// v2Artifact encodes recs as the raw bytes of a v2 trace artifact whose
// header carries hash and cpus, in blocks of 16 records.
func v2Artifact(t testing.TB, hash string, cpus int, recs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewV2Writer(&buf, trace.Header{CPUs: cpus, Workload: "sparse", WorkloadHash: hash, BlockRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPutTraceRawRejectsForeignHash: an upload whose header names
// another workload identity is refused and never published, so the tier
// cannot replay one workload's trace as another's.
func TestPutTraceRawRejectsForeignHash(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.Config{CPUs: 2, Seed: 1, Length: 500}
	key := ForTrace("oltp-oracle", wcfg)
	foreign := v2Artifact(t, ForTrace("dss-q1", wcfg), 2, traceRecords(500))
	if _, err := s.PutTraceRaw(key, bytes.NewReader(foreign)); err == nil {
		t.Fatal("artifact of another workload accepted")
	}
	if s.HasTrace(key) {
		t.Fatal("rejected artifact published")
	}
	if _, err := s.PutTraceRaw(key, bytes.NewReader(v2Artifact(t, key, 2, traceRecords(500)))); err != nil {
		t.Fatalf("own artifact refused: %v", err)
	}
	f, ok := s.OpenTrace(key)
	if !ok {
		t.Fatal("accepted artifact does not open")
	}
	f.Close()
}

// TestPutTraceRawRejectsMissingCPUCount: an upload whose header declares
// no CPU count is refused, since nothing would bound its records' CPUs.
func TestPutTraceRawRejectsMissingCPUCount(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := ForTrace("sparse", workload.Config{CPUs: 2, Seed: 1, Length: 500})
	if _, err := s.PutTraceRaw(key, bytes.NewReader(v2Artifact(t, key, 0, traceRecords(500)))); err == nil {
		t.Fatal("artifact without a CPU count accepted")
	}
	if s.HasTrace(key) {
		t.Fatal("rejected artifact published")
	}
}

// TestOpenTraceQuarantinesForeignHash: an artifact that sits at a key
// other than its header's hash (written locally, past PutTraceRaw) is
// corrupt: it is quarantined and reported as a miss.
func TestOpenTraceQuarantinesForeignHash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.Config{CPUs: 2, Seed: 1, Length: 500}
	key := ForTrace("oltp-oracle", wcfg)
	hdr := trace.Header{CPUs: 2, Workload: "dss-q1", WorkloadHash: ForTrace("dss-q1", wcfg)}
	// The store writes no such artifact itself (TestBeginTraceBindsHashToKey),
	// so place one at the tier path the way a foreign copy would land.
	path := s.tracePath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewV2Writer(f, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(traceRecords(500)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f, ok := s.OpenTrace(key); ok {
		f.Close()
		t.Fatal("trace served under another workload's key")
	}
	if s.HasTrace(key) {
		t.Fatal("mismatched trace still addressable after quarantine")
	}
	if _, err := os.Stat(filepath.Join(dir, "corrupt", kindTrace, key+".smst")); err != nil {
		t.Fatalf("mismatched trace not quarantined: %v", err)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.TraceMisses != 1 || st.TraceHits != 0 {
		t.Fatalf("stats = %+v, want one corrupt miss", st)
	}
}

// TestBeginTraceBindsHashToKey: an artifact's header carries its key as
// the workload hash. An empty hash is filled in, so the artifact is
// served; a different one is refused before any file is created.
func TestBeginTraceBindsHashToKey(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.Config{CPUs: 2, Seed: 1, Length: 500}
	key := ForTrace("oltp-oracle", wcfg)
	foreign := trace.Header{CPUs: 2, Workload: "dss-q1", WorkloadHash: ForTrace("dss-q1", wcfg)}
	if err := s.PutTrace(key, foreign, trace.NewSliceSource(traceRecords(500))); err == nil {
		t.Fatal("foreign workload hash accepted")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, kindTrace, "*", "*")); len(left) != 0 {
		t.Fatalf("refused write left files behind: %v", left)
	}

	if err := s.PutTrace(key, trace.Header{CPUs: 2, Workload: "oltp-oracle"}, trace.NewSliceSource(traceRecords(500))); err != nil {
		t.Fatal(err)
	}
	f, ok := s.OpenTrace(key)
	if !ok {
		t.Fatal("artifact written without a hash is not served")
	}
	defer f.Close()
	if got := f.Info().WorkloadHash; got != key {
		t.Fatalf("header workload hash = %q, want the key", got)
	}
	if st := s.Stats(); st.Corrupt != 0 || st.TraceHits != 1 {
		t.Fatalf("stats = %+v, want one clean hit", st)
	}
}

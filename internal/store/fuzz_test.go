package store

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// FuzzPutTraceRaw fuzzes the trace-upload boundary (PUT
// /v1/store/traces/{key} and the cluster's artifact pulls). The contract:
// PutTraceRaw never panics, a rejected upload publishes nothing, and an
// accepted artifact carries its key as its workload hash and a CPU
// count, opens under it, and replays either to the record count its
// index declares or to a latched decode error, never to a silently short
// trace, and never a record naming a CPU past the header's count.
func FuzzPutTraceRaw(f *testing.F) {
	wcfg := workload.Config{CPUs: 2, Seed: 1, Length: 40}
	key := ForTrace("sparse", wcfg)
	valid := v2Artifact(f, key, 2, traceRecords(40))
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	flipped := append([]byte(nil), valid...)
	flipped[66+len("sparse")] ^= 0xff // the first block's record count
	f.Add(flipped)
	f.Add(v2Artifact(f, ForTrace("dss-q1", wcfg), 2, traceRecords(40)))
	// A CPU column naming CPU 2 under a header patched down to 2 CPUs.
	recs := traceRecords(40)
	recs[20].CPU = 2
	wide := v2Artifact(f, key, 3, recs)
	wide[8] = 2 // header CPU count, [8:12] little-endian
	f.Add(wide)

	// One store per fuzzing process, emptied before every input, keeps an
	// execution to a few file operations.
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.Remove(s.tracePath(key)); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		checkTraceUpload(t, s, key, data)
	})
}

// checkTraceUpload is FuzzPutTraceRaw's property for one upload into s.
func checkTraceUpload(t *testing.T, s *Store, key string, data []byte) {
	n, err := s.PutTraceRaw(key, bytes.NewReader(data))
	if err != nil {
		if s.HasTrace(key) {
			t.Fatalf("rejected upload published: %v", err)
		}
		return
	}
	if n != int64(len(data)) {
		t.Fatalf("wrote %d of %d bytes", n, len(data))
	}
	file, ok := s.OpenTrace(key)
	if !ok {
		t.Fatal("accepted artifact does not open")
	}
	defer file.Close()
	info := file.Info()
	if info.WorkloadHash != key {
		t.Fatalf("accepted artifact carries workload hash %q, not its key", info.WorkloadHash)
	}
	if info.CPUs == 0 {
		t.Fatal("accepted artifact declares no CPU count")
	}
	src := file.NewSource()
	buf := make([]trace.Record, 128)
	var got uint64
	for {
		k := src.NextBatch(buf)
		if k == 0 {
			break
		}
		for _, rec := range buf[:k] {
			if int(rec.CPU) >= info.CPUs {
				t.Fatalf("replayed a record of CPU %d from a %d-CPU artifact", rec.CPU, info.CPUs)
			}
		}
		got += uint64(k)
	}
	if err := src.(interface{ Err() error }).Err(); err != nil {
		if !errors.Is(err, trace.ErrBadFormat) {
			t.Fatalf("latched error %v is not ErrBadFormat", err)
		}
		return
	}
	if want := info.Records; got != want {
		t.Fatalf("replayed %d records of %d without an error", got, want)
	}
}

package store

// The trace tier: content-addressed v2 trace files alongside the JSON
// result/figure objects. Where results are small JSON documents, traces
// are large binary artifacts replayed by mmap, so they get their own
// object kind with file-granular access instead of the byte-slice LRU:
//
//	<dir>/traces/<hh>/<hash>.smst   one v2 trace per workload identity
//
// A trace's address is the SHA-256 of the canonical JSON of its source
// identity — workload name + canonical generation config + the version
// salt (ForTrace). The engine writes generated traces through this tier
// and replays them across process restarts, so a warm store means zero
// trace generations for any grid it has seen.
//
// Writes go through BeginTrace: the v2 file is assembled in a temp file
// in the final directory and renamed into place on Commit, so readers
// never observe a partial trace. Opens are corruption-tolerant: a trace
// that fails validation (trace.OpenFile parses the header, index and
// CRC) is a miss, never an error.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/workload"
)

const kindTrace = "traces"

// traceIdentity is the hashed form of one generated trace. Field order
// is the serialization order; do not reorder without bumping VersionSalt.
type traceIdentity struct {
	Kind           string          `json:"kind"`
	Salt           string          `json:"salt"`
	Workload       string          `json:"workload"`
	WorkloadConfig workload.Config `json:"workload_config"`
}

// ForTrace returns the content address of the trace that workload name
// generates under wcfg. The config is canonicalized, mirroring ForRun:
// two configs selecting the same generation address the same artifact.
func ForTrace(workloadName string, wcfg workload.Config) string {
	return hashIdentity(traceIdentity{
		Kind:           "trace",
		Salt:           VersionSalt,
		Workload:       workloadName,
		WorkloadConfig: wcfg.Canonical(),
	})
}

// tracePath fans trace files out by hash prefix, like the JSON kinds.
func (s *Store) tracePath(key string) string {
	prefix := "xx"
	if len(key) >= 2 {
		prefix = key[:2]
	}
	return filepath.Join(s.dir, kindTrace, prefix, key+".smst")
}

// HasTrace reports whether a trace artifact exists at key, without
// opening or validating it (and without touching hit/miss counters).
func (s *Store) HasTrace(key string) bool {
	_, err := os.Stat(s.tracePath(key))
	return err == nil
}

// OpenTrace opens the trace stored at key for replay (mmap'd; see
// trace.OpenFile). A missing or invalid artifact is a miss, and so is
// one whose header WorkloadHash is not key: a trace is served only under
// its own content address. The caller owns the returned File and closes
// it when done replaying.
func (s *Store) OpenTrace(key string) (*trace.File, bool) {
	if s.fault.Point("store.traces.read") != nil {
		s.mu.Lock()
		s.stats.TraceMisses++
		s.mu.Unlock()
		return nil, false
	}
	f, err := trace.OpenFile(s.tracePath(key))
	if err == nil && f.Info().WorkloadHash != key {
		_ = f.Close()
		err = fmt.Errorf("store: trace %s carries workload hash %q", key, f.Info().WorkloadHash)
	}
	if err != nil {
		s.mu.Lock()
		if !os.IsNotExist(err) {
			s.stats.Corrupt++
		}
		s.stats.TraceMisses++
		s.mu.Unlock()
		if !os.IsNotExist(err) {
			// A trace that exists but fails validation is poisoned the
			// same way a torn JSON object is: move it aside so the tier
			// regenerates or re-syncs it instead of re-warning forever.
			s.quarantine(kindTrace, s.tracePath(key))
		}
		return nil, false
	}
	s.mu.Lock()
	s.stats.TraceHits++
	s.stats.TraceBytesRead += uint64(f.Info().Bytes)
	s.mu.Unlock()
	return f, true
}

// TraceSink assembles one trace artifact: records stream into W (a v2
// writer over a temp file) and Commit atomically publishes the file at
// its content address. Abort (safe after Commit) discards the temp file.
type TraceSink struct {
	// W is the v2 writer the caller streams records into.
	W *trace.V2Writer

	s         *Store
	f         *os.File
	key       string
	committed bool
}

// BeginTrace starts writing the trace artifact for key. hdr should carry
// the source workload's name so the artifact is self-describing. Its
// WorkloadHash is the key: an empty one is filled in, and a different
// one is refused before any file is created, since OpenTrace serves an
// artifact only under its own hash.
func (s *Store) BeginTrace(key string, hdr trace.Header) (*TraceSink, error) {
	switch hdr.WorkloadHash {
	case "":
		hdr.WorkloadHash = key
	case key:
	default:
		return nil, fmt.Errorf("store: trace %s: header carries workload hash %q", key, hdr.WorkloadHash)
	}
	dir := filepath.Dir(s.tracePath(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w, err := trace.NewV2Writer(f, hdr)
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("store: starting trace %s: %w", key, err)
	}
	return &TraceSink{W: w, s: s, f: f, key: key}, nil
}

// Commit finalizes the v2 file and renames it into place.
func (ts *TraceSink) Commit() error {
	if err := ts.W.Close(); err != nil {
		ts.Abort()
		return err
	}
	size, err := ts.f.Seek(0, 2)
	if err != nil {
		ts.Abort()
		return fmt.Errorf("store: sizing trace %s: %w", ts.key, err)
	}
	if err := ts.f.Close(); err != nil {
		os.Remove(ts.f.Name())
		return fmt.Errorf("store: closing trace %s: %w", ts.key, err)
	}
	// Same publish-permission logic as the JSON objects: a store shared
	// between a daemon and operators must not hide artifacts.
	if err := os.Chmod(ts.f.Name(), 0o644); err != nil {
		os.Remove(ts.f.Name())
		return fmt.Errorf("store: publishing trace %s: %w", ts.key, err)
	}
	if ferr := ts.s.fault.Point("store.traces.rename"); ferr != nil {
		// Crash between assembling the trace and publishing it: the
		// temp file stays, the key stays absent (a torn artifact is
		// never visible).
		if !errors.Is(ferr, fault.ErrCrashed) {
			os.Remove(ts.f.Name())
		}
		return fmt.Errorf("store: publishing trace %s: %w", ts.key, ferr)
	}
	if err := os.Rename(ts.f.Name(), ts.s.tracePath(ts.key)); err != nil {
		os.Remove(ts.f.Name())
		return fmt.Errorf("store: publishing trace %s: %w", ts.key, err)
	}
	ts.committed = true
	ts.s.mu.Lock()
	ts.s.stats.TraceWrites++
	ts.s.stats.TraceBytesWritten += uint64(size)
	ts.s.mu.Unlock()
	return nil
}

// Abort discards the temp file; it is a no-op after Commit.
func (ts *TraceSink) Abort() {
	if ts.committed {
		return
	}
	ts.f.Close()
	os.Remove(ts.f.Name())
}

// OpenTraceRaw opens the raw artifact bytes at key for replication to
// another node (the cluster's artifact sync). The caller closes the
// reader; size is the artifact's byte length. Unlike OpenTrace, no
// decoding or validation happens here — the receiver validates before
// publishing (PutTraceRaw), and the content address lets it verify what
// it asked for.
func (s *Store) OpenTraceRaw(key string) (io.ReadCloser, int64, bool) {
	f, err := os.Open(s.tracePath(key))
	if err != nil {
		return nil, 0, false
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, false
	}
	s.mu.Lock()
	s.stats.TraceBytesRead += uint64(fi.Size())
	s.mu.Unlock()
	return f, fi.Size(), true
}

// PutTraceRaw atomically publishes artifact bytes streamed from another
// node at key. The bytes are validated as a well-formed v2 trace
// (header, index, CRC — trace.Stat) whose header WorkloadHash is key and
// which declares its CPU count, before the rename, so a truncated or
// corrupted transfer, or another workload's trace, never becomes
// visible; replays would otherwise treat it as corruption, but rejecting
// it here keeps the tier's "a key either exists or it doesn't" contract
// honest. Returns the byte count written.
func (s *Store) PutTraceRaw(key string, r io.Reader) (int64, error) {
	path := s.tracePath(key)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	if ferr := s.fault.Point("store.traces.write"); ferr != nil {
		// Crash at the start of an artifact transfer: temp debris
		// stays, nothing publishes.
		f.Close()
		if !errors.Is(ferr, fault.ErrCrashed) {
			os.Remove(f.Name())
		}
		return 0, fmt.Errorf("store: receiving trace %s: %w", key, ferr)
	}
	n, err := io.Copy(f, r)
	if err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		os.Remove(f.Name())
		return 0, fmt.Errorf("store: receiving trace %s: %w", key, err)
	}
	info, err := trace.Stat(f.Name())
	if err != nil {
		os.Remove(f.Name())
		return 0, fmt.Errorf("store: received trace %s is not a valid artifact: %w", key, err)
	}
	if info.WorkloadHash != key {
		os.Remove(f.Name())
		return 0, fmt.Errorf("store: received trace %s carries workload hash %q, not its key", key, info.WorkloadHash)
	}
	if info.CPUs == 0 {
		// Without a CPU count the decoder cannot bound records' CPUs.
		os.Remove(f.Name())
		return 0, fmt.Errorf("store: received trace %s declares no CPU count", key)
	}
	if err := os.Chmod(f.Name(), 0o644); err != nil {
		os.Remove(f.Name())
		return 0, fmt.Errorf("store: publishing trace %s: %w", key, err)
	}
	if ferr := s.fault.Point("store.traces.rename"); ferr != nil {
		if !errors.Is(ferr, fault.ErrCrashed) {
			os.Remove(f.Name())
		}
		return 0, fmt.Errorf("store: publishing trace %s: %w", key, ferr)
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return 0, fmt.Errorf("store: publishing trace %s: %w", key, err)
	}
	s.mu.Lock()
	s.stats.TraceWrites++
	s.stats.TraceBytesWritten += uint64(n)
	s.mu.Unlock()
	return n, nil
}

// PutTrace writes the records src yields at key, streaming them through
// one batch buffer.
func (s *Store) PutTrace(key string, hdr trace.Header, src trace.Source) error {
	ts, err := s.BeginTrace(key, hdr)
	if err != nil {
		return err
	}
	bs := trace.Batched(src)
	buf := make([]trace.Record, 4096)
	for {
		n := bs.NextBatch(buf)
		if n == 0 {
			break
		}
		if err := ts.W.WriteBatch(buf[:n]); err != nil {
			ts.Abort()
			return fmt.Errorf("store: writing trace %s: %w", key, err)
		}
	}
	return ts.Commit()
}

// TraceInfo describes one stored trace artifact.
type TraceInfo struct {
	// Key is the artifact's content address (file name stem).
	Key string `json:"key"`
	// Workload, CPUs and WorkloadHash come from the v2 header.
	Workload     string `json:"workload"`
	CPUs         int    `json:"cpus"`
	WorkloadHash string `json:"workload_hash,omitempty"`
	// Records and Blocks come from the index (O(1), no record decoding).
	Records uint64 `json:"records"`
	Blocks  int    `json:"blocks"`
	// Bytes is the artifact file size.
	Bytes int64 `json:"bytes"`
}

// ListTraces enumerates the stored trace artifacts, sorted by key.
// Artifacts that fail to stat (torn or foreign files) are skipped.
func (s *Store) ListTraces() ([]TraceInfo, error) {
	matches, err := filepath.Glob(filepath.Join(s.dir, kindTrace, "*", "*.smst"))
	if err != nil {
		return nil, fmt.Errorf("store: listing traces: %w", err)
	}
	out := make([]TraceInfo, 0, len(matches))
	for _, path := range matches {
		info, err := trace.Stat(path)
		if err != nil {
			continue
		}
		base := filepath.Base(path)
		out = append(out, TraceInfo{
			Key:          base[:len(base)-len(".smst")],
			Workload:     info.Workload,
			CPUs:         info.CPUs,
			WorkloadHash: info.WorkloadHash,
			Records:      info.Records,
			Blocks:       info.Blocks,
			Bytes:        info.Bytes,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

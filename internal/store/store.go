// Package store is the persistent, content-addressed result store behind
// the experiment harness and the smsd daemon.
//
// Every simulation run is identified by the canonical JSON form of its
// full identity — workload name, workload generation config, simulator
// config (prefetcher resolved to its registry name), and a simulator
// version salt — hashed with SHA-256. The sim.Result (or a rendered
// figure) is persisted as JSON under that address, so any process that
// re-derives the same identity gets a cache hit instead of a simulation:
//
//	<dir>/results/<hh>/<hash>.json   one sim.Result per run identity
//	<dir>/figures/<hh>/<hash>.json   one rendered figure per figure identity
//
// (<hh> is the first two hex digits of the hash, fanning the objects out
// over 256 subdirectories.)
//
// Writes are atomic (temp file + rename in the same directory), so a
// crashed writer never leaves a partially-written object visible. Reads
// are corruption-tolerant: an object that fails to decode is treated as a
// miss, never as an error — the poisoned file is moved to
// <dir>/corrupt/<kind>/ so it cannot shadow the recomputed object.
//
// The store keeps no object in memory: every lookup reads the object
// file, so processes sharing a directory see each other's writes. The
// engine's result memo is the in-process cache in front of it.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// VersionSalt is folded into every content address. Bump it when the
// simulator's semantics — or the serialized form of the hashed identity —
// change, so stale results stop matching.
//
// /2: sim.Config lost the deprecated Prefetcher enum field, changing the
// canonical JSON that run identities hash. Results are unchanged, but
// pre-/2 store objects are unreachable under the new addresses.
//
// /3: sim.Config gained the Sampling block and figure identities gained a
// sampling scope, changing both hashed serializations. Exact results are
// unchanged, but pre-/3 store objects are unreachable under the new
// addresses.
//
// /4: sim.Config lost OverlapGap and MaxMLP, and a built-in scheme's
// canonical config keeps only its own sub-config, changing the hashed
// run identity. The GHB stats' ChainLength now counts the entries walked
// up to the delta match, so stored GHB results differ in that field;
// every other result is unchanged.
const VersionSalt = "sms-repro/4"

// Object kinds (also the on-disk subdirectory names).
const (
	kindResult = "results"
	kindFigure = "figures"
)

// runIdentity is the hashed form of one run. Field order is the
// serialization order, so it must not be reordered without bumping
// VersionSalt.
type runIdentity struct {
	Kind           string          `json:"kind"`
	Salt           string          `json:"salt"`
	Workload       string          `json:"workload"`
	WorkloadConfig workload.Config `json:"workload_config"`
	Prefetcher     string          `json:"prefetcher"`
	SimConfig      sim.Config      `json:"sim_config"`
}

// figureIdentity is the hashed form of one rendered figure.
type figureIdentity struct {
	Kind     string             `json:"kind"`
	Salt     string             `json:"salt"`
	Figure   string             `json:"figure"`
	CPUs     int                `json:"cpus"`
	Seed     int64              `json:"seed"`
	Length   uint64             `json:"length"`
	Sampling sim.SamplingConfig `json:"sampling"`
}

func hashIdentity(id any) string {
	data, err := json.Marshal(id)
	if err != nil {
		// The identity structs are plain data; marshaling cannot fail.
		panic(fmt.Sprintf("store: hashing identity: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ForRun returns the content address of one simulation run. Both configs
// are canonicalized first, so any two configs selecting the same
// simulation — defaults spelled out or left zero, prefetcher named or
// chosen via the deprecated enum — address the same object.
func ForRun(workloadName string, wcfg workload.Config, scfg sim.Config) string {
	scfg = scfg.Canonical()
	return hashIdentity(runIdentity{
		Kind:           "run",
		Salt:           VersionSalt,
		Workload:       workloadName,
		WorkloadConfig: wcfg.Canonical(),
		Prefetcher:     scfg.PrefetcherName,
		SimConfig:      scfg,
	})
}

// ForFigure returns the content address of a rendered figure under the
// given experiment scope (figure name + the options that shape every run
// inside it). The sampling config is part of the scope, so sampled and
// exact renderings of the same figure memoize separately; pass the zero
// value for exact figures.
func ForFigure(figure string, cpus int, seed int64, length uint64, sampling sim.SamplingConfig) string {
	return hashIdentity(figureIdentity{
		Kind:     "figure",
		Salt:     VersionSalt,
		Figure:   figure,
		CPUs:     cpus,
		Seed:     seed,
		Length:   length,
		Sampling: sampling.Canonical(),
	})
}

// Stats counts store activity. Hits counts objects read and decoded
// from disk; lookups that find nothing (or only a corrupt object) count
// as Misses. The Trace* counters cover the binary trace tier (see
// trace.go), which bypasses the JSON object path.
type Stats struct {
	Hits         uint64
	Misses       uint64
	Writes       uint64
	Corrupt      uint64
	Quarantined  uint64
	BytesRead    uint64
	BytesWritten uint64

	TraceHits         uint64
	TraceMisses       uint64
	TraceWrites       uint64
	TraceBytesRead    uint64
	TraceBytesWritten uint64
}

// Store is a content-addressed result store rooted at one directory. It
// is safe for concurrent use.
type Store struct {
	dir string

	// fault is the chaos-test injector; nil (the production state)
	// costs one pointer test per I/O operation. Set before the store
	// is shared across goroutines.
	fault *fault.Injector

	mu    sync.Mutex
	stats Stats
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	for _, kind := range []string{kindResult, kindFigure, kindTrace} {
		if err := os.MkdirAll(filepath.Join(dir, kind), 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", kind, err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetFault installs a fault injector on the store's I/O sites
// (store.<kind>.{read,write,rename}). Call it right after Open, before
// the store is shared.
func (s *Store) SetFault(f *fault.Injector) { s.fault = f }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// GetResult fetches the simulation result stored at key, reporting
// whether it was present on disk and decoded cleanly.
func (s *Store) GetResult(key string) (*sim.Result, bool) {
	var res sim.Result
	if !s.get(kindResult, key, &res, true) {
		return nil, false
	}
	return &res, true
}

// ProbeResult is GetResult except that a miss is not counted: the
// fast-path form for callers that follow a probe miss with a real Get
// (the smsd daemon), so each logical lookup lands in Stats exactly once.
func (s *Store) ProbeResult(key string) (*sim.Result, bool) {
	var res sim.Result
	if !s.get(kindResult, key, &res, false) {
		return nil, false
	}
	return &res, true
}

// PutResult persists res at key.
func (s *Store) PutResult(key string, res *sim.Result) error {
	return s.put(kindResult, key, res)
}

// figureDoc is the persisted form of a rendered figure.
type figureDoc struct {
	Text string `json:"text"`
}

// GetFigure fetches the rendered figure stored at key.
func (s *Store) GetFigure(key string) (string, bool) {
	var doc figureDoc
	if !s.get(kindFigure, key, &doc, true) {
		return "", false
	}
	return doc.Text, true
}

// ProbeFigure is GetFigure without miss accounting (see ProbeResult).
func (s *Store) ProbeFigure(key string) (string, bool) {
	var doc figureDoc
	if !s.get(kindFigure, key, &doc, false) {
		return "", false
	}
	return doc.Text, true
}

// PutFigure persists the rendered figure text at key.
func (s *Store) PutFigure(key, text string) error {
	return s.put(kindFigure, key, figureDoc{Text: text})
}

// objectPath fans objects out over 256 subdirectories by hash prefix.
func (s *Store) objectPath(kind, key string) string {
	prefix := "xx"
	if len(key) >= 2 {
		prefix = key[:2]
	}
	return filepath.Join(s.dir, kind, prefix, key+".json")
}

// get reads and decodes the object at (kind, key) into out, maintaining
// the hit/miss/corruption counters (misses only when countMiss, for the
// Probe variants). Reading and decoding happen outside the mutex so
// concurrent lookups of distinct keys do not serialize on one core; the
// lock covers only the stats.
func (s *Store) get(kind, key string, out any, countMiss bool) bool {
	path := s.objectPath(kind, key)
	data, err := os.ReadFile(path)
	if s.fault != nil && err == nil {
		err = s.fault.Point("store." + kind + ".read")
	}
	if err != nil {
		if countMiss {
			s.mu.Lock()
			s.stats.Misses++
			s.mu.Unlock()
		}
		return false
	}

	if err := json.Unmarshal(data, out); err != nil {
		// Corrupt object (torn write from a pre-rename crash, disk
		// damage, or a foreign file): treat as a miss rather than an
		// error; the caller will recompute and overwrite it. The
		// poisoned file is moved aside so it cannot re-warn on every
		// read or shadow the recomputed object.
		slog.Warn("store: corrupt object quarantined and treated as a miss", "kind", kind, "key", key, "err", err)
		s.mu.Lock()
		s.stats.Corrupt++
		if countMiss {
			s.stats.Misses++
		}
		s.mu.Unlock()
		s.quarantine(kind, path)
		return false
	}

	s.mu.Lock()
	s.stats.Hits++
	s.stats.BytesRead += uint64(len(data))
	s.mu.Unlock()
	return true
}

// quarantine atomically moves a corrupt object file out of the
// addressable tree to <dir>/corrupt/<kind>/<basename>, so it stops
// shadowing recomputation (and re-warning on every read) while staying
// on disk for forensics. Losing the race to another reader is fine —
// the file only moves once.
func (s *Store) quarantine(kind, path string) {
	qdir := filepath.Join(s.dir, "corrupt", kind)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		slog.Warn("store: creating quarantine directory", "err", err)
		return
	}
	if err := os.Rename(path, filepath.Join(qdir, filepath.Base(path))); err != nil {
		if !os.IsNotExist(err) {
			slog.Warn("store: quarantining corrupt object", "path", path, "err", err)
		}
		return
	}
	s.mu.Lock()
	s.stats.Quarantined++
	s.mu.Unlock()
}

// put encodes v and writes it atomically at (kind, key): the bytes land
// in a temp file in the final directory and are renamed into place, so
// concurrent readers see either the old object or the new one, never a
// prefix.
func (s *Store) put(kind, key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encoding %s/%s: %w", kind, key, err)
	}
	path := s.objectPath(kind, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if keep, ferr := s.fault.Partial("store."+kind+".write", len(data)); ferr != nil {
		// A crash leaves its debris — the torn temp file — exactly as
		// a killed process would; an ordinary injected error cleans up
		// like any other failed write.
		_, _ = tmp.Write(data[:keep])
		tmp.Close()
		if !errors.Is(ferr, fault.ErrCrashed) {
			os.Remove(tmp.Name())
		}
		return fmt.Errorf("store: writing %s/%s: %w", kind, key, ferr)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s/%s: %w", kind, key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: closing %s/%s: %w", kind, key, err)
	}
	// CreateTemp's 0600 would make a store directory shared between a
	// daemon user and operators (the smsd + CLI workflow) silently
	// unreadable to everyone but the writer.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: publishing %s/%s: %w", kind, key, err)
	}
	if ferr := s.fault.Point("store." + kind + ".rename"); ferr != nil {
		// Crash between temp write and rename: the fully-written temp
		// file stays, the object never becomes visible.
		if !errors.Is(ferr, fault.ErrCrashed) {
			os.Remove(tmp.Name())
		}
		return fmt.Errorf("store: publishing %s/%s: %w", kind, key, ferr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: publishing %s/%s: %w", kind, key, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Writes++
	s.stats.BytesWritten += uint64(len(data))
	return nil
}

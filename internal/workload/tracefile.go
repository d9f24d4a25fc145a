package workload

// The trace: workload family wraps captured trace files — the paper's
// actual methodology (§4 replays FLEXUS/Simics traces of commercial
// workloads) — as first-class workloads: any plan, experiment, smsim
// invocation or smsd job can target "trace:<path>" exactly like a
// generator name, and the simulator replays the file's records.
//
// ByName resolves the family lazily: the first lookup of a given path
// opens (and for v2, mmaps) the file and caches the handle for the
// process lifetime, so repeated runs share one mapping. Trace workloads
// are deliberately absent from All(): the figure plans enumerate the
// paper's synthetic suite, and adding dynamically registered files to
// it would silently change every figure grid.

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
)

// GroupTrace is the group name of trace-file workloads.
const GroupTrace = "Trace"

// TracePrefix marks workload names that name a trace file.
const TracePrefix = "trace:"

var (
	traceMu    sync.Mutex
	traceFiles = map[string]*cachedTraceFile{}
)

// cachedTraceFile remembers how the file looked when it was opened so a
// re-captured file is reopened instead of served stale from the old
// mapping.
type cachedTraceFile struct {
	f     *trace.File
	size  int64
	mtime time.Time
}

// IsTraceName reports whether name selects the trace-file family.
func IsTraceName(name string) bool { return strings.HasPrefix(name, TracePrefix) }

// byTraceName resolves "trace:<path>", opening the file on first use.
// A cached handle is revalidated against the file's current size and
// mtime: overwriting a capture serves the new records on the next
// lookup. (The old mapping is deliberately leaked — sources replaying
// it may still be live; truncating a file mid-replay remains undefined,
// as with any mmap consumer.)
func byTraceName(name string) (Workload, error) {
	path := strings.TrimPrefix(name, TracePrefix)
	if path == "" {
		return Workload{}, fmt.Errorf("workload: %q names no trace file", name)
	}
	st, err := os.Stat(path)
	if err != nil {
		return Workload{}, fmt.Errorf("workload: opening trace file: %w", err)
	}
	traceMu.Lock()
	c, ok := traceFiles[path]
	if ok && (c.size != st.Size() || !c.mtime.Equal(st.ModTime())) {
		delete(traceFiles, path)
		ok = false
	}
	traceMu.Unlock()
	if !ok {
		f, err := trace.OpenFile(path)
		if err != nil {
			return Workload{}, fmt.Errorf("workload: opening trace file: %w", err)
		}
		c = &cachedTraceFile{f: f, size: st.Size(), mtime: st.ModTime()}
		traceMu.Lock()
		if prev, raced := traceFiles[path]; raced {
			_ = f.Close()
			c = prev
		} else {
			traceFiles[path] = c
		}
		traceMu.Unlock()
	}
	return traceWorkload(name, c.f), nil
}

// traceWorkload wraps an opened file as a Workload.
func traceWorkload(name string, f *trace.File) Workload {
	info := f.Info()
	desc := fmt.Sprintf("captured trace replay (%d records, format v%d", info.Records, info.Version)
	if info.Workload != "" {
		desc += ", source " + info.Workload
	}
	desc += ")"
	return Workload{
		Name:        name,
		Group:       GroupTrace,
		Description: desc,
		External:    true,
		Make: func(cfg Config) trace.Source {
			// The trace is what it is: seed and scale do not apply.
			// CPUs bounds the records the run can simulate, since the
			// simulator keeps per-CPU state for that many: a file that
			// declares more fails the run before any record, and one
			// that declares no count (v1, or a v2 header's 0) ends at
			// its first record naming a CPU out of range. Length only
			// caps the replay —
			// shorter files simply exhaust early, like a generator asked
			// for fewer records than Config.Length would imply.
			cpus := cfg.Canonical().CPUs
			if info.CPUs > cpus {
				return &failedSource{fmt.Errorf("workload: %s declares %d CPUs, more than the run's %d", name, info.CPUs, cpus)}
			}
			plain := f.NewSource()
			var src trace.Source = plain
			if info.CPUs == 0 {
				src = &cpuCheckedSource{src: plain, name: name, cpus: cpus}
			}
			if cfg.Length > 0 && cfg.Length < info.Records {
				return trace.Limit(src, cfg.Length)
			}
			return src
		},
	}
}

// failedSource yields no record and reports why.
type failedSource struct{ err error }

func (s *failedSource) Next() (trace.Record, bool) { return trace.Record{}, false }
func (s *failedSource) Err() error                 { return s.err }

// cpuCheckedSource replays a trace whose header declares no CPU count.
// It ends the stream at the first record naming a CPU of cpus or more,
// and latches an error naming it.
type cpuCheckedSource struct {
	src  trace.BatchSource
	name string
	cpus int
	n    uint64 // records delivered
	err  error
}

func (s *cpuCheckedSource) Next() (trace.Record, bool) {
	var one [1]trace.Record
	if s.NextBatch(one[:]) == 0 {
		return trace.Record{}, false
	}
	return one[0], true
}

// NextBatch implements trace.BatchSource.
func (s *cpuCheckedSource) NextBatch(dst []trace.Record) int {
	if s.err != nil {
		return 0
	}
	n := s.src.NextBatch(dst)
	for i, r := range dst[:n] {
		if int(r.CPU) >= s.cpus {
			s.err = fmt.Errorf("workload: %s: record %d names CPU %d, but the run has %d CPUs", s.name, s.n+uint64(i), r.CPU, s.cpus)
			n = i
			break
		}
	}
	s.n += uint64(n)
	return n
}

// Err reports the out-of-range record, or the underlying source's error.
func (s *cpuCheckedSource) Err() error {
	if s.err != nil {
		return s.err
	}
	if e, ok := s.src.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// OpenTraceWorkload opens the trace file at path and returns its
// workload (name "trace:<path>"). It is ByName(TracePrefix+path) with
// the error surfaced eagerly.
func OpenTraceWorkload(path string) (Workload, error) {
	return byTraceName(TracePrefix + path)
}

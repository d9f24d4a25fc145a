package store

// Crash-atomicity and quarantine coverage: injected partial writes,
// renames that never happen, and poisoned objects. The invariant under
// test is the store's central promise — a reader never observes a torn
// result, figure, or trace artifact, no matter where the writer died.

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestCorruptObjectQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ForFigure("fig4", 2, 1, 1000, sim.SamplingConfig{})
	if err := s.PutFigure(key, "good"); err != nil {
		t.Fatal(err)
	}
	path := s.objectPath(kindFigure, key)
	if err := os.WriteFile(path, []byte(`{"text": trunca`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.GetFigure(key); ok {
		t.Fatal("corrupt object served")
	}
	// The poisoned file moved out of the addressable tree...
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt object still addressable: %v", err)
	}
	qpath := filepath.Join(dir, "corrupt", kindFigure, key+".json")
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("corrupt object not quarantined at %s: %v", qpath, err)
	}
	if st := s2.Stats(); st.Quarantined != 1 || st.Corrupt != 1 {
		t.Errorf("stats = %+v, want Quarantined=1 Corrupt=1", st)
	}
	// ...so a second read is a plain miss, not another corruption.
	if _, ok := s2.GetFigure(key); ok {
		t.Fatal("quarantined object served")
	}
	if st := s2.Stats(); st.Corrupt != 1 || st.Quarantined != 1 {
		t.Errorf("re-read re-counted corruption: %+v", st)
	}
	// Re-putting repairs the address.
	if err := s2.PutFigure(key, "repaired"); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.GetFigure(key); !ok || got != "repaired" {
		t.Fatalf("after repair: %q, %v", got, ok)
	}
}

func TestCorruptTraceQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ForTrace("sparse", workload.Config{CPUs: 1, Seed: 1, Length: 10})
	if err := s.PutTrace(key, trace.Header{}, trace.NewSliceSource(traceRecords(10))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.tracePath(key), []byte("SMSTgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.OpenTrace(key); ok {
		t.Fatal("corrupt trace opened")
	}
	if s.HasTrace(key) {
		t.Fatal("corrupt trace still addressable after quarantine")
	}
	qpath := filepath.Join(dir, "corrupt", kindTrace, key+".smst")
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("corrupt trace not quarantined at %s: %v", qpath, err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("stats = %+v, want Quarantined=1", st)
	}
}

// assertNoTornObjects walks every addressable object under the store
// root and fails if any does not decode — the reader-visible tree must
// hold only complete objects.
func assertNoTornObjects(t *testing.T, dir string) {
	t.Helper()
	for _, kind := range []string{kindResult, kindFigure} {
		matches, err := filepath.Glob(filepath.Join(dir, kind, "*", "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range matches {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var v any
			if err := json.Unmarshal(data, &v); err != nil {
				t.Errorf("torn object visible at %s: %v", path, err)
			}
		}
	}
	traces, err := filepath.Glob(filepath.Join(dir, kindTrace, "*", "*.smst"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range traces {
		if _, err := trace.Stat(path); err != nil {
			t.Errorf("torn trace artifact visible at %s: %v", path, err)
		}
	}
}

// TestWriteAtomicityUnderInjectedCrashes walks the write-side crash
// points — a torn partial write and a rename that never happens — for
// results, figures, and trace artifacts, with concurrent readers
// racing every attempt. No reader, during or after the crash, may
// observe a torn object.
func TestWriteAtomicityUnderInjectedCrashes(t *testing.T) {
	res := tinyResult(t)
	cases := []struct {
		name string
		rule fault.Rule
	}{
		{"partial-write", fault.Rule{Site: "store.*", Kind: fault.KindPartial, Frac: 0.4}},
		{"pre-rename-crash", fault.Rule{Site: "store.*", Kind: fault.KindCrash}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			victim, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			// The reader is a second process over the same directory:
			// it must never see the victim's debris.
			reader, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			key := ForRun("sparse", workload.Config{CPUs: 1, Seed: 1, Length: 4000},
				sim.Config{PrefetcherName: "sms"})
			fkey := ForFigure("fig4", 1, 1, 4000, sim.SamplingConfig{})
			tkey := ForTrace("sparse", workload.Config{CPUs: 1, Seed: 1, Length: 10})

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if got, ok := reader.ProbeResult(key); ok && got.Accesses != res.Accesses {
						t.Error("reader observed a result that was never completely written")
					}
					if _, ok := reader.ProbeFigure(fkey); ok {
						t.Error("reader observed a figure that was never completely written")
					}
					if f, ok := reader.OpenTrace(tkey); ok {
						f.Close()
						t.Error("reader observed a trace that was never completely published")
					}
				}
			}()

			// Each write gets a fresh injector: one crash kills one
			// process; the next attempt is a new incarnation.
			victim.SetFault(fault.MustNew(fault.Plan{Rules: []fault.Rule{tc.rule}}))
			if err := victim.PutResult(key, res); !errors.Is(err, fault.ErrCrashed) {
				t.Fatalf("PutResult under %s = %v, want ErrCrashed", tc.name, err)
			}
			victim.SetFault(fault.MustNew(fault.Plan{Rules: []fault.Rule{tc.rule}}))
			if err := victim.PutFigure(fkey, "torn?"); !errors.Is(err, fault.ErrCrashed) {
				t.Fatalf("PutFigure under %s = %v, want ErrCrashed", tc.name, err)
			}
			victim.SetFault(fault.MustNew(fault.Plan{Rules: []fault.Rule{
				{Site: "store.traces.rename", Kind: tc.rule.Kind, Frac: tc.rule.Frac},
			}}))
			if err := victim.PutTrace(tkey, trace.Header{WorkloadHash: tkey}, trace.NewSliceSource(traceRecords(10))); !errors.Is(err, fault.ErrCrashed) {
				t.Fatalf("PutTrace under %s = %v, want ErrCrashed", tc.name, err)
			}
			close(stop)
			wg.Wait()

			// The crashes left temp debris but nothing addressable.
			assertNoTornObjects(t, dir)
			if _, ok := reader.GetResult(key); ok {
				t.Fatal("crashed result write became visible")
			}

			// A fresh incarnation over the same directory repairs every
			// address by rewriting it.
			victim.SetFault(nil)
			if err := victim.PutResult(key, res); err != nil {
				t.Fatal(err)
			}
			if err := victim.PutTrace(tkey, trace.Header{WorkloadHash: tkey}, trace.NewSliceSource(traceRecords(10))); err != nil {
				t.Fatal(err)
			}
			if got, ok := reader.GetResult(key); !ok || got.Accesses != res.Accesses {
				t.Fatalf("repaired result = %v, %v", got, ok)
			}
			if f, ok := reader.OpenTrace(tkey); !ok {
				t.Fatal("repaired trace not readable")
			} else {
				f.Close()
			}
			assertNoTornObjects(t, dir)
		})
	}
}

// TestInjectedReadErrorIsAMiss: a failing read (I/O error, not
// corruption) degrades to a miss, mirroring the corruption contract.
func TestInjectedReadErrorIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ForFigure("fig4", 1, 1, 10, sim.SamplingConfig{})
	if err := s.PutFigure(key, "x"); err != nil {
		t.Fatal(err)
	}
	// A second store so the lookup goes to disk, with reads failing.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetFault(fault.MustNew(fault.Plan{Rules: []fault.Rule{
		{Site: "store.figures.read", Kind: fault.KindError, Times: 1},
	}}))
	if _, ok := s2.GetFigure(key); ok {
		t.Fatal("failed read served a figure")
	}
	if st := s2.Stats(); st.Misses != 1 {
		t.Errorf("stats = %+v, want one miss", st)
	}
	// The rule is spent; the next read succeeds.
	if got, ok := s2.GetFigure(key); !ok || got != "x" {
		t.Fatalf("read after spent rule = %q, %v", got, ok)
	}
}

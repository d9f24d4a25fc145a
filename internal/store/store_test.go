package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/ghb"
	_ "repro/internal/nextline"
	"repro/internal/sectored"
	"repro/internal/sim"
	"repro/internal/stride"
	"repro/internal/workload"
)

// tinyResult runs a very short real simulation so the persisted result
// exercises every field the simulator produces (histograms included).
func tinyResult(t testing.TB) *sim.Result {
	t.Helper()
	w, err := workload.ByName("sparse")
	if err != nil {
		t.Fatal(err)
	}
	runner, err := sim.NewRunner(sim.Config{PrefetcherName: "sms", WarmupAccesses: 2000, TrackGenerations: true})
	if err != nil {
		t.Fatal(err)
	}
	return runner.Run(w.Make(workload.Config{CPUs: 1, Seed: 1, Length: 4000}))
}

func TestForRunCanonicalizes(t *testing.T) {
	wcfg := workload.Config{CPUs: 4, Seed: 1}
	// Implicit and explicit defaults must address the same object.
	a := ForRun("sparse", wcfg, sim.Config{PrefetcherName: "sms", StreamRate: sim.DefaultStreamRate, SMS: core.Config{PHTEntries: core.DefaultPHTEntries}})
	b := ForRun("sparse", wcfg, sim.Config{PrefetcherName: "sms"})
	c := ForRun("sparse", wcfg, sim.Config{PrefetcherName: "sms", StreamRate: sim.DefaultStreamRate})
	d := ForRun("sparse", wcfg.Canonical(), sim.Config{PrefetcherName: "sms"})
	if a != b || b != c || c != d {
		t.Errorf("equivalent configs hash differently: %s %s %s %s", a, b, c, d)
	}

	for name, other := range map[string]string{
		"workload":   ForRun("oltp-db2", wcfg, sim.Config{PrefetcherName: "sms"}),
		"prefetcher": ForRun("sparse", wcfg, sim.Config{PrefetcherName: "ghb"}),
		"seed":       ForRun("sparse", workload.Config{CPUs: 4, Seed: 2}, sim.Config{PrefetcherName: "sms"}),
		"warmup":     ForRun("sparse", wcfg, sim.Config{PrefetcherName: "sms", WarmupAccesses: 7}),
		"sampling":   ForRun("sparse", wcfg, sim.Config{PrefetcherName: "sms", Sampling: sim.SamplingConfig{WindowRecords: 1024}}),
	} {
		if other == a {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

// TestForRunKeysOwnSchemeOnly: a scheme's key hashes only the sub-configs
// its registration reads — a built-in its own, nextline none — so
// changing another sub-config moves neither the canonical config nor
// the key, while changing its own moves both.
func TestForRunKeysOwnSchemeOnly(t *testing.T) {
	wcfg := workload.Config{CPUs: 4, Seed: 1}
	others := map[string]func(*sim.Config){
		"sms":    func(c *sim.Config) { c.SMS = core.Config{PHTEntries: 1024, Index: core.IndexPC} },
		"ls":     func(c *sim.Config) { c.LS = sectored.Config{PHTEntries: -1, Assoc: 4} },
		"ghb":    func(c *sim.Config) { c.GHB = ghb.Config{HistoryEntries: 16384, Degree: 8} },
		"stride": func(c *sim.Config) { c.Stride = stride.Config{Entries: 64, Degree: 3} },
	}
	for _, name := range []string{"none", "sms", "ls", "ghb", "stride", "nextline"} {
		base := sim.Config{PrefetcherName: name}
		key := ForRun("sparse", wcfg, base)
		for other, set := range others {
			cfg := base
			set(&cfg)
			sameKey := ForRun("sparse", wcfg, cfg) == key
			sameCanonical := cfg.Canonical() == base.Canonical()
			if own := other == name; sameKey == own || sameCanonical == own {
				t.Errorf("%s run, %s sub-config changed: same key %v, same canonical %v; want %v",
					name, other, sameKey, sameCanonical, !own)
			}
		}
	}
}

func TestForFigureKeys(t *testing.T) {
	a := ForFigure("fig8", 2, 1, 200_000, sim.SamplingConfig{})
	if a == ForFigure("fig9", 2, 1, 200_000, sim.SamplingConfig{}) {
		t.Error("figure name not in key")
	}
	if a == ForFigure("fig8", 2, 1, 100_000, sim.SamplingConfig{}) {
		t.Error("length not in key")
	}
	if a != ForFigure("fig8", 2, 1, 200_000, sim.SamplingConfig{}) {
		t.Error("key not deterministic")
	}
	sampled := ForFigure("fig8", 2, 1, 200_000, sim.SamplingConfig{WindowRecords: 1024})
	if a == sampled {
		t.Error("sampling config not in key")
	}
	// Equivalent spellings of the same sampling config address the same
	// figure: the key hashes the canonical form.
	spelled := ForFigure("fig8", 2, 1, 200_000, (sim.SamplingConfig{WindowRecords: 1024}).Canonical())
	if sampled != spelled {
		t.Error("defaulted and canonical sampling configs address different figures")
	}
}

func TestResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := tinyResult(t)
	key := ForRun("sparse", workload.Config{CPUs: 1, Seed: 1, Length: 4000}, sim.Config{PrefetcherName: "sms"})

	if _, ok := s.GetResult(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.PutResult(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetResult(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if got.L1ReadMisses != res.L1ReadMisses || got.Accesses != res.Accesses ||
		got.StreamRequests != res.StreamRequests {
		t.Errorf("counters changed: got %+v want %+v", got, res)
	}
	if got.DensityL1 == nil || got.DensityL1.Total() != res.DensityL1.Total() {
		t.Error("density histogram lost in round trip")
	}
	if len(got.SMSStats) != len(res.SMSStats) {
		t.Errorf("SMS stats lost: %d vs %d", len(got.SMSStats), len(res.SMSStats))
	}

	st := s.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Writes != 1 || st.BytesRead == 0 {
		t.Errorf("stats = %+v", st)
	}

	// A second Store over the same directory must hit from disk.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.GetResult(key); !ok {
		t.Fatal("cold open missed persisted result")
	}
	if st2 := s2.Stats(); st2.Hits != 1 || st2.Misses != 0 || st2.BytesRead != st.BytesRead {
		t.Errorf("cold stats = %+v, want one hit reading %d bytes", st2, st.BytesRead)
	}
}

// TestStoreReadsDisk: a store serves what is on disk now, not what it
// read or wrote earlier, so two processes sharing a directory see each
// other's writes.
func TestStoreReadsDisk(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ForFigure("fig8", 2, 1, 200_000, sim.SamplingConfig{})
	if err := a.PutFigure(key, "old"); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.GetFigure(key); !ok || got != "old" {
		t.Fatalf("a read %q, %v before the rewrite", got, ok)
	}
	if err := b.PutFigure(key, "new"); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.GetFigure(key); !ok || got != "new" {
		t.Fatalf("a read %q, %v after b rewrote the object, want \"new\"", got, ok)
	}
	if got, ok := a.ProbeFigure(key); !ok || got != "new" {
		t.Fatalf("a probed %q, %v after b rewrote the object, want \"new\"", got, ok)
	}
}

func TestFigureRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := ForFigure("fig8", 2, 1, 200_000, sim.SamplingConfig{})
	if _, ok := s.GetFigure(key); ok {
		t.Fatal("hit on empty store")
	}
	text := "Figure 8: training structure comparison\ngroup training coverage\n"
	if err := s.PutFigure(key, text); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetFigure(key)
	if !ok || got != text {
		t.Fatalf("round trip = %q, %v", got, ok)
	}
}

func TestCorruptObjectIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ForFigure("fig4", 2, 1, 1000, sim.SamplingConfig{})
	if err := s.PutFigure(key, "good"); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write / damaged disk object.
	path := s.objectPath(kindFigure, key)
	if err := os.WriteFile(path, []byte(`{"text": trunca`), 0o644); err != nil {
		t.Fatal(err)
	}

	// The store that wrote the good object must treat it as a miss, not
	// an error, and move the damaged file aside.
	if _, ok := s.GetFigure(key); ok {
		t.Fatal("corrupt object served")
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Quarantined != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v", st)
	}
	// Re-putting repairs it.
	if err := s.PutFigure(key, "repaired"); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.GetFigure(key); !ok || got != "repaired" {
		t.Fatalf("after repair: %q, %v", got, ok)
	}
}

// TestProbeDoesNotCountMisses: the Probe variants are fast-path lookups
// followed by a real Get, so only their hits land in the stats.
func TestProbeDoesNotCountMisses(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := ForFigure("fig4", 1, 1, 10, sim.SamplingConfig{})
	if _, ok := s.ProbeFigure(key); ok {
		t.Fatal("probe hit on empty store")
	}
	if _, ok := s.ProbeResult(key); ok {
		t.Fatal("probe hit on empty store")
	}
	if st := s.Stats(); st.Misses != 0 {
		t.Errorf("probe misses counted: %+v", st)
	}
	if err := s.PutFigure(key, "x"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ProbeFigure(key); !ok {
		t.Fatal("probe missed persisted figure")
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v, want one hit and no misses", st)
	}
}

// TestObjectsAreWorldReadable: a store directory is shared between the
// smsd service user and operators running the CLIs, so objects must not
// keep CreateTemp's owner-only mode.
func TestObjectsAreWorldReadable(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := ForFigure("fig4", 1, 1, 10, sim.SamplingConfig{})
	if err := s.PutFigure(key, "x"); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(s.objectPath(kindFigure, key))
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Errorf("object mode = %o, want 644", perm)
	}
}

func TestAtomicWritesLeaveNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, fig := range []string{"fig4", "fig5", "fig6"} {
		if err := s.PutFigure(ForFigure(fig, 2, int64(i), 1000, sim.SamplingConfig{}), "x"); err != nil {
			t.Fatal(err)
		}
	}
	var stray []string
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && filepath.Ext(path) != ".json" {
			stray = append(stray, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stray) != 0 {
		t.Errorf("stray non-object files: %v", stray)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}

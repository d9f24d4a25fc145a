package sim_test

// Registry tests live in an external test package so they can import
// schemes that themselves import sim (nextline) without a cycle.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/ghb"
	"repro/internal/mem"
	"repro/internal/sectored"
	"repro/internal/sim"
	"repro/internal/stride"
	"repro/internal/workload"

	_ "repro/internal/nextline" // registers "nextline"
)

func smallCoherence(cpus int) coherence.Config {
	return coherence.Config{
		CPUs: cpus,
		L1:   cache.Config{Size: 4 << 10, Assoc: 2, BlockSize: 64},
		L2:   cache.Config{Size: 64 << 10, Assoc: 8, BlockSize: 64},
	}
}

func TestUnknownNameRejected(t *testing.T) {
	_, err := sim.NewRunner(sim.Config{PrefetcherName: "no-such-scheme", Coherence: smallCoherence(1)})
	if err == nil {
		t.Fatal("unknown prefetcher name accepted")
	}
	if !strings.Contains(err.Error(), "no-such-scheme") {
		t.Errorf("error %q does not name the scheme", err)
	}
	// The registered names are part of the message: the CLI shows it.
	if !strings.Contains(err.Error(), "sms") {
		t.Errorf("error %q does not list registered names", err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	// The ctor is a functioning baseline so the round-trip test below
	// stays valid whatever order the tests run in.
	ctor := func(sim.Config) (sim.Prefetcher, error) { return nil, nil }
	sim.Register("dup-probe", ctor)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	sim.Register("dup-probe", ctor)
}

func TestEmptyRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty-name registration did not panic")
		}
	}()
	sim.Register("", func(sim.Config) (sim.Prefetcher, error) { return nil, nil })
}

// TestRegistryRoundTrip drives every registered scheme through a short
// simulation: each name must construct and run.
func TestRegistryRoundTrip(t *testing.T) {
	names := sim.Names()
	for _, want := range []string{"none", "sms", "ls", "ghb", "stride", "nextline"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Fatalf("registry missing %q (have %v)", want, names)
		}
	}
	w, err := workload.ByName("sparse")
	if err != nil {
		t.Fatal(err)
	}
	const n = 20_000
	for _, name := range names {
		r, err := sim.NewRunner(sim.Config{PrefetcherName: name, Coherence: smallCoherence(2), WarmupAccesses: n / 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := r.Run(w.Make(workload.Config{CPUs: 2, Seed: 1, Length: n}))
		if res.Accesses == 0 {
			t.Errorf("%s: run processed no accesses", name)
		}
	}
}

// TestEmptyNameSelectsBaseline checks the zero Config still selects the
// baseline system now that the selection is name-only.
func TestEmptyNameSelectsBaseline(t *testing.T) {
	w, _ := workload.ByName("oltp-db2")
	const n = 50_000
	r, err := sim.NewRunner(sim.Config{Coherence: smallCoherence(2), WarmupAccesses: n / 2})
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run(w.Make(workload.Config{CPUs: 2, Seed: 3, Length: n}))
	if res.StreamRequests != 0 || res.L1CoveredMisses != 0 {
		t.Fatalf("zero config attached a prefetcher: %+v", res)
	}
}

// TestNextlineCoversSequentialMisses checks the registry-added scheme
// actually prefetches: a dense sequential workload must see coverage.
func TestNextlineCoversSequentialMisses(t *testing.T) {
	w, _ := workload.ByName("ocean")
	const n = 100_000
	run := func(name string) *sim.Result {
		r, err := sim.NewRunner(sim.Config{PrefetcherName: name, Coherence: smallCoherence(2), WarmupAccesses: n / 2})
		if err != nil {
			t.Fatal(err)
		}
		return r.Run(w.Make(workload.Config{CPUs: 2, Seed: 1, Length: n}))
	}
	base := run("none")
	nl := run("nextline")
	if nl.StreamRequests == 0 {
		t.Fatal("nextline issued no streams")
	}
	if cov := nl.L1Coverage(base); cov.Covered <= 0 {
		t.Fatalf("nextline coverage %+v — no misses eliminated", cov)
	}
	if len(nl.PrefetcherStats) != 2 {
		t.Fatalf("nextline stats not collected: %d entries", len(nl.PrefetcherStats))
	}
}

// TestRunMatchesCanonicalRun: NewRunner builds from the canonical config,
// so running a config and running its Canonical form give byte-identical
// Result JSON for every built-in, whether its sub-config is left
// implicit, spelled out with the defaults, or spelled "unbounded" as -1
// or -7.
func TestRunMatchesCanonicalRun(t *testing.T) {
	sys := smallCoherence(2)
	cfgs := []sim.Config{
		{PrefetcherName: "none"},
		{PrefetcherName: "none", SMS: core.Config{PHTEntries: 1024}, GHB: ghb.Config{HistoryEntries: 16384}},
		{PrefetcherName: "sms"},
		{PrefetcherName: "sms", SMS: core.Config{
			Geometry: mem.DefaultGeometry(), Index: core.IndexPCOffset,
			FilterEntries: core.DefaultFilterEntries, AccumEntries: core.DefaultAccumEntries,
			PHTEntries: core.DefaultPHTEntries, PHTAssoc: core.DefaultPHTAssoc,
			PredictionRegisters: core.DefaultPredictionRegisters,
		}},
		{PrefetcherName: "sms", SMS: core.Config{FilterEntries: -1, AccumEntries: -7, PHTEntries: -1, PredictionRegisters: -7}},
		{PrefetcherName: "ls"},
		{PrefetcherName: "ls", LS: sectored.Config{
			Geometry: mem.DefaultGeometry(), CacheSize: sys.L1.Size, Assoc: 2,
			PHTEntries: core.DefaultPHTEntries, PHTAssoc: core.DefaultPHTAssoc,
			PredictionRegisters: core.DefaultPredictionRegisters,
		}},
		{PrefetcherName: "ls", LS: sectored.Config{PHTEntries: -7, PredictionRegisters: -1}},
		{PrefetcherName: "ghb"},
		{PrefetcherName: "ghb", GHB: ghb.Config{HistoryEntries: 256, IndexEntries: 256, Degree: ghb.DefaultDegree, MaxChain: ghb.DefaultMaxChain, BlockSize: 64}},
		{PrefetcherName: "stride"},
		{PrefetcherName: "stride", Stride: stride.Config{Entries: 512, Degree: 2, BlockSize: 64}},
	}
	w, err := workload.ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	const n = 20_000
	run := func(cfg sim.Config) []byte {
		r, err := sim.NewRunner(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		data, err := json.Marshal(r.Run(w.Make(workload.Config{CPUs: 2, Seed: 1, Length: n})))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for i, cfg := range cfgs {
		cfg.Coherence, cfg.WarmupAccesses = sys, n/2
		if raw, canon := run(cfg), run(cfg.Canonical()); !bytes.Equal(raw, canon) {
			t.Errorf("cfg %d (%s): Run(cfg) and Run(cfg.Canonical()) differ", i, cfg.PrefetcherName)
		}
	}
}

// TestExternalSchemeReceivesSubConfigs: a scheme registered through
// Register may read any sub-config, so it receives the caller's SMS
// sub-config, resolved against the run, even though it is not "sms".
func TestExternalSchemeReceivesSubConfigs(t *testing.T) {
	var got sim.Config
	sim.Register("sub-config-probe", func(cfg sim.Config) (sim.Prefetcher, error) {
		got = cfg
		return nil, nil
	})
	geo := mem.MustGeometry(64, 4096)
	if _, err := sim.NewRunner(sim.Config{
		PrefetcherName: "sub-config-probe",
		Coherence:      smallCoherence(1),
		Geometry:       geo,
		SMS:            core.Config{PHTEntries: 1024, Index: core.IndexPC},
	}); err != nil {
		t.Fatal(err)
	}
	if got.SMS.PHTEntries != 1024 || got.SMS.Index != core.IndexPC {
		t.Errorf("probe received SMS %+v, want the caller's PHTEntries 1024 and Index PC", got.SMS)
	}
	if got.SMS.Geometry != geo {
		t.Errorf("probe received SMS geometry %v, want the run's %v", got.SMS.Geometry, geo)
	}
	if got.LS.CacheSize != smallCoherence(1).L1.Size {
		t.Errorf("probe received LS cache size %d, want the L1 size", got.LS.CacheSize)
	}
}

package sim_test

// Registry tests live in an external test package so they can import
// schemes that themselves import sim (nextline) without a cycle.

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/sim"
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

package sim_test

// Golden-result pins for the hot-path rewrite: each case hashes the full
// canonical Result JSON of one simulation. The expected hashes were
// recorded from the map-based implementation (pre PR 4) and must never
// change — the result store content-addresses runs, so any drift here
// silently invalidates every figure. Run with -run TestGoldenResults
// -v to see the computed hashes when adding a case.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"

	_ "repro/internal/nextline"
)

// goldenLength keeps each case around 60k records: long enough to cycle
// every structure (directory growth, generation retirement, register-file
// round-robin, window flushes), short enough for -short CI.
const goldenLength = 60_000

func goldenWorkload(t testing.TB, name string) workload.Config {
	t.Helper()
	return workload.Config{CPUs: 4, Seed: 7, Scale: 1.0, Length: goldenLength}
}

func bigBlockSystem() coherence.Config {
	return coherence.Config{
		CPUs: 4,
		L1:   cache.Config{Size: 32 << 10, Assoc: 2, BlockSize: 256},
		L2:   cache.Config{Size: 1 << 20, Assoc: 8, BlockSize: 256},
	}
}

var goldenCases = []struct {
	name     string
	workload string
	cfg      sim.Config
	want     string
}{
	{
		name:     "oltp-db2-sms-gens-windows",
		workload: "oltp-db2",
		cfg: sim.Config{
			PrefetcherName:     "sms",
			WarmupAccesses:     goldenLength / 2,
			TrackGenerations:   true,
			WindowInstructions: 4096,
		},
		want: "efb6600de8b86b34841eb362182a25ad579d0e109ab32d898fed9902a71c4c74",
	},
	{
		name:     "oltp-oracle-baseline-windows",
		workload: "oltp-oracle",
		cfg: sim.Config{
			PrefetcherName:     "none",
			WarmupAccesses:     goldenLength / 2,
			WindowInstructions: 4096,
		},
		want: "66ebde0c319d1ffb325c040391d66255b43834a09fd481990461d19c237c3442",
	},
	{
		name:     "dss-q1-ghb",
		workload: "dss-q1",
		cfg: sim.Config{
			PrefetcherName: "ghb",
			WarmupAccesses: goldenLength / 2,
		},
		// Re-pinned when GHBStats.ChainLength became the walk length up
		// to the delta match; no other field moved.
		want: "59e2f952652ff894ba2e2461c15a59c096b68d83a9554dd7c1a7c3dd0937f580",
	},
	{
		name:     "web-apache-ls-gens",
		workload: "web-apache",
		cfg: sim.Config{
			PrefetcherName:   "ls",
			WarmupAccesses:   goldenLength / 2,
			TrackGenerations: true,
		},
		want: "8008ce5c461baed96c0db374f8eddb2f900110704b57064aa8990b88b84bc9f6",
	},
	{
		name:     "sparse-stride",
		workload: "sparse",
		cfg: sim.Config{
			PrefetcherName: "stride",
			WarmupAccesses: goldenLength / 2,
		},
		want: "a3479723618e6b618e0af92c68fc69e012ec8761cd8394abe22570fa018f6cf4",
	},
	{
		name:     "dss-q2-nextline",
		workload: "dss-q2",
		cfg: sim.Config{
			PrefetcherName: "nextline",
			WarmupAccesses: goldenLength / 2,
		},
		want: "19d52ae032a96589a100c7bb382e9bb10b183ace05c29d0b11ce77253cee5cee",
	},
	{
		name:     "em3d-sms-bigblock-gens",
		workload: "em3d",
		cfg: sim.Config{
			Coherence:        bigBlockSystem(),
			Geometry:         mem.MustGeometry(256, 4096),
			PrefetcherName:   "sms",
			WarmupAccesses:   goldenLength / 2,
			TrackGenerations: true,
		},
		want: "244396f24d207b6876c2c97dfb710a57683ca53df891b650a6b875486cb2d0d3",
	},
	{
		name:     "ocean-sms-region4k",
		workload: "ocean",
		cfg: sim.Config{
			Geometry:       mem.MustGeometry(64, 4096),
			PrefetcherName: "sms",
			WarmupAccesses: goldenLength / 2,
		},
		want: "d0026962dbbfa71187af6cc624576c85cd6e14e27f670412c502ea9692f05479",
	},
}

func resultHash(t testing.TB, res *sim.Result) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func TestGoldenResults(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := workload.ByName(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			r, err := sim.NewRunner(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := r.Run(w.Make(goldenWorkload(t, tc.workload)))
			got := resultHash(t, res)
			t.Logf("%s: %s", tc.name, got)
			if got != tc.want {
				t.Errorf("result hash drifted:\n got  %s\n want %s\nthe simulation no longer produces bit-identical results; store keys and figure numbers would change", got, tc.want)
			}
		})
	}
}

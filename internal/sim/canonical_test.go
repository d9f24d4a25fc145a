package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ghb"
	"repro/internal/sectored"
)

// TestCanonicalIdempotent: the result store hashes Canonical forms and
// NewRunner builds from them, so canonicalizing twice must be a no-op —
// in particular the <0 "unbounded" spellings must stay -1.
func TestCanonicalIdempotent(t *testing.T) {
	cfgs := []Config{
		{},
		{PrefetcherName: "sms"},
		{PrefetcherName: "ghb"},
		{PrefetcherName: "stride"},
		{PrefetcherName: "nextline"},
		{PrefetcherName: "sms", SMS: core.Config{PHTEntries: -1, AccumEntries: -1, PredictionRegisters: -7}},
		{PrefetcherName: "sms", SMS: core.Config{FilterEntries: -7, PHTAssoc: -7}},
		{PrefetcherName: "ls", LS: sectored.Config{PHTEntries: -7, PredictionRegisters: -7}},
		{PrefetcherName: "ghb", GHB: ghb.Config{HistoryEntries: 16384}},
		{PrefetcherName: "ls", StreamRate: 9, WarmupAccesses: 123},
	}
	for i, c := range cfgs {
		once := c.Canonical()
		if twice := once.Canonical(); twice != once {
			t.Errorf("cfg %d not idempotent:\nonce:  %+v\ntwice: %+v", i, once, twice)
		}
	}
}

// TestCanonicalSpellsUnboundedOnce: every <0 spelling of "unbounded" or
// "disabled" canonicalizes to -1, so -1 and -7 name one run.
func TestCanonicalSpellsUnboundedOnce(t *testing.T) {
	sms := func(v int) Config {
		return Config{PrefetcherName: "sms", SMS: core.Config{FilterEntries: v, AccumEntries: v, PHTEntries: v, PredictionRegisters: v}}
	}
	ls := func(v int) Config {
		return Config{PrefetcherName: "ls", LS: sectored.Config{PHTEntries: v, PredictionRegisters: v}}
	}
	for _, pair := range [][2]Config{{sms(-1), sms(-7)}, {ls(-1), ls(-7)}} {
		if a, b := pair[0].Canonical(), pair[1].Canonical(); a != b {
			t.Errorf("-1 and -7 canonicalize differently:\n%+v\n%+v", a, b)
		}
	}
	if got := sms(-7).Canonical().SMS.PHTEntries; got != -1 {
		t.Errorf("SMS PHTEntries -7 canonicalized to %d, want -1", got)
	}
	if got := ls(-7).Canonical().LS.PredictionRegisters; got != -1 {
		t.Errorf("LS PredictionRegisters -7 canonicalized to %d, want -1", got)
	}
}

// TestCanonicalResolvesEmptyName: an empty PrefetcherName canonicalizes
// to the baseline scheme.
func TestCanonicalResolvesEmptyName(t *testing.T) {
	if got := (Config{}).Canonical().PrefetcherName; got != "none" {
		t.Errorf("empty name canonicalized to %q, want \"none\"", got)
	}
}

// TestCanonicalResolvesSubConfigs: sub-config defaults spelled out and
// left implicit canonicalize identically (the cross-tool cache-key
// requirement), and each built-in's run-derived fields (geometry, LS
// cache size, block size) are filled from the run on that scheme's own
// runs.
func TestCanonicalResolvesSubConfigs(t *testing.T) {
	implicit := Config{PrefetcherName: "sms"}.Canonical()
	explicit := Config{
		PrefetcherName: "sms",
		SMS:            core.Config{Index: core.IndexPCOffset, PHTEntries: core.DefaultPHTEntries},
		GHB:            ghb.Config{HistoryEntries: 256},
	}.Canonical()
	if implicit != explicit {
		t.Errorf("explicit defaults differ from implicit:\n%+v\n%+v", implicit, explicit)
	}
	if implicit.SMS.Geometry != implicit.Geometry {
		t.Error("SMS geometry not derived from the run geometry")
	}
	if g := (Config{PrefetcherName: "ghb"}).Canonical(); g.GHB.BlockSize != g.Coherence.L1.BlockSize {
		t.Error("GHB block size not derived from the L1 block size")
	}
	if s := (Config{PrefetcherName: "stride"}).Canonical(); s.Stride.BlockSize != s.Coherence.L1.BlockSize {
		t.Error("stride block size not derived from the L1 block size")
	}
	ls := Config{PrefetcherName: "ls"}.Canonical()
	if ls.LS.CacheSize != ls.Coherence.L1.Size {
		t.Error("LS cache size not derived from the L1 size")
	}
	if ls.LS.Geometry != ls.Geometry {
		t.Error("LS geometry not derived from the run geometry")
	}
}

package fault

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// FuzzFaultLoad feeds arbitrary inline specs to Load, the parser behind
// smsd's -fault-plan flag and SMSD_FAULT_PLAN. Load must never panic: it
// returns an injector, nil for a blank spec, or an error naming the
// package. A plan it accepts must evaluate at its own sites without
// panicking, and a torn write must keep fewer bytes than it was given.
func FuzzFaultLoad(f *testing.F) {
	// The plans the unit tests build, as an operator would write them.
	for _, plan := range []Plan{
		{Rules: []Rule{{Site: "op", Kind: KindError, After: 2, Times: 2}}},
		{Rules: []Rule{{Site: "store.results.*", Kind: KindError, Times: 1}}},
		{Seed: 7, Rules: []Rule{{Site: "op", Kind: KindError, Prob: 0.5}}},
		{Rules: []Rule{{Site: "journal.append.settled", Kind: KindCrash, Times: 1}}},
		{Rules: []Rule{{Site: "store.results.write", Kind: KindPartial, Frac: 0.5}}},
		{Rules: []Rule{{Site: "w", Kind: KindPartial, Frac: 0.999}}},
		{Rules: []Rule{{Site: "op", Kind: KindCrash}}},
		{Rules: []Rule{{Site: "op", Kind: KindLatency, DelayMS: 30, Times: 1}}},
		{Seed: 3, Rules: []Rule{{Site: "op", Kind: KindError, Error: "disk full"}}},
		{},
	} {
		b, err := json.Marshal(plan)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Add("")
	f.Add(`{"rules": [{"site": "op", "kind": "meteor"}]}`)
	f.Add(`{"rules": [{"kind": "error"}]}`)
	f.Add(`{"typo": true}`)
	f.Add(`{"rules": [{"site": "w", "kind": "partial", "frac": 1}]}`)
	f.Add(`{"seed": -1, "rules": [{"site": "*", "kind": "error", "after": -3, "times": -1, "prob": -0.5}]}`)

	f.Fuzz(func(t *testing.T, spec string) {
		if strings.HasPrefix(strings.TrimSpace(spec), "@") {
			t.Skip("file specs read the filesystem; only inline plans are fuzzed")
		}
		inj, err := Load(spec)
		if err != nil {
			if inj != nil {
				t.Fatalf("Load returned both an injector and %v", err)
			}
			if !strings.HasPrefix(err.Error(), "fault: ") {
				t.Fatalf("error %q does not name the package", err)
			}
			return
		}
		if inj == nil {
			if strings.TrimSpace(spec) != "" {
				t.Fatalf("non-blank spec %q loaded as no injector", spec)
			}
			return
		}
		for _, r := range inj.plan.Rules {
			if r.Kind == KindLatency && r.DelayMS > 0 {
				return // evaluating it would sleep for the fuzzed delay
			}
		}
		for _, r := range inj.plan.Rules {
			site := r.Site
			if p, ok := strings.CutSuffix(site, "*"); ok {
				site = p + "x"
			}
			if err := inj.Point(site); err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("Point(%q) = %v, not an injected fault", site, err)
			}
			keep, err := inj.Partial(site, 100)
			if err == nil && keep != 100 {
				t.Fatalf("Partial(%q, 100) kept %d with no fault", site, keep)
			}
			if err != nil && (keep < 0 || keep >= 100 || !errors.Is(err, ErrInjected)) {
				t.Fatalf("Partial(%q, 100) = (%d, %v)", site, keep, err)
			}
		}
	})
}

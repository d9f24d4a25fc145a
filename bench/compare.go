package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// resultFile is what -all writes: the environment and every workload
// result of every set.
type resultFile struct {
	Env     environment `json:"env"`
	Seconds float64     `json:"seconds"`
	Sets    []setResult `json:"sets"`
}

// setResult is one pass over the workloads.
type setResult struct {
	Order     []string                  `json:"order"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// workloadResult is one workload run: its result line, the diagnostics
// printed beside it, and how long the run took end to end.
type workloadResult struct {
	outcome
	Extra    map[string]metric `json:"extra,omitempty"`
	ElapsedS float64           `json:"elapsed_s"`
}

func readResult(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("decoding %s: %w", path, err)
	}
	return rf, nil
}

// side is one side of a comparison: every value of every (workload,
// end-to-end metric) pair, in run order, and the check tallies.
type side struct {
	values            map[string][]float64 // "workload metric" → values
	attempted, failed map[string]int
}

func newSide() side {
	return side{values: map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
}

func (s side) add(set setResult) {
	for name, w := range set.Workloads {
		for _, d := range endToEnd {
			if m, ok := w.Metrics[d.Name]; ok {
				k := name + " " + d.Name
				s.values[k] = append(s.values[k], m.Value)
			}
		}
		s.attempted[name] += w.Attempted
		s.failed[name] += w.Failed
	}
}

// Verdicts of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
	verdictGain       = "gain"
)

// pairVerdict judges side b (the change) against side a (the baseline)
// for one metric. A pair whose baseline quartile spread exceeds the bound
// is unresolved unless every b value beats every a value. Otherwise b
// regresses when its median is worse by more than the bound, and gains
// when it wins at least nine tenths of at least ten run pairs and the
// medians differ by more than the baseline's quartile spread.
func pairVerdict(d metricDef, a, b []float64) (verdict string, change float64) {
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	q1, am, q3 := quartiles(a)
	bm := median(b)
	change = ratio(bm-am, am)
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	if ratio(q3-q1, am) > d.Bound {
		if allBetter(d, a, b) {
			return verdictGain, change
		}
		return verdictUnresolved, change
	}
	if worse > d.Bound {
		return verdictRegressed, change
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if pairs >= minGainPairs && float64(wins) >= 0.9*float64(pairs) && math.Abs(bm-am) > q3-q1 {
		return verdictGain, change
	}
	return verdictOK, change
}

// minGainPairs is the fewest run pairs a gain may rest on.
const minGainPairs = 10

// allBetter reports whether every value of b beats every value of a.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if d.Better == "higher" {
		return minOf(b) > maxOf(a)
	}
	return maxOf(b) < minOf(a)
}

// compareSides prints one row per (workload, end-to-end metric) pair and
// returns how many regressed.
func compareSides(w io.Writer, a, b side) int {
	regressed := 0
	fmt.Fprintf(w, "%-19s %-18s %12s %23s %3s %12s %23s %3s %8s %6s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "n", "B median", "B [q1, q3]", "n", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			k := wl.name + " " + d.Name
			av, bv := a.values[k], b.values[k]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			verdict, change := pairVerdict(d, av, bv)
			if verdict == verdictRegressed {
				regressed++
			}
			aq1, am, aq3 := quartiles(av)
			bq1, bm, bq3 := quartiles(bv)
			fmt.Fprintf(w, "%-19s %-18s %12.6g [%10.6g, %10.6g] %3d %12.6g [%10.6g, %10.6g] %3d %+7.1f%% %5.0f%%  %s\n",
				wl.name, d.Name, am, aq1, aq3, len(av), bm, bq1, bq3, len(bv), 100*change, 100*d.Bound, verdict)
		}
		if a.failed[wl.name] > 0 || b.failed[wl.name] > 0 {
			fmt.Fprintf(w, "%-19s failed checks: A %d of %d, B %d of %d\n",
				wl.name, a.failed[wl.name], a.attempted[wl.name], b.failed[wl.name], b.attempted[wl.name])
			if b.failed[wl.name] > a.failed[wl.name] {
				regressed++
			}
		}
	}
	return regressed
}

// compareFiles implements `compare A.json [...] [-- B.json ...]`: the
// files before "--" are the baseline side and those after it the change
// side; without "--" the first file is the baseline and the rest the
// change. It refuses results measured in different environments.
func compareFiles(w io.Writer, args []string) error {
	var aPaths, bPaths []string
	for i, arg := range args {
		if arg == "--" {
			aPaths, bPaths = args[:i], args[i+1:]
			break
		}
	}
	if aPaths == nil && len(args) > 0 {
		aPaths, bPaths = args[:1], args[1:]
	}
	if len(aPaths) == 0 || len(bPaths) == 0 {
		return fmt.Errorf("usage: compare BASE.json [...] [-- CHANGE.json ...]")
	}
	a, b := newSide(), newSide()
	var first *environment
	for i, path := range append(append([]string(nil), aPaths...), bPaths...) {
		rf, err := readResult(path)
		if err != nil {
			return err
		}
		if first == nil {
			first = &rf.Env
		} else if field := first.differs(rf.Env); field != "" {
			return fmt.Errorf("refusing to compare: %s differs between %s and %s", field, aPaths[0], path)
		}
		s := a
		if i >= len(aPaths) {
			s = b
		}
		for _, set := range rf.Sets {
			s.add(set)
		}
	}
	if n := compareSides(w, a, b); n > 0 {
		return fmt.Errorf("%d regression(s)", n)
	}
	return nil
}

// compareSets compares the odd sets of one result (1, 3, ...) against
// its even sets: two passes of the same code, which must agree within
// the benchmark's own bounds.
func compareSets(w io.Writer, rf resultFile) int {
	a, b := newSide(), newSide()
	for i, set := range rf.Sets {
		if i%2 == 0 {
			a.add(set)
		} else {
			b.add(set)
		}
	}
	return compareSides(w, a, b)
}

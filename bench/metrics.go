package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported by every
// untraced run of every workload. All are host costs, lower is better.
// The bounds are as wide as the contract allows: on the 2-core host the
// benchmark was built on, ten runs of one workload spread by up to 15–18%
// between their quartiles (README.md, "Noise").
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"ns_per_record_p50", "ns", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's layer diagnostics, named after the module
// they measure. A layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"trace.replay_ns_per_record", "ns", "lower", 0},
	{"trace.generate_s", "s", "lower", 0},
	{"trace.generations", "count", "lower", 0},
	{"trace.open_s", "s", "lower", 0},
	{"coherence.access_ns_per_record", "ns", "lower", 0},
	{"coherence.l1_miss_ratio", "ratio", "lower", 0},
	{"coherence.l2_miss_ratio", "ratio", "lower", 0},
	{"coherence.l2_evictions_per_access", "ratio", "lower", 0},
	{"coherence.invalidations_per_access", "ratio", "lower", 0},
	{"sim.account_ns_per_record", "ns", "lower", 0},
	{"sim.gens_ns_per_record", "ns", "lower", 0},
	{"sim.prefetch_sms_ns_per_record", "ns", "lower", 0},
	{"sim.prefetch_ls_ns_per_record", "ns", "lower", 0},
	{"sim.prefetch_nextline_ns_per_record", "ns", "lower", 0},
	{"sim.stream_fill_ns_per_record", "ns", "lower", 0},
	{"sim.chunk_p90_ns_per_record", "ns", "lower", 0},
	{"sim.warm_s", "s", "lower", 0},
	{"sim.window_s", "s", "lower", 0},
	{"sim.gap_s", "s", "lower", 0},
	{"sim.measured_frac", "ratio", "lower", 0},
	{"core.train_ns_per_call", "ns", "lower", 0},
	{"core.trains", "count", "lower", 0},
	{"core.drain_ns_per_call", "ns", "lower", 0},
	{"core.drains", "count", "lower", 0},
	{"core.drain_empty_ratio", "ratio", "lower", 0},
	{"core.prediction_ratio", "ratio", "higher", 0},
	{"core.streams_per_access", "ratio", "lower", 0},
	{"engine.cells", "count", "lower", 0},
	{"engine.memo_hits", "count", "higher", 0},
	{"engine.busy_frac", "ratio", "higher", 0},
	{"engine.cell_p50_s", "s", "lower", 0},
	{"engine.cell_max_s", "s", "lower", 0},
	{"engine.drain_tail_s", "s", "lower", 0},
	{"engine.queue_wait_p50_s", "s", "lower", 0},
	{"exp.custom_s", "s", "lower", 0},
	{"exp.sampled_ds_rows_off", "count", "lower", 0},
	{"exp.sampled_err_pp", "pp", "lower", 0},
	{"store.put_s", "s", "lower", 0},
	{"store.writes", "count", "lower", 0},
	{"store.bytes_written", "bytes", "lower", 0},
	{"store.trace_writes", "count", "lower", 0},
	{"store.trace_bytes_written", "bytes", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a workload run prints: the check tallies and
// the metrics of its mode (end-to-end untraced, per-layer traced).
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one workload run's results.
type report struct {
	workload  string
	defs      []metricDef
	values    map[string]float64
	extra     []line // diagnostics printed beside the metrics
	attempted int
	failed    int
	problems  []string
}

// line is one printed "workload metric value unit" row.
type line struct {
	name  string
	value float64
	unit  string
}

func newReport(workload string, traced bool) *report {
	r := &report{workload: workload, defs: endToEnd, values: map[string]float64{}}
	if traced {
		r.defs = perLayer
		// Layers a workload does not reach report 0 rather than go missing.
		for _, d := range perLayer {
			r.values[d.Name] = 0
		}
	}
	return r
}

// set records a metric of the run's mode; names outside it are a bug
// caught by outcome.
func (r *report) set(name string, v float64) { r.values[name] = v }

// note records a diagnostic that is printed but not part of the result.
func (r *report) note(name string, v float64, unit string) {
	r.extra = append(r.extra, line{name, v, unit})
}

// check counts one checked output; a failed check is described on stderr.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// outcome validates the recorded metrics against the mode's catalogue and
// builds the result line.
func (r *report) outcome() (outcome, error) {
	out := outcome{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	out.Correct = r.failed == 0 && r.attempted > 0
	for _, d := range r.defs {
		v, ok := r.values[d.Name]
		if !ok {
			return out, fmt.Errorf("%s: metric %s was not measured", r.workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("%s: metric %s is %v", r.workload, d.Name, v)
		}
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(r.values) != len(out.Metrics) {
		var stray []string
		for name := range r.values {
			if _, ok := out.Metrics[name]; !ok {
				stray = append(stray, name)
			}
		}
		sort.Strings(stray)
		return out, fmt.Errorf("%s: metrics %v are not in the catalogue", r.workload, stray)
	}
	return out, nil
}

// print writes every metric and diagnostic as "workload metric value
// unit", problems to errw, and the result JSON as the last line of w.
func (r *report) print(w, errw io.Writer) error {
	out, err := r.outcome()
	if err != nil {
		return err
	}
	for _, p := range r.problems {
		fmt.Fprintf(errw, "%s: check failed: %s\n", r.workload, p)
	}
	for _, d := range r.defs {
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, d.Name, formatValue(out.Metrics[d.Name].Value), d.Unit)
	}
	for _, l := range r.extra {
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, l.name, formatValue(l.value), l.unit)
	}
	errRate := ratio(float64(out.Failed), float64(out.Attempted))
	fmt.Fprintf(w, "%s error_rate %s ratio\n", r.workload, formatValue(errRate))
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// formatValue prints whole numbers in full and others to six digits.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

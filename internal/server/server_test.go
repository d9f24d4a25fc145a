package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/store"
)

func tinySession(t *testing.T, dir string) *exp.Session {
	t.Helper()
	return sessionWith(t, dir, exp.Options{CPUs: 1, Seed: 1, Length: 10_000})
}

func sessionWith(t *testing.T, dir string, opts exp.Options) *exp.Session {
	t.Helper()
	s := exp.NewSession(opts)
	if dir != "" {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.SetStore(st)
	}
	return s
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func postJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func del(t *testing.T, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func decodeJob(t *testing.T, body string) JobDoc {
	t.Helper()
	var doc JobDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("decoding job doc %q: %v", body, err)
	}
	return doc
}

// pollJob polls the job until it reaches a terminal state.
func pollJob(t *testing.T, baseURL, id string) JobDoc {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := get(t, baseURL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("polling job %s: status %d body %q", id, code, body)
		}
		doc := decodeJob(t, body)
		if doc.State.terminal() {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, doc.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSingleflightDeduplicatesConcurrentFigureRequests: 50 concurrent
// synchronous requests for the same uncached figure execute exactly one
// underlying computation.
func TestSingleflightDeduplicatesConcurrentFigureRequests(t *testing.T) {
	var computations atomic.Uint64
	gate := make(chan struct{})
	experiments := map[string]exp.Runner{
		"slowfig": func(context.Context, *exp.Session) (string, error) {
			computations.Add(1)
			<-gate // stall until every request has arrived
			return "the figure body", nil
		},
	}
	s, ts := newTestServer(t, Config{
		Session:     tinySession(t, ""),
		Workers:     4,
		Experiments: experiments,
	})

	const n = 50
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = get(t, ts.URL+"/v1/figures/slowfig")
		}(i)
	}
	// Release the computation only once the leader is executing and all
	// 49 followers have joined its in-flight call (deduped increments
	// before a follower blocks), so the gate cannot open while a
	// straggler could still start a second computation.
	deadline := time.Now().Add(10 * time.Second)
	for computations.Load() < 1 || s.metrics.deduped.Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("joined %d/%d followers, %d computations", s.metrics.deduped.Value(), n-1, computations.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := computations.Load(); got != 1 {
		t.Fatalf("%d computations for %d concurrent requests, want exactly 1", got, n)
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK || !strings.Contains(bodies[i], "the figure body") {
			t.Fatalf("request %d: status %d body %q", i, codes[i], bodies[i])
		}
	}
	if got := s.metrics.deduped.Value(); got != n-1 {
		t.Errorf("deduplicated = %d, want %d", got, n-1)
	}

	// A request after completion recomputes (nothing cached in this
	// registry-stubbed setup) — the flight entry must not leak.
	if code, _ := get(t, ts.URL+"/v1/figures/slowfig"); code != http.StatusOK {
		t.Fatalf("follow-up status %d", code)
	}
	if got := computations.Load(); got != 2 {
		t.Errorf("follow-up did not run fresh: %d computations", got)
	}
}

func TestQueueFullShedsLoad(t *testing.T) {
	started := make(chan struct{}, 2)
	gate := make(chan struct{})
	experiments := map[string]exp.Runner{
		"block": func(context.Context, *exp.Session) (string, error) {
			started <- struct{}{}
			<-gate
			return "blocked", nil
		},
		"other": func(context.Context, *exp.Session) (string, error) { return "other", nil },
	}
	// One worker and no queue: whatever the worker is chewing on is the
	// only admitted job.
	s, ts := newTestServer(t, Config{
		Session:     tinySession(t, ""),
		Workers:     1,
		Queue:       -1,
		Experiments: experiments,
	})

	errc := make(chan error, 1)
	go func() {
		code, _ := get(t, ts.URL+"/v1/figures/block")
		if code != http.StatusOK {
			errc <- io.EOF
		}
		errc <- nil
	}()
	<-started // the worker is now occupied

	code, body := get(t, ts.URL+"/v1/figures/other")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d body %q, want 503", code, body)
	}
	if s.metrics.rejected.Value() == 0 {
		t.Error("rejection not counted")
	}

	// An async run job is shed the same way: 503, no dangling job.
	code, body = postJSON(t, ts.URL+"/v1/runs", `{"workload":"sparse"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("run job with full queue: %d %q, want 503", code, body)
	}

	close(gate)
	if err := <-errc; err != nil {
		t.Fatal("blocked request failed")
	}
}

// TestWarmStoreFigureBypassesBusyPool: a figure already persisted in the
// store must be served even when every worker is occupied — cached
// serving is the daemon's primary job and needs no worker slot. The
// async form settles instantly as a done job.
func TestWarmStoreFigureBypassesBusyPool(t *testing.T) {
	sess := tinySession(t, t.TempDir())
	warm := func(context.Context, *exp.Session) (string, error) { return "warm body", nil }
	if _, err := sess.RunFigure(context.Background(), "warmfig", warm); err != nil { // persists to the store
		t.Fatal(err)
	}

	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	defer close(gate)
	_, ts := newTestServer(t, Config{
		Session: sess,
		Workers: 1,
		Queue:   -1,
		Experiments: map[string]exp.Runner{
			"warmfig": warm,
			"block": func(context.Context, *exp.Session) (string, error) {
				started <- struct{}{}
				<-gate
				return "blocked", nil
			},
		},
	})

	go func() {
		if resp, err := http.Get(ts.URL + "/v1/figures/block"); err == nil {
			resp.Body.Close()
		}
	}()
	<-started // the only worker is now occupied

	code, body := get(t, ts.URL+"/v1/figures/warmfig")
	if code != http.StatusOK || !strings.Contains(body, "warm body") {
		t.Fatalf("warm figure under load: %d %q, want 200", code, body)
	}

	code, body = postJSON(t, ts.URL+"/v1/figures/warmfig", "")
	if code != http.StatusAccepted {
		t.Fatalf("warm figure job under load: %d %q, want 202", code, body)
	}
	doc := decodeJob(t, body)
	if doc.State != JobDone || !strings.Contains(doc.Figure, "warm body") {
		t.Fatalf("warm figure job did not settle instantly: %+v", doc)
	}
}

// TestRunJobLifecycle drives the async job API end to end: 202 +
// pollable job, result on completion, and instant settlement for a
// repeated (cached) request.
func TestRunJobLifecycle(t *testing.T) {
	sess := tinySession(t, t.TempDir())
	_, ts := newTestServer(t, Config{Session: sess})

	code, body := postJSON(t, ts.URL+"/v1/runs", `{"workload":"sparse","prefetcher":"sms"}`)
	if code != http.StatusAccepted {
		t.Fatalf("status %d body %q, want 202", code, body)
	}
	doc := decodeJob(t, body)
	if doc.ID == "" || doc.Kind != "run" || doc.State.terminal() && doc.State != JobDone {
		t.Fatalf("job doc %+v", doc)
	}

	final := pollJob(t, ts.URL, doc.ID)
	if final.State != JobDone {
		t.Fatalf("job settled as %s (%s)", final.State, final.Error)
	}
	rr := final.Result
	if rr == nil || rr.Result == nil || rr.Result.Accesses == 0 || rr.Key == "" || rr.Prefetcher != "sms" {
		t.Fatalf("result %+v", rr)
	}
	if final.Progress.TotalRuns != 1 || final.Progress.DoneRuns != 1 {
		t.Errorf("progress %+v", final.Progress)
	}
	if sess.Simulations() != 1 {
		t.Fatalf("simulations = %d", sess.Simulations())
	}

	// The same run again settles instantly from the cache — no new
	// simulation, job already done in the 202 response.
	code, body = postJSON(t, ts.URL+"/v1/runs", `{"workload":"sparse","prefetcher":"sms"}`)
	if code != http.StatusAccepted {
		t.Fatalf("repeat status %d", code)
	}
	repeat := decodeJob(t, body)
	if repeat.State != JobDone || repeat.Result == nil || repeat.Progress.CachedRuns != 1 {
		t.Fatalf("repeat job %+v", repeat)
	}
	if sess.Simulations() != 1 {
		t.Errorf("repeat run resimulated: %d", sess.Simulations())
	}
	if repeat.Result.Key != rr.Key {
		t.Error("repeat run key differs")
	}

	// Region-size override changes the key.
	code, body = postJSON(t, ts.URL+"/v1/runs", `{"workload":"sparse","prefetcher":"sms","region_size":4096}`)
	if code != http.StatusAccepted {
		t.Fatalf("region run status %d body %q", code, body)
	}
	region := pollJob(t, ts.URL, decodeJob(t, body).ID)
	if region.State != JobDone || region.Result.Key == rr.Key {
		t.Error("region override did not change the run key")
	}

	// Sampled runs carry a Sampling block and key separately from exact.
	code, body = postJSON(t, ts.URL+"/v1/runs",
		`{"workload":"sparse","prefetcher":"sms","sampling":{"WindowRecords":500,"IntervalRecords":2000}}`)
	if code != http.StatusAccepted {
		t.Fatalf("sampled run status %d body %q", code, body)
	}
	sampled := pollJob(t, ts.URL, decodeJob(t, body).ID)
	if sampled.State != JobDone {
		t.Fatalf("sampled job settled as %s (%s)", sampled.State, sampled.Error)
	}
	if sampled.Result.Key == rr.Key {
		t.Error("sampled run shares the exact run's key")
	}
	if sampled.Result.Result.Sampling == nil {
		t.Error("sampled run result carries no Sampling block")
	}

	for _, bad := range []string{
		`{"workload":"nope"}`,
		`{"workload":"sparse","prefetcher":"nope"}`,
		`{"workload":"sparse","region_size":7}`,
		`{"workload":"sparse","region_size":-2048}`,
		// Regions wider than a spatial pattern under a scheme that
		// records patterns: these used to panic mid-run and kill smsd.
		`{"workload":"sparse","prefetcher":"sms","region_size":16384}`,
		`{"workload":"sparse","prefetcher":"ls","region_size":16384}`,
		`{"workload":"sparse","sampling":{"WindowRecords":500,"IntervalRecords":100}}`,
		`{"workload":"sparse","sampling":{"WindowRecords":500,"Confidence":2}}`,
		`not json`,
	} {
		if code, _ := postJSON(t, ts.URL+"/v1/runs", bad); code != http.StatusBadRequest {
			t.Errorf("bad request %q: status %d, want 400", bad, code)
		}
	}
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after the bad requests: %d %q", code, body)
	}
}

// TestJobCancellation: DELETE stops an in-flight simulation within a
// progress interval and the job settles as cancelled, leaving the store
// untouched.
func TestJobCancellation(t *testing.T) {
	dir := t.TempDir()
	// A long trace so the run is still in flight when we cancel.
	sess := sessionWith(t, dir, exp.Options{CPUs: 1, Seed: 1, Length: 50_000_000})
	_, ts := newTestServer(t, Config{Session: sess, Workers: 2})

	code, body := postJSON(t, ts.URL+"/v1/runs", `{"workload":"sparse","prefetcher":"sms"}`)
	if code != http.StatusAccepted {
		t.Fatalf("status %d body %q", code, body)
	}
	id := decodeJob(t, body).ID

	// Wait until the job is actually simulating (progress moves).
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := get(t, ts.URL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		doc := decodeJob(t, body)
		if doc.State == JobRunning && doc.Progress.Records > 0 {
			break
		}
		if doc.State.terminal() {
			t.Fatalf("job settled before cancellation: %+v", doc)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started making progress")
		}
		time.Sleep(2 * time.Millisecond)
	}

	code, body = del(t, ts.URL+"/v1/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("cancel status %d body %q", code, body)
	}
	final := pollJob(t, ts.URL, id)
	if final.State != JobCancelled {
		t.Fatalf("state %s after cancel, want cancelled", final.State)
	}
	if st := sess.Store().Stats(); st.Writes != 0 {
		t.Errorf("cancelled run wrote %d store objects", st.Writes)
	}
	if sess.Engine().CancelledRuns() == 0 {
		t.Error("engine did not count the cancelled run")
	}

	// Cancelling a settled job is a no-op reporting the final state.
	code, body = del(t, ts.URL+"/v1/jobs/"+id)
	if code != http.StatusOK || decodeJob(t, body).State != JobCancelled {
		t.Fatalf("re-cancel: %d %q", code, body)
	}

	// Metrics expose the cancellation gauges.
	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"smsd_jobs_cancelled_total 1",
		"smsd_engine_cancelled_runs_total 1",
		"smsd_jobs_active 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestJobEndpointsErrors: unknown jobs 404 on GET and DELETE; unknown
// figures 404 on the async form too.
func TestJobEndpointsErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Session: tinySession(t, "")})
	if code, _ := get(t, ts.URL+"/v1/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("GET unknown job: %d", code)
	}
	if code, _ := del(t, ts.URL+"/v1/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("DELETE unknown job: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/figures/fig99", ""); code != http.StatusNotFound {
		t.Errorf("POST unknown figure: %d", code)
	}
}

// TestJobListing: /v1/jobs returns the registered jobs newest-first.
func TestJobListing(t *testing.T) {
	sess := tinySession(t, "")
	_, ts := newTestServer(t, Config{Session: sess})
	for _, req := range []string{`{"workload":"sparse"}`, `{"workload":"ocean"}`} {
		code, body := postJSON(t, ts.URL+"/v1/runs", req)
		if code != http.StatusAccepted {
			t.Fatalf("status %d", code)
		}
		pollJob(t, ts.URL, decodeJob(t, body).ID)
	}
	code, body := get(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var docs []JobDoc
	if err := json.Unmarshal([]byte(body), &docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(docs))
	}
}

// TestFigureJobLifecycle: the async figure form runs a (stubbed) figure
// to completion with the rendered text in the job doc.
func TestFigureJobLifecycle(t *testing.T) {
	sess := tinySession(t, "")
	_, ts := newTestServer(t, Config{
		Session: sess,
		Experiments: map[string]exp.Runner{
			"stubfig": func(ctx context.Context, s *exp.Session) (string, error) {
				// Exercise the engine path so the job sees run events.
				if _, err := s.Run(ctx, "sparse", s.Options().BaselineConfig()); err != nil {
					return "", err
				}
				return "stub figure text", nil
			},
		},
	})
	code, body := postJSON(t, ts.URL+"/v1/figures/stubfig", "")
	if code != http.StatusAccepted {
		t.Fatalf("status %d body %q", code, body)
	}
	final := pollJob(t, ts.URL, decodeJob(t, body).ID)
	if final.State != JobDone || !strings.Contains(final.Figure, "stub figure text") {
		t.Fatalf("figure job %+v", final)
	}
	if final.Progress.DoneRuns != 1 {
		t.Errorf("figure job progress %+v, want 1 settled run", final.Progress)
	}
}

func TestFigureEndpointServesRealFigure(t *testing.T) {
	dir := t.TempDir()
	sess := tinySession(t, dir)
	_, ts := newTestServer(t, Config{Session: sess})

	code, body := get(t, ts.URL+"/v1/figures/table1")
	if code != http.StatusOK || !strings.Contains(body, "Table 1") {
		t.Fatalf("status %d body %q", code, body)
	}

	code, body = get(t, ts.URL+"/v1/figures/fig99")
	if code != http.StatusNotFound {
		t.Fatalf("unknown figure status %d", code)
	}
	var doc struct {
		Error string   `json:"error"`
		Known []string `json:"known"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Error == "" || len(doc.Known) == 0 {
		t.Errorf("404 body %+v should name the known figures", doc)
	}
}

func TestDiscoveryAndHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Session: tinySession(t, "")})

	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	code, body = get(t, ts.URL+"/v1/prefetchers")
	if code != http.StatusOK || !strings.Contains(body, "sms") {
		t.Fatalf("prefetchers: %d %q", code, body)
	}
	code, body = get(t, ts.URL+"/v1/workloads")
	if code != http.StatusOK || !strings.Contains(body, "oltp-db2") {
		t.Fatalf("workloads: %d %q", code, body)
	}
	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"smsd_up 1", "smsd_workers", "smsd_queue_depth",
		"smsd_jobs_active", "smsd_jobs_pending", "smsd_jobs_cancelled_total",
		"smsd_simulations_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestShutdownCancelsInFlightWork: Shutdown stops a long-running
// simulation through the context path instead of draining it, within the
// configured bound.
func TestShutdownCancelsInFlightWork(t *testing.T) {
	sess := sessionWith(t, "", exp.Options{CPUs: 1, Seed: 1, Length: 100_000_000})
	s, err := New(Config{Session: sess, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/v1/runs", `{"workload":"sparse","prefetcher":"sms"}`)
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	id := decodeJob(t, body).ID
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := get(t, ts.URL+"/v1/jobs/"+id)
		if doc := decodeJob(t, body); doc.State == JobRunning && doc.Progress.Records > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	begin := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 15*time.Second {
		t.Errorf("shutdown took %v", elapsed)
	}
	// The ~100M-record simulation cannot have completed; it must have
	// been cancelled mid-run.
	if sess.Engine().CancelledRuns() == 0 {
		t.Error("shutdown did not cancel the in-flight run")
	}
}

// TestDuplicateFigureJobsSingleflight: N concurrent figure jobs for one
// uncached figure execute exactly one underlying computation — including
// the plan cells run-level memoization cannot dedupe.
func TestDuplicateFigureJobsSingleflight(t *testing.T) {
	var computations atomic.Uint64
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Session: tinySession(t, ""),
		Workers: 4,
		Experiments: map[string]exp.Runner{
			"slowfig": func(context.Context, *exp.Session) (string, error) {
				computations.Add(1)
				<-gate
				return "shared figure body", nil
			},
		},
	})

	const n = 3
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		code, body := postJSON(t, ts.URL+"/v1/figures/slowfig", "")
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d", i, code)
		}
		ids[i] = decodeJob(t, body).ID
	}
	// Wait until the leader is computing and both followers joined the
	// flight before releasing it.
	deadline := time.Now().Add(10 * time.Second)
	for computations.Load() < 1 || s.metrics.deduped.Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("followers joined: %d, computations: %d", s.metrics.deduped.Value(), computations.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	for _, id := range ids {
		doc := pollJob(t, ts.URL, id)
		if doc.State != JobDone || !strings.Contains(doc.Figure, "shared figure body") {
			t.Fatalf("job %s settled as %+v", id, doc)
		}
	}
	if got := computations.Load(); got != 1 {
		t.Fatalf("%d computations for %d duplicate figure jobs, want 1", got, n)
	}
}

// TestSyncGetJoinsAsyncFigureJobWithoutDeadlock: with a single worker
// occupied by the figure job's body, a synchronous GET for the same
// figure joins that job (no second pool slot needed) and serves its
// outcome — the queued-leader deadlock the job-level singleflight
// design rules out.
func TestSyncGetJoinsAsyncFigureJobWithoutDeadlock(t *testing.T) {
	var computations atomic.Uint64
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Session: tinySession(t, ""),
		Workers: 1,
		Queue:   -1,
		Experiments: map[string]exp.Runner{
			"fig": func(context.Context, *exp.Session) (string, error) {
				computations.Add(1)
				started <- struct{}{}
				<-gate
				return "joined body", nil
			},
		},
	})

	code, body := postJSON(t, ts.URL+"/v1/figures/fig", "")
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	id := decodeJob(t, body).ID
	<-started // the only worker now runs the figure body

	got := make(chan string, 1)
	go func() {
		_, b := get(t, ts.URL+"/v1/figures/fig")
		got <- b
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.deduped.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("GET never joined the in-flight figure job")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	select {
	case b := <-got:
		if !strings.Contains(b, "joined body") {
			t.Fatalf("GET served %q", b)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("joined GET never returned — pool deadlock")
	}
	if computations.Load() != 1 {
		t.Fatalf("%d computations, want 1", computations.Load())
	}
	if doc := pollJob(t, ts.URL, id); doc.State != JobDone {
		t.Fatalf("job state %s", doc.State)
	}
}

// TestSyncFigureGetDuringShutdownFailsFast: once the server's jobs are
// cancelled (shutdown), a synchronous figure GET must 503 instead of
// spinning up an endless stream of instantly-cancelled jobs.
func TestSyncFigureGetDuringShutdownFailsFast(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Session: tinySession(t, ""),
		Workers: 2,
		Experiments: map[string]exp.Runner{
			"fig": func(ctx context.Context, sess *exp.Session) (string, error) {
				if err := ctx.Err(); err != nil {
					return "", err
				}
				return "body", nil
			},
		},
	})
	s.CancelJobs()

	before := s.metrics.jobsCreated.Value()
	done := make(chan int, 1)
	go func() {
		code, _ := get(t, ts.URL+"/v1/figures/fig")
		done <- code
	}()
	select {
	case code := <-done:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GET during shutdown never returned")
	}
	if created := s.metrics.jobsCreated.Value() - before; created > 2 {
		t.Errorf("shutdown GET churned %d jobs", created)
	}
}

// TestTracesEndpointAndTierMetrics: a run executed through the daemon
// writes its workload's trace into the store's disk tier, GET /v1/traces
// lists the artifact, and /metrics exports the tier gauges.
func TestTracesEndpointAndTierMetrics(t *testing.T) {
	dir := t.TempDir()
	sess := tinySession(t, dir)
	_, ts := newTestServer(t, Config{Session: sess, Workers: 2})

	// No artifacts yet: the endpoint serves an empty JSON list.
	code, body := get(t, ts.URL+"/v1/traces")
	if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("empty tier: %d %q", code, body)
	}

	code, body = postJSON(t, ts.URL+"/v1/runs", `{"workload":"oltp-db2","prefetcher":"none"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs: %d %q", code, body)
	}
	if doc := pollJob(t, ts.URL, decodeJob(t, body).ID); doc.State != JobDone {
		t.Fatalf("run job state %s: %s", doc.State, doc.Error)
	}

	code, body = get(t, ts.URL+"/v1/traces")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/traces: %d", code)
	}
	var infos []store.TraceInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if len(infos) != 1 || infos[0].Workload != "oltp-db2" || infos[0].Records != 10_000 ||
		infos[0].Bytes == 0 || infos[0].Key == "" {
		t.Fatalf("traces = %+v", infos)
	}

	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"smsd_engine_trace_generations_total 1",
		"smsd_trace_tier_writes_total 1",
		"smsd_trace_tier_bytes_written_total",
		"smsd_trace_tier_hits_total",
		"smsd_trace_tier_misses_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// A storeless daemon has no tier: /v1/traces stays an empty list.
	_, plain := newTestServer(t, Config{Session: tinySession(t, "")})
	if code, body := get(t, plain.URL+"/v1/traces"); code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Errorf("storeless /v1/traces: %d %q", code, body)
	}
}

package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/store"
)

// testCoordinator builds a coordinator backed by the session's local
// scheduler, for exercising the membership endpoints.
func testCoordinator(t *testing.T, cfg Config) *cluster.Coordinator {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Local:    cfg.Session.Engine().LocalScheduler(),
		Workload: cfg.Session.Engine().Config().Workload,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestJobListFilters: /v1/jobs?state= and ?kind= narrow the listing;
// an unknown state answers 400 naming the valid ones.
func TestJobListFilters(t *testing.T) {
	sess := tinySession(t, "")
	_, ts := newTestServer(t, Config{Session: sess})
	code, body := postJSON(t, ts.URL+"/v1/runs", `{"workload":"sparse"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs: %d %q", code, body)
	}
	pollJob(t, ts.URL, decodeJob(t, body).ID)

	count := func(query string) int {
		t.Helper()
		code, body := get(t, ts.URL+"/v1/jobs"+query)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/jobs%s: %d %q", query, code, body)
		}
		var docs []JobDoc
		if err := json.Unmarshal([]byte(body), &docs); err != nil {
			t.Fatal(err)
		}
		return len(docs)
	}
	for query, want := range map[string]int{
		"":                        1,
		"?state=done":             1,
		"?state=settled":          1,
		"?state=active":           0,
		"?state=failed":           0,
		"?kind=run":               1,
		"?kind=figure":            0,
		"?state=done&kind=run":    1,
		"?state=done&kind=figure": 0,
	} {
		if got := count(query); got != want {
			t.Errorf("/v1/jobs%s listed %d jobs, want %d", query, got, want)
		}
	}

	code, body = get(t, ts.URL+"/v1/jobs?state=bogus")
	if code != http.StatusBadRequest || !strings.Contains(body, "active") {
		t.Errorf("bogus state filter: %d %q, want 400 naming the valid filters", code, body)
	}
}

// TestClusterEndpointsWithoutCoordinator: a daemon not running as a
// coordinator answers 404 on the whole membership plane.
func TestClusterEndpointsWithoutCoordinator(t *testing.T) {
	_, ts := newTestServer(t, Config{Session: tinySession(t, "")})
	if code, _ := postJSON(t, ts.URL+"/v1/cluster/workers", `{"url":"http://x:1","capacity":1}`); code != http.StatusNotFound {
		t.Errorf("register without coordinator: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/cluster/workers/w1/heartbeat", ""); code != http.StatusNotFound {
		t.Errorf("heartbeat without coordinator: %d", code)
	}
	if code, _ := get(t, ts.URL+"/v1/cluster/workers"); code != http.StatusNotFound {
		t.Errorf("list without coordinator: %d", code)
	}
}

// TestClusterMembershipEndpoints drives register → heartbeat → list
// over HTTP against a real coordinator.
func TestClusterMembershipEndpoints(t *testing.T) {
	cfg := Config{Session: tinySession(t, "")}
	cfg.Coordinator = testCoordinator(t, cfg)
	_, ts := newTestServer(t, cfg)

	code, body := postJSON(t, ts.URL+"/v1/cluster/workers", `{"url":"http://127.0.0.1:1","capacity":2}`)
	if code != http.StatusOK {
		t.Fatalf("register: %d %q", code, body)
	}
	var reg cluster.RegisterResponse
	if err := json.Unmarshal([]byte(body), &reg); err != nil {
		t.Fatal(err)
	}
	if reg.WorkerID == "" || reg.HeartbeatMillis <= 0 {
		t.Fatalf("registration response %+v", reg)
	}

	if code, body := postJSON(t, ts.URL+"/v1/cluster/workers/"+reg.WorkerID+"/heartbeat", ""); code != http.StatusNoContent {
		t.Errorf("heartbeat: %d %q", code, body)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/cluster/workers/ghost/heartbeat", ""); code != http.StatusNotFound {
		t.Errorf("unknown worker heartbeat: %d, want 404 (re-register signal)", code)
	}

	code, body = get(t, ts.URL+"/v1/cluster/workers")
	if code != http.StatusOK {
		t.Fatalf("list: %d %q", code, body)
	}
	var workers []cluster.WorkerInfo
	if err := json.Unmarshal([]byte(body), &workers); err != nil {
		t.Fatal(err)
	}
	if len(workers) != 1 || workers[0].ID != reg.WorkerID || !workers[0].Alive || workers[0].Capacity != 2 {
		t.Fatalf("workers = %+v", workers)
	}

	// A malformed registration (relative URL) is refused.
	if code, _ := postJSON(t, ts.URL+"/v1/cluster/workers", `{"url":"not-a-url","capacity":1}`); code != http.StatusBadRequest {
		t.Errorf("bad registration: %d", code)
	}
}

// TestStoreResultEndpoints: the result sync plane round-trips a result
// by content address and rejects malformed keys and payloads.
func TestStoreResultEndpoints(t *testing.T) {
	sess := tinySession(t, t.TempDir())
	_, ts := newTestServer(t, Config{Session: sess})

	key := sess.RunKey("sparse", sess.Options().BaselineConfig())
	putURL := ts.URL + "/v1/store/results/" + key

	if code, _ := get(t, putURL); code != http.StatusNotFound {
		t.Errorf("GET missing result: %d", code)
	}
	if code, _ := get(t, ts.URL+"/v1/store/results/"+strings.Repeat("Z", 64)); code != http.StatusBadRequest {
		t.Errorf("GET non-hex key: %d, want 400", code)
	}
	if code, _ := putJSON(t, ts.URL+"/v1/store/results/shortkey", `{}`); code != http.StatusBadRequest {
		t.Errorf("PUT malformed key: %d", code)
	}
	if code, _ := putJSON(t, putURL, `not json`); code != http.StatusBadRequest {
		t.Errorf("PUT garbage payload: %d", code)
	}

	res := sim.Result{Accesses: 42, Reads: 40, Writes: 2}
	payload, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := putJSON(t, putURL, string(payload)); code != http.StatusNoContent {
		t.Fatalf("PUT result: %d %q", code, body)
	}
	code, body := get(t, putURL)
	if code != http.StatusOK {
		t.Fatalf("GET result: %d %q", code, body)
	}
	var got sim.Result
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.Accesses != 42 || got.Reads != 40 {
		t.Errorf("round-tripped result %+v", got)
	}

	// A storeless daemon has no artifact plane.
	_, plain := newTestServer(t, Config{Session: tinySession(t, "")})
	if code, _ := get(t, plain.URL+"/v1/store/results/"+key); code != http.StatusNotFound {
		t.Errorf("storeless GET: %d", code)
	}
}

// TestStoreTraceEndpoints: a trace artifact generated on one daemon is
// downloaded raw and uploaded to a second daemon's store, where it is
// validated before publish; corrupt uploads, and artifacts sent under a
// key other than their own hash, never become visible.
func TestStoreTraceEndpoints(t *testing.T) {
	src := tinySession(t, t.TempDir())
	_, srcTS := newTestServer(t, Config{Session: src, Workers: 2})

	// Generate a trace by running one cell on the source daemon.
	code, body := postJSON(t, srcTS.URL+"/v1/runs", `{"workload":"oltp-db2","prefetcher":"none"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs: %d %q", code, body)
	}
	if doc := pollJob(t, srcTS.URL, decodeJob(t, body).ID); doc.State != JobDone {
		t.Fatalf("run job: %s %s", doc.State, doc.Error)
	}
	code, body = get(t, srcTS.URL+"/v1/traces")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/traces: %d", code)
	}
	var infos []store.TraceInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("traces = %+v", infos)
	}
	key := infos[0].Key

	code, raw := get(t, srcTS.URL+"/v1/store/traces/"+key)
	if code != http.StatusOK || len(raw) == 0 {
		t.Fatalf("GET raw trace: %d (%d bytes)", code, len(raw))
	}
	if code, _ := get(t, srcTS.URL+"/v1/store/traces/"+strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Errorf("GET unknown trace: %d", code)
	}

	dst := tinySession(t, t.TempDir())
	_, dstTS := newTestServer(t, Config{Session: dst, Workers: 2})
	dstURL := dstTS.URL + "/v1/store/traces/" + key
	if code, body := putJSON(t, dstURL, "garbage, not a trace artifact"); code != http.StatusBadRequest {
		t.Errorf("PUT corrupt trace: %d %q, want 400 (validated before publish)", code, body)
	}
	if dst.Store().HasTrace(key) {
		t.Fatal("corrupt upload became visible in the store")
	}
	// A valid artifact under another workload's address is refused too:
	// a trace is served only under its own content address.
	foreign := strings.Repeat("ab", 32)
	if code, body := putJSON(t, dstTS.URL+"/v1/store/traces/"+foreign, raw); code != http.StatusBadRequest {
		t.Errorf("PUT trace under a foreign key: %d %q, want 400", code, body)
	}
	if dst.Store().HasTrace(foreign) {
		t.Fatal("trace published under a key that is not its hash")
	}
	code, body = putJSON(t, dstURL, raw)
	if code != http.StatusOK {
		t.Fatalf("PUT trace: %d %q", code, body)
	}
	if !dst.Store().HasTrace(key) {
		t.Fatal("uploaded trace not visible in the destination store")
	}
}

// TestCellEndpoint: the worker cell plane executes a run and answers
// its result; a key computed under different options is refused 409,
// and a repeat of the same cell is served from cache.
func TestCellEndpoint(t *testing.T) {
	sess := tinySession(t, "")
	_, ts := newTestServer(t, Config{Session: sess, Workers: 2})

	cfg := sess.Options().BaselineConfig()
	key := sess.RunKey("sparse", cfg)
	req := cluster.CellRequest{Workload: "sparse", Config: cfg, Key: key}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	code, body := postJSON(t, ts.URL+"/v1/cells", string(payload))
	if code != http.StatusOK {
		t.Fatalf("POST /v1/cells: %d %q", code, body)
	}
	var resp cluster.CellResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Key != key || resp.Result == nil || resp.Result.Accesses == 0 {
		t.Fatalf("cell response %+v", resp)
	}
	if resp.Cached {
		t.Error("first execution claims cached")
	}

	// Same cell again: memoized, no second simulation.
	code, body = postJSON(t, ts.URL+"/v1/cells", string(payload))
	if code != http.StatusOK {
		t.Fatalf("repeat cell: %d %q", code, body)
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("repeat execution not served from cache")
	}
	if sims := sess.Simulations(); sims != 1 {
		t.Errorf("simulations = %d, want 1", sims)
	}

	// A coordinator launched with different options computes a
	// different address for the same cell: refuse it loudly.
	req.Key = strings.Repeat("a", 64)
	mismatched, _ := json.Marshal(req)
	if code, body := postJSON(t, ts.URL+"/v1/cells", string(mismatched)); code != http.StatusConflict {
		t.Errorf("mismatched key: %d %q, want 409", code, body)
	}

	if code, _ := postJSON(t, ts.URL+"/v1/cells", `{"workload":"no-such-workload"}`); code != http.StatusBadRequest {
		t.Errorf("unknown workload: %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/cells", `{broken`); code != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", code)
	}
}

// TestCellWithFewerCPUsRefused: a cell whose memory system has fewer
// CPUs than the daemon's workload issues from is refused with 400 before
// any job starts, and the daemon stays healthy and keeps serving cells.
func TestCellWithFewerCPUsRefused(t *testing.T) {
	sess := sessionWith(t, "", exp.Options{CPUs: 4, Seed: 1, Length: 4_000})
	_, ts := newTestServer(t, Config{Session: sess, Workers: 1})

	cfg := sess.Options().BaselineConfig()
	cfg.Coherence.CPUs = 2
	payload, err := json.Marshal(cluster.CellRequest{Workload: "sparse", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	code, body := postJSON(t, ts.URL+"/v1/cells", string(payload))
	if code != http.StatusBadRequest || !strings.Contains(body, "2 CPUs") {
		t.Fatalf("2-CPU cell on a 4-CPU daemon: %d %q, want 400 naming the counts", code, body)
	}
	if n := sess.Simulations(); n != 0 {
		t.Errorf("%d simulations started, want 0", n)
	}
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after the refusal: %d %q", code, body)
	}
	payload, _ = json.Marshal(cluster.CellRequest{Workload: "sparse", Config: sess.Options().BaselineConfig()})
	if code, body := postJSON(t, ts.URL+"/v1/cells", string(payload)); code != http.StatusOK {
		t.Fatalf("valid cell after the refusal: %d %q", code, body)
	}
}

// TestOversizedCellRefused: a cell whose caches and prefetcher tables
// would take more than maxCellBytes to simulate is refused with 400
// before anything allocates them (a 1 TiB L2 or a 2^40-entry PHT ends
// the process with a fatal out-of-memory), the daemon stays healthy, and
// large cells inside the bound are still accepted.
func TestOversizedCellRefused(t *testing.T) {
	sess := sessionWith(t, "", exp.Options{CPUs: 4, Seed: 1, Length: 4_000})
	srv, ts := newTestServer(t, Config{Session: sess, Workers: 1})

	hugeL2 := sess.Options().BaselineConfig()
	hugeL2.Coherence.L2.Size = 1 << 40
	hugePHT := sess.Options().BaselineConfig()
	hugePHT.PrefetcherName = "sms"
	hugePHT.SMS.PHTEntries = 1 << 40
	for name, cfg := range map[string]sim.Config{"1 TiB L2": hugeL2, "2^40-entry PHT": hugePHT} {
		payload, err := json.Marshal(cluster.CellRequest{Workload: "sparse", Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		code, body := postJSON(t, ts.URL+"/v1/cells", string(payload))
		if code != http.StatusBadRequest || !strings.Contains(body, "MiB up front") {
			t.Errorf("%s: %d %q, want 400 naming the bound", name, code, body)
		}
	}
	if n := sess.Simulations(); n != 0 {
		t.Errorf("%d simulations started, want 0", n)
	}
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after the refusals: %d %q", code, body)
	}

	// On 4 CPUs each may allocate 64 MiB; the defaults take 1.6 MiB. A
	// 128 MiB L2 (32 MiB of lines) fits and a 256 MiB one does not; at
	// 1-byte blocks a 32 MiB L2 does not either. A 2^20-entry PHT (40
	// MiB) fits and one twice that size does not.
	for _, c := range []struct {
		l2, block, pht int
		want           int
	}{
		{128 << 20, 0, 0, http.StatusOK},
		{256 << 20, 0, 0, http.StatusBadRequest},
		{32 << 20, 0, 0, http.StatusOK},
		{32 << 20, 1, 0, http.StatusBadRequest},
		{0, 0, 1 << 20, http.StatusOK},
		{0, 0, 2 << 20, http.StatusBadRequest},
	} {
		cfg := sess.Options().BaselineConfig()
		cfg.PrefetcherName = "sms"
		if c.l2 != 0 {
			cfg.Coherence.L2.Size = c.l2
		}
		if c.block != 0 {
			cfg.Coherence.L1.BlockSize = c.block
			cfg.Coherence.L2.BlockSize = c.block
		}
		cfg.SMS.PHTEntries = c.pht
		if _, status, err := srv.checkCell(cluster.CellRequest{Workload: "sparse", Config: cfg}); status != c.want {
			t.Errorf("L2 %d B, block %d B, PHT %d entries on 4 CPUs: status %d (%v), want %d", c.l2, c.block, c.pht, status, err, c.want)
		}
	}
}

// putJSON issues a PUT with the given body.
func putJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
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

package server

// The daemon's cluster face. Two roles share these endpoints:
//
//   - Worker: POST /v1/cells executes one run cell synchronously
//     through the ordinary job machinery (pool bounds, singleflight
//     dedup, store write-through), so a cell behaves exactly like a
//     local run that happens to answer over HTTP.
//   - Coordinator: /v1/cluster/* accept registrations and heartbeats
//     for the cluster.Coordinator installed via Config.Coordinator.
//
// The /v1/store/{results,traces}/{key} endpoints are the artifact sync
// plane both roles use: strictly content-addressed reads and writes,
// validated before publish, no invalidation.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// Request body caps for the cluster endpoints. Cells and registrations
// are small JSON documents; results are bounded by per-CPU stat arrays;
// trace artifacts are the one legitimately large payload.
const (
	maxCellRequestBytes  = 256 << 10
	maxRegisterBytes     = 64 << 10
	maxResultUploadBytes = 8 << 20
	maxTraceUploadBytes  = 4 << 30
)

// maxCellBytes bounds what one cell's simulator allocates up front,
// summed over every CPU: L1 and L2 cache lines, LS sectors and the
// entries of every sized prefetcher table (SMS and LS PHT, GHB history
// and index, stride), each counted at the bytes below. Go cannot recover
// from an allocation that fails, so an unbounded size would let one cell
// end the daemon. The experiments allocate about 1.6 MiB per CPU; the
// paper's Table 1 system (8 MiB L2 per CPU, 16 CPUs) about 53 MiB in all.
const (
	maxCellBytes    = 256 << 20
	cellLineBytes   = 16  // a cache way's tag and meta words
	cellSectorBytes = 144 // an LS sector and its key
	cellEntryBytes  = 40  // the largest table entry: a PHT tag, LRU stamp and pattern
)

// validStoreKey gates the {key} path element: content addresses are
// lowercase hex SHA-256, and anything else (path separators above all)
// must never reach the store's file layout.
func validStoreKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// storeOr404 resolves the session store or answers 404 — a daemon
// without a store has no artifact plane to serve.
func (s *Server) storeOr404(w http.ResponseWriter) (*store.Store, bool) {
	st := s.session.Store()
	if st == nil {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "no store attached"})
		return nil, false
	}
	return st, true
}

// keyOr400 validates the {key} path value.
func keyOr400(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if !validStoreKey(key) {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("malformed content address %q", key)})
		return "", false
	}
	return key, true
}

// handleCell executes one cluster run cell and answers with its result.
// Synchronous by design: the coordinator's in-flight window is the flow
// control, so the connection is the natural completion signal, and a
// dropped connection (worker death, coordinator retry) needs no
// protocol — the cell is idempotent.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	var req cluster.CellRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCellRequestBytes)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("decoding cell: %v", err)})
		return
	}
	key, status, err := s.checkCell(req)
	if err != nil {
		writeJSON(w, status, errorDoc{Error: err.Error()})
		return
	}

	// Cells legitimately run for minutes; exempt this response from the
	// server-wide write timeout.
	clearWriteDeadline(w)

	// Trace pull-through: if the coordinator holds the workload's trace
	// artifact and we don't, fetch it before simulating so the engine
	// replays instead of regenerating. Only keys we'd actually look up
	// are worth pulling.
	wcfg := s.session.Engine().Config().Workload
	if st := s.session.Store(); st != nil && req.TraceFrom != "" && req.TraceKey != "" {
		if req.TraceKey == store.ForTrace(req.Workload, wcfg) && !st.HasTrace(req.TraceKey) {
			if err := s.pullTrace(r.Context(), req.TraceFrom, req.TraceKey); err != nil {
				s.logger.Debug("cell trace pull-through failed; will regenerate",
					"key", req.TraceKey[:12], "from", req.TraceFrom, "err", err)
			}
		}
	}

	respond := func(res *sim.Result, cached bool) {
		resp := cluster.CellResponse{Key: key, Cached: cached, Result: res}
		if st := s.session.Store(); st != nil {
			if tk := store.ForTrace(req.Workload, wcfg); st.HasTrace(tk) {
				resp.TraceKey = tk
			}
		}
		writeJSON(w, http.StatusOK, resp)
	}

	// Memo/store fast path: no worker slot burned.
	if res, ok := s.session.CachedRun(req.Workload, req.Config); ok {
		respond(res, true)
		return
	}

	target := fmt.Sprintf("%s/%s", req.Workload, req.Config.Canonical().PrefetcherName)
	j, joined, err := s.startJob(jobSpec{Kind: "cell", Target: target, Dedupe: "cell/" + key}, 1, func(ctx context.Context, j *job) error {
		res, err := s.session.Run(ctx, req.Workload, req.Config)
		if err != nil {
			return err
		}
		j.mu.Lock()
		j.result = &RunResponse{Workload: req.Workload, Key: key, Result: res}
		j.mu.Unlock()
		return nil
	})
	if err != nil {
		s.metrics.failures.Inc()
		writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: err.Error()})
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The coordinator gave up (retry, death, cancellation). The job
		// keeps computing — the next attempt for this key joins it via the
		// dedup key and the result lands in the store either way.
		return
	}
	d := j.doc()
	switch {
	case d.State == JobDone && d.Result != nil && d.Result.Result != nil:
		respond(d.Result.Result, joined || d.Progress.CachedRuns > 0)
	case d.State == JobCancelled, d.Error == ErrBusy.Error():
		s.metrics.failures.Inc()
		writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: "cell did not complete: " + string(d.State)})
	default:
		s.metrics.failures.Inc()
		writeJSON(w, http.StatusInternalServerError, errorDoc{Error: d.Error})
	}
}

// checkCell validates a decoded cell request before anything runs and
// returns the cell's key under this daemon's options, or the status to
// refuse it with. The workload must exist. The key is recomputed: a
// mismatch with the coordinator's means the two would simulate different
// things for the same key — refused loudly (409) so the coordinator
// quarantines us instead of poisoning its store. The memory system must
// have a CPU for every CPU the workload issues from, and the cell must
// fit maxCellBytes.
func (s *Server) checkCell(req cluster.CellRequest) (string, int, error) {
	if _, err := workload.ByName(req.Workload); err != nil {
		return "", http.StatusBadRequest, err
	}
	key := s.session.RunKey(req.Workload, req.Config)
	if req.Key != "" && req.Key != key {
		return "", http.StatusConflict, fmt.Errorf(
			"cell key mismatch: coordinator says %.12s, this daemon computes %.12s (different -length/-seed/-cpus/-parallel options?)",
			req.Key, key)
	}
	if err := s.session.Engine().CheckCPUs(req.Config); err != nil {
		return "", http.StatusBadRequest, err
	}
	if err := checkCellSize(req.Config.Canonical()); err != nil {
		return "", http.StatusBadRequest, err
	}
	return key, http.StatusOK, nil
}

// checkCellSize refuses a canonical cell configuration whose up-front
// allocation exceeds maxCellBytes. A built-in scheme's canonical config
// keeps only its own sub-config, so a cell is charged only for the tables
// its scheme builds.
func checkCellSize(cfg sim.Config) error {
	perCPU := 0
	add := func(size, per, bytes int) {
		if per > 0 {
			perCPU += min(max(size/per, 0), maxCellBytes) * bytes
		}
	}
	add(cfg.Coherence.L1.Size, cfg.Coherence.L1.BlockSize, cellLineBytes)
	add(cfg.Coherence.L2.Size, cfg.Coherence.L2.BlockSize, cellLineBytes)
	add(cfg.LS.CacheSize, cfg.Geometry.RegionSize(), cellSectorBytes)
	for _, entries := range []int{cfg.SMS.PHTEntries, cfg.LS.PHTEntries, cfg.GHB.HistoryEntries, cfg.GHB.IndexEntries, cfg.Stride.Entries} {
		add(entries, 1, cellEntryBytes)
	}
	if cpus := max(cfg.Coherence.CPUs, 1); perCPU > maxCellBytes/cpus {
		return fmt.Errorf("cell allocates more than %d MiB up front (%d CPUs, %d MiB each)",
			maxCellBytes>>20, cpus, perCPU>>20)
	}
	return nil
}

// pullTrace fetches one trace artifact from a peer's store plane into
// ours, atomically and validated (store.PutTraceRaw).
func (s *Server) pullTrace(ctx context.Context, from, key string) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, from+"/v1/store/traces/"+key, nil)
	if err != nil {
		return err
	}
	resp, err := s.syncClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("peer answered %d", resp.StatusCode)
	}
	n, err := s.session.Store().PutTraceRaw(key, resp.Body)
	if err != nil {
		return err
	}
	s.logger.Info("trace artifact pulled from peer", "key", key[:12], "bytes", n, "from", from)
	return nil
}

// coordinatorOr404 resolves the cluster coordinator or answers 404 —
// workers and single-node daemons do not speak the membership protocol.
func (s *Server) coordinatorOr404(w http.ResponseWriter) (*cluster.Coordinator, bool) {
	if s.coordinator == nil {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "this daemon is not a cluster coordinator"})
		return nil, false
	}
	return s.coordinator, true
}

// handleWorkerRegister enrolls a worker with the coordinator.
func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	c, ok := s.coordinatorOr404(w)
	if !ok {
		return
	}
	var req cluster.RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRegisterBytes)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("decoding registration: %v", err)})
		return
	}
	resp, err := c.Register(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleWorkerHeartbeat records a beat; 404 tells the worker its
// identity is gone and it must re-register.
func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	c, ok := s.coordinatorOr404(w)
	if !ok {
		return
	}
	if !c.Heartbeat(r.PathValue("id")) {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: fmt.Sprintf("unknown worker %q; re-register", r.PathValue("id"))})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleWorkerList snapshots the cluster membership and queues.
func (s *Server) handleWorkerList(w http.ResponseWriter, _ *http.Request) {
	c, ok := s.coordinatorOr404(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, c.Workers())
}

// handleStoreResultGet serves one stored result by content address.
func (s *Server) handleStoreResultGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.storeOr404(w)
	if !ok {
		return
	}
	key, ok := keyOr400(w, r)
	if !ok {
		return
	}
	res, ok := st.ProbeResult(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: fmt.Sprintf("no result at %.12s", key)})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleStoreResultPut stores one result at its content address. The
// key is the identity of the run that produced it, so the writer — a
// cluster peer syncing artifacts — is trusted to pair them correctly;
// the payload itself is validated as a decodable result.
func (s *Server) handleStoreResultPut(w http.ResponseWriter, r *http.Request) {
	st, ok := s.storeOr404(w)
	if !ok {
		return
	}
	key, ok := keyOr400(w, r)
	if !ok {
		return
	}
	var res sim.Result
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxResultUploadBytes)).Decode(&res); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("decoding result: %v", err)})
		return
	}
	if err := st.PutResult(key, &res); err != nil {
		s.metrics.failures.Inc()
		writeJSON(w, http.StatusInternalServerError, errorDoc{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStoreTraceGet streams one raw trace artifact.
func (s *Server) handleStoreTraceGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.storeOr404(w)
	if !ok {
		return
	}
	key, ok := keyOr400(w, r)
	if !ok {
		return
	}
	rc, size, ok := st.OpenTraceRaw(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: fmt.Sprintf("no trace artifact at %.12s", key)})
		return
	}
	defer rc.Close()
	// Artifact streams can outlast the write timeout; the transfer is
	// bounded by the file size instead.
	clearWriteDeadline(w)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	_, _ = io.Copy(w, rc)
}

// handleStoreTracePut receives one raw trace artifact; the store
// validates the v2 format before the atomic publish, so a truncated or
// corrupt upload never becomes visible.
func (s *Server) handleStoreTracePut(w http.ResponseWriter, r *http.Request) {
	st, ok := s.storeOr404(w)
	if !ok {
		return
	}
	key, ok := keyOr400(w, r)
	if !ok {
		return
	}
	clearReadDeadline(w)
	n, err := st.PutTraceRaw(key, http.MaxBytesReader(w, r.Body, maxTraceUploadBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"key": key, "bytes": n})
}

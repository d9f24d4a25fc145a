package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FuzzRunRequest drives the /v1/runs boundary the way handleRunJob does:
// decode the body, look up the workload, translate it with runConfig.
// Every request runConfig accepts must build a Runner and simulate a
// short trace without panicking, since the daemon runs it in a job
// goroutine that nothing recovers.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"sparse","prefetcher":"sms"}`,
		`{"workload":"sparse","prefetcher":"sms","region_size":16384}`,
		`{"workload":"sparse","prefetcher":"ls","region_size":8192}`,
		`{"workload":"oltp-db2","prefetcher":"ghb","region_size":64}`,
		`{"workload":"sparse","region_size":-1}`,
		`{"workload":"sparse","prefetcher":"sms","sampling":{"WindowRecords":500,"IntervalRecords":2000}}`,
		`{"workload":"nope"}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	s := &Server{session: exp.NewSession(exp.Options{CPUs: 1, Seed: 1, Length: 4_000})}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		w, err := workload.ByName(req.Workload)
		if err != nil {
			return
		}
		cfg, err := s.runConfig(req)
		if err != nil {
			return
		}
		cfg.WarmupAccesses = 1_000
		r, err := sim.NewRunner(cfg)
		if err != nil {
			t.Fatalf("runConfig accepted %s but the run does not build: %v", body, err)
		}
		r.Run(w.Make(workload.Config{CPUs: 1, Seed: 1, Length: 4_000}))
	})
}

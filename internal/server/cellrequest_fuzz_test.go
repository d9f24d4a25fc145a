package server

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/mem"
	"repro/internal/sim"
)

// FuzzCellRequest drives the /v1/cells boundary the way handleCell does:
// decode the body, then checkCell (workload lookup, key recomputation,
// CPU and cache-size bounds). Every cell checkCell accepts must run on
// the daemon's session without panicking, since the daemon runs it in a
// job goroutine that nothing recovers; a run may still fail with an
// error (an invalid cache geometry, say).
func FuzzCellRequest(f *testing.F) {
	s := &Server{session: exp.NewSession(exp.Options{CPUs: 2, Seed: 1, Length: 4_000})}
	valid := sim.Config{Coherence: s.session.Options().MemorySystem(64), PrefetcherName: "sms"}
	fewerCPUs := valid
	fewerCPUs.Coherence.CPUs = 1
	region := valid
	geo, err := mem.NewGeometry(mem.DefaultBlockSize, 16384)
	if err != nil {
		f.Fatal(err)
	}
	region.Geometry = geo
	huge := valid
	huge.Coherence.L2.Size = 1 << 40
	hugePHT := valid
	hugePHT.SMS.PHTEntries = 1 << 40
	for _, req := range []cluster.CellRequest{
		{Workload: "sparse", Config: valid},
		{Workload: "sparse", Config: valid, Key: s.session.RunKey("sparse", valid)},
		{Workload: "sparse", Config: valid, Key: "deadbeef"},
		{Workload: "sparse", Config: fewerCPUs},
		{Workload: "oltp-db2", Config: region},
		{Workload: "sparse", Config: huge},
		{Workload: "sparse", Config: hugePHT},
		{Workload: "nope", Config: valid},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req cluster.CellRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		if _, _, err := s.checkCell(req); err != nil {
			return
		}
		_, _ = s.session.Run(context.Background(), req.Workload, req.Config)
	})
}

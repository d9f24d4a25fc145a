// Package cluster turns smsd into a sharded grid executor: a
// coordinator daemon scatters a Plan's run cells across registered
// worker daemons, gathers their sim.Results by store key, and keeps the
// grid settling through worker failure.
//
// The unit of distribution is the engine's run cell (engine.RunSpec): a
// resolved (workload, config) pair addressed by the SHA-256 of its
// canonical identity. Cells are content-addressed, deterministic and
// idempotent, which makes the distributed protocol almost embarrassingly
// simple — a cell's key either has a result or it doesn't, any node can
// compute it, and computing it twice yields byte-identical JSON — so
// there is no invalidation, no consensus, and no result versioning.
//
// # Topology
//
//	coordinator (smsd -cluster)            workers (smsd -worker -coordinator URL)
//	  engine ── CellScheduler = Coordinator ──POST /v1/cells──▶ engine (LocalScheduler)
//	  ▲ registration/heartbeats ◀──POST /v1/cluster/workers────┘
//	  └─ artifact sync: GET/PUT /v1/store/{results,traces}/{key}
//
// The Coordinator implements engine.CellScheduler: the coordinator's
// engine still owns plan compilation, run-level memoization and store
// write-through; only cell placement is delegated. Workers execute cells
// through their own full smsd job machinery (bounded pool, singleflight
// dedup, their own store), so a worker that has already seen a cell —
// in any earlier grid, from any coordinator — answers from cache.
//
// # Scheduling
//
// Cells are scattered with workload affinity (rendezvous hashing on
// worker id × workload name), so the variants of one workload land on
// one worker and share its trace: the worker's memo while cells of the
// workload are in flight there, and its store's trace tier after, so a
// grid of N variants over one workload generates the trace once per
// cluster, not once per cell, when workers have stores.
// Each worker has a bounded in-flight window (its registered capacity);
// overflow queues on the coordinator per worker. A worker whose queue
// drains and whose window has room steals the tail of the longest other
// queue, so a fast node drains a slow node's backlog instead of idling.
// A worker never steals a cell it previously failed: a fast-failing
// node must not yank its own retries back and burn the attempt budget.
//
// # Failure model
//
// Per-cell failures retry with jittered exponential backoff on another
// worker (bounded attempts). Worker death is detected two ways: an
// in-flight HTTP call failing fast (connection refused/reset), and
// missed heartbeats for liveness of idle/queued capacity. A dead
// worker's queued and in-flight cells are re-scattered to the survivors;
// when no workers remain, cells fall back to the coordinator's own
// LocalScheduler, so a cluster degrades to a single node instead of
// wedging. A worker whose options disagree with the coordinator's (cell
// key mismatch, HTTP 409) is quarantined — its results would be wrong
// for this grid, not merely late. Results only ever reach a store after
// a run completes, so failover can never publish a partial Result.
//
// # Artifact sync
//
// Stores synchronize by content address only. Results travel inside the
// cell response and are written through by the coordinator's engine;
// trace artifacts a worker generates are pulled by the coordinator in
// the background (GET /v1/store/traces/{key}), and a worker missing an
// artifact the coordinator already has pulls it before generating. A
// transfer is validated against the v2 format before publishing, and a
// key is never overwritten with different content because the key *is*
// the content's identity.
package cluster

// Package repro is a from-scratch Go reproduction of "Spatial Memory
// Streaming" (Somogyi, Wenisch, Ailamaki, Falsafi, Moshovos; ISCA 2006).
//
// The root package holds only the repository-level benchmark harness
// (bench_test.go), which regenerates every table and figure of the paper's
// evaluation; the implementation lives under internal/:
//
//	internal/core      — SMS itself: the active generation table (one
//	                     tag index over filter and accumulating
//	                     entries), pattern history table, prediction
//	                     indices, prediction registers
//	internal/sectored  — decoupled/logical sectored training baselines
//	internal/ghb       — GHB PC/DC comparison prefetcher
//	internal/stride    — stride prefetcher (extension baseline)
//	internal/nextline  — next-N-line prefetcher (floor baseline, added
//	                     through the registry alone)
//	internal/cache     — set-associative cache model
//	internal/coherence — MSI directory multiprocessor memory system
//	internal/workload  — synthetic commercial/scientific trace generators
//	                     and the trace: family wrapping captured trace
//	                     files as first-class workloads
//	internal/trace     — the access-record model; trace format v1
//	                     (legacy) and v2 (blocked columnar, seekable,
//	                     mmap zero-copy replay)
//	internal/sim       — trace-driven simulation driver (cancellable,
//	                     progress-observable), accounting, and the
//	                     prefetcher registry
//	internal/timing    — interval timing model (speedups, breakdowns)
//	internal/engine    — grid-native execution engine: declarative Plans,
//	                     deduplicated runs, memoization, streamed events
//	internal/exp       — one declarative plan + renderer per paper
//	                     figure/table
//	internal/store     — persistent content-addressed result store with
//	                     a binary trace tier (v2 artifacts replayed by
//	                     mmap across process restarts)
//	internal/server    — smsd HTTP daemon with its async job API
//
// Prefetchers are pluggable: the simulator dispatches through the
// sim.Prefetcher interface, and schemes are selected by registry name
// ("none", "sms", "ls", "ghb", "stride", "nextline", ...) via
// sim.Config.PrefetcherName (sim.NewRunner). New schemes call sim.Register
// from their package init and need no simulator changes; see README.md.
//
// A run's configuration is resolved in one place, sim.Config.Canonical:
// sim.NewRunner builds every engine from that canonical form and the
// result store hashes it, so a run's key names what was simulated. A
// scheme's canonical config keeps only the sub-configs its registration
// says it reads (sim.RegisterReading): a built-in its own, nextline none.
//
// See README.md for a tour and EXPERIMENTS.md for paper-vs-measured
// results.
package repro

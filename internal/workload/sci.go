package workload

import (
	"math/rand"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Scientific workloads model the paper's frame-of-reference applications
// (Table 1): em3d (electromagnetic wave propagation on a bipartite graph,
// 15% remote neighbours), ocean (grid relaxation), and sparse
// (sparse matrix-vector solve).
//
// Structural properties reproduced:
//   - iterative repetition: each "iteration" revisits the same addresses in
//     the same order, so both address- and PC-based indices learn quickly;
//   - em3d: dense streaming over the local node arrays plus bursts of
//     independent single-block remote reads (high MLP, density-1
//     generations; SMS coverage ~63% leaves burst latency exposed, §4.7);
//   - ocean: near-complete region density (the narrow 32-block Fig. 5
//     profile) over several grid arrays, with writes to the destination;
//   - sparse: dense matrix/value streaming plus per-row gather reads whose
//     targets are fixed across iterations, so SMS covers most of its
//     misses (92% in the paper, 4.07x speedup). The reproduction reads
//     84.8% at the default length, below ocean's 96.9% (EXPERIMENTS.md,
//     Fig. 11); TestFig11ShapeQuick guards a floor of 50%.

const (
	sciWorkloadEm3d = iota + 30
	sciWorkloadOcean
	sciWorkloadSparse
)

const (
	sciOpNode = iota + 1
	sciOpRemote
	sciOpRowRead
	sciOpRowWrite
	sciOpVals
	sciOpGather
	sciOpResult
)

func init() {
	register(Workload{
		Name:        "em3d",
		Group:       GroupScientific,
		Description: "em3d-like graph relaxation: streaming node updates with 15% remote single-block neighbour reads",
		Make:        func(cfg Config) trace.Source { return newEm3d(cfg) },
	})
	register(Workload{
		Name:        "ocean",
		Group:       GroupScientific,
		Description: "ocean-like grid relaxation: dense row sweeps over several arrays",
		Make:        func(cfg Config) trace.Source { return newOcean(cfg) },
	})
	register(Workload{
		Name:        "sparse",
		Group:       GroupScientific,
		Description: "sparse-like matrix-vector solve: dense value streaming with iteration-stable gathers",
		Make:        func(cfg Config) trace.Source { return newSparse(cfg) },
	})
}

// --- em3d ---

func newEm3d(cfg Config) trace.BatchSource {
	cfg = cfg.normalized()
	const remoteFrac = 0.15 // paper: 15% remote
	nodesBase := structBase(sciWorkloadEm3d, 0)
	valsBase := structBase(sciWorkloadEm3d, 1)
	pagesPerCPU := cfg.scaled(1024, 64) // per-CPU node-array partition

	return newEngine(engineConfig{
		cfg:            cfg,
		actorsPerCPU:   1,
		switchProb:     0,
		instrPerAccess: 4, // floating-point work between accesses
		newActor: func(cpu, idx int, rng *rand.Rand) opFunc {
			page := 0
			return func(r *rand.Rand, buf []access) []access {
				// Process the nodes in one page of this CPU's partition:
				// read node metadata densely, then gather `degree`
				// neighbour values per node, then write the node's value.
				myPage := cpu*pagesPerCPU + page
				page = (page + 1) % pagesPerCPU // next iteration revisits

				for blk := 0; blk < pageBlocks; blk += 2 {
					buf = append(buf,
						access{pc: pcSite(sciWorkloadEm3d, sciOpNode, 0), addr: pageAddr(nodesBase, myPage, blk)},
						access{pc: pcSite(sciWorkloadEm3d, sciOpNode, 1), addr: pageAddr(nodesBase, myPage, blk+1)},
					)
					// degree = 2 neighbour reads (paper: degree 2). The
					// neighbour list is part of the graph: fixed across
					// iterations, so derive it deterministically from the
					// node identity rather than the stream RNG. em3d
					// builds its graph with span locality ("span 5"), so
					// a node's neighbours sit in a small adjacent cluster
					// — each gather touches two adjacent value blocks.
					for d := 0; d < 2; d++ {
						hv := nodeHash(myPage, blk, d)
						targetCPU := cpu
						if hv%100 < uint64(remoteFrac*100) {
							targetCPU = int(hv>>8) % cfg.CPUs
						}
						tPage := targetCPU*pagesPerCPU + int(hv>>16)%pagesPerCPU
						tBlk := int(hv>>32) % (pageBlocks - 1)
						buf = append(buf,
							access{
								pc:   pcSite(sciWorkloadEm3d, sciOpRemote, d),
								addr: pageAddr(valsBase, tPage, tBlk),
							},
							access{
								pc:   pcSite(sciWorkloadEm3d, sciOpRemote, d+2),
								addr: pageAddr(valsBase, tPage, tBlk+1),
							},
						)
					}
					buf = append(buf, access{
						pc:    pcSite(sciWorkloadEm3d, sciOpNode, 2),
						addr:  pageAddr(valsBase, cpu*pagesPerCPU+myPage%pagesPerCPU, blk),
						write: true,
					})
				}
				return buf
			}
		},
	})
}

// nodeHash derives the fixed neighbour of (page, blk, d); the graph
// structure must not change between iterations.
func nodeHash(page, blk, d int) uint64 {
	h := uint64(page)*0x9e3779b97f4a7c15 ^ uint64(blk)*0xbf58476d1ce4e5b9 ^ uint64(d)*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xff51afd7ed558ccd
	h ^= h >> 32
	return h
}

// --- ocean ---

func newOcean(cfg Config) trace.BatchSource {
	cfg = cfg.normalized()
	// Three source arrays and one destination array; the sweep reads the
	// stencil rows densely and writes the destination densely.
	var arrays [4]mem.Addr
	for i := range arrays {
		arrays[i] = structBase(sciWorkloadOcean, i)
	}
	rowsPerCPU := cfg.scaled(768, 64)

	return newEngine(engineConfig{
		cfg:            cfg,
		actorsPerCPU:   1,
		switchProb:     0,
		instrPerAccess: 5,
		newActor: func(cpu, idx int, rng *rand.Rand) opFunc {
			row := 0
			return func(r *rand.Rand, buf []access) []access {
				myRow := cpu*rowsPerCPU + row
				row = (row + 1) % rowsPerCPU
				// Read the full row from each source array (dense, 32
				// blocks — ocean's narrow density profile in Fig. 5).
				for a := 0; a < 3; a++ {
					for blk := 0; blk < pageBlocks; blk++ {
						buf = append(buf, access{
							pc:   pcSite(sciWorkloadOcean, sciOpRowRead, a),
							addr: pageAddr(arrays[a], myRow, blk),
						})
					}
				}
				for blk := 0; blk < pageBlocks; blk++ {
					buf = append(buf, access{
						pc:    pcSite(sciWorkloadOcean, sciOpRowWrite, 0),
						addr:  pageAddr(arrays[3], myRow, blk),
						write: true,
					})
				}
				return buf
			}
		},
	})
}

// --- sparse ---

func newSparse(cfg Config) trace.BatchSource {
	cfg = cfg.normalized()
	vals := structBase(sciWorkloadSparse, 0) // matrix values + column indices
	xvec := structBase(sciWorkloadSparse, 1) // gathered vector (shared, read)
	yvec := structBase(sciWorkloadSparse, 2) // result vector (written)
	rowsPerCPU := cfg.scaled(1024, 64)
	xPages := cfg.scaled(256, 32)

	return newEngine(engineConfig{
		cfg:            cfg,
		actorsPerCPU:   1,
		switchProb:     0,
		instrPerAccess: 2, // multiply-accumulate only: the most memory-bound code in the suite
		newActor: func(cpu, idx int, rng *rand.Rand) opFunc {
			row := 0
			return func(r *rand.Rand, buf []access) []access {
				myRow := cpu*rowsPerCPU + row
				row = (row + 1) % rowsPerCPU // next iteration repeats rows
				// Stream the row's values and column indices densely.
				for blk := 0; blk < pageBlocks; blk++ {
					buf = append(buf, access{
						pc:   pcSite(sciWorkloadSparse, sciOpVals, 0),
						addr: pageAddr(vals, myRow, blk),
					})
				}
				// Gather x[col] for the row's nonzeros: targets fixed per
				// row across iterations (the sparsity structure).
				for g := 0; g < 6; g++ {
					hv := nodeHash(myRow, g, 7)
					buf = append(buf, access{
						pc:   pcSite(sciWorkloadSparse, sciOpGather, 0),
						addr: pageAddr(xvec, int(hv)%xPages, int(hv>>24)%pageBlocks),
					})
				}
				// Write the result element(s).
				buf = append(buf, access{
					pc:    pcSite(sciWorkloadSparse, sciOpResult, 0),
					addr:  pageAddr(yvec, cpu, (myRow/16)%pageBlocks),
					write: true,
				})
				return buf
			}
		},
	})
}

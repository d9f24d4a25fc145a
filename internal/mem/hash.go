package mem

// HashKey mixes a table key — a block number or region tag — for
// open-addressed probing (Fibonacci hashing with a fold). It is the one
// hash shared by the simulator's open-addressed tables (the coherence
// directory, the generation trackers, the AGT tag index), so dense
// sequential key ranges produced by streaming workloads spread the same
// way everywhere and a change to the mixing is made exactly once.
func HashKey(k uint64) uint64 {
	h := k * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

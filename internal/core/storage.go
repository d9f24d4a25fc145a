package core

import "repro/internal/mem"

// Storage cost model: the bit budget of each SMS structure, used for the
// paper's equivalent-storage comparisons ("PC+offset attains peak coverage
// with 16k entries — roughly the same hardware cost as a 64kB L1 cache
// data array", §4.2; GHB's 16k-entry buffer is sized to match the SMS PHT
// budget, §4.6).

// StorageBits describes one structure's cost.
type StorageBits struct {
	// Entries is the structure's entry count.
	Entries int
	// BitsPerEntry is the width of one entry, including tags and
	// payload.
	BitsPerEntry int
}

// Total returns the structure's total bits.
func (s StorageBits) Total() int { return s.Entries * s.BitsPerEntry }

// KiB returns the structure's size in binary kilobytes.
func (s StorageBits) KiB() float64 { return float64(s.Total()) / 8 / 1024 }

// Field widths used by the cost model. Addresses are 42 physical bits
// (the paper's era); PCs are truncated to 30 bits as in contemporary
// predictor proposals.
const (
	addrBits = 42
	pcBits   = 30
)

// PHTStorage returns the pattern history table's cost for a geometry and
// configuration: per entry, a partial tag plus the spatial pattern bit
// vector. An unbounded PHT (entries == 0) reports zero (limit studies
// have no hardware budget).
func PHTStorage(g mem.Geometry, entries, assoc int) StorageBits {
	if entries <= 0 {
		return StorageBits{}
	}
	// Key space: PC+offset keys are pcBits + log2(blocks per region);
	// the set index consumes log2(entries/assoc) bits, the rest is tag.
	const tagBits = 16 // partial tags, as in cache-like predictor tables
	return StorageBits{
		Entries:      entries,
		BitsPerEntry: tagBits + g.BlocksPerRegion(),
	}
}

// AGTStorage returns the active generation table's cost: filter entries
// hold a region tag plus trigger PC/offset; accumulation entries add the
// pattern bit vector.
func AGTStorage(g mem.Geometry, filterEntries, accumEntries int) StorageBits {
	if filterEntries < 0 {
		filterEntries = 0 // disabled or unbounded: no fixed budget
	}
	if accumEntries < 0 {
		accumEntries = 0
	}
	regionTagBits := addrBits - log2(g.RegionSize())
	offsetBits := log2(g.BlocksPerRegion())
	filterBits := regionTagBits + pcBits + offsetBits
	accumBits := filterBits + g.BlocksPerRegion()
	total := filterEntries*filterBits + accumEntries*accumBits
	entries := filterEntries + accumEntries
	if entries == 0 {
		return StorageBits{}
	}
	return StorageBits{Entries: entries, BitsPerEntry: total / entries}
}

// Storage returns the engine's total hardware budget (AGT + PHT +
// prediction registers).
func (s *SMS) Storage() StorageBits {
	cfg := s.cfg
	pht := PHTStorage(s.geo, cfg.PHTEntries, cfg.PHTAssoc)
	agt := AGTStorage(s.geo, cfg.FilterEntries, cfg.AccumEntries)
	regBits := 0
	if cfg.PredictionRegisters > 0 && cfg.PredictionRegisters < 1<<20 {
		// Each register: region base address + pattern.
		regBits = cfg.PredictionRegisters * (addrBits - log2(s.geo.RegionSize()) + s.width)
	}
	total := pht.Total() + agt.Total() + regBits
	entries := pht.Entries + agt.Entries
	if entries == 0 {
		return StorageBits{}
	}
	return StorageBits{Entries: entries, BitsPerEntry: total / entries}
}

func log2(x int) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

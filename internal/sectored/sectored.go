// Package sectored implements the two cache-coupled spatial-pattern
// training structures that the paper's §4.3 compares against the decoupled
// AGT:
//
//   - LogicalSectored (LS): a logical sectored-cache tag array maintained
//     alongside a traditional cache (after Chen et al.'s spatial pattern
//     predictor). It computes what a sectored cache's tags *would* contain,
//     without affecting real cache contents. Interleaved accesses conflict
//     in the logical tags, fragmenting generations and polluting the PHT
//     with more, sparser patterns.
//
//   - DecoupledSectored (DS): a sectored cache that actually constrains
//     cache contents (after Kumar & Wilkerson's spatial footprint
//     predictor, which used Seznec's decoupled sectored cache). A block
//     may reside only while its sector tag is present; replacing a sector
//     displaces the whole sector. This raises the demand miss rate itself,
//     which is why the paper's Fig. 8 shows DS bars exceeding the baseline.
//
// Reproduction note: DS here is a plain sectored cache (one tag per
// resident sector, whole-sector replacement). Seznec's decoupling softens
// — but does not remove — the conflict behaviour; the paper's qualitative
// result (DS ≫ misses, LS ≈ AGT coverage with ~2× PHT pressure) is
// preserved. See DESIGN.md §6.
package sectored

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/mem"
)

// Config parameterizes either training structure.
type Config struct {
	// Geometry fixes block and region (= sector) sizes.
	Geometry mem.Geometry
	// CacheSize is the modelled L1 capacity in bytes; the sector tag
	// array holds CacheSize/RegionSize sectors.
	CacheSize int
	// Assoc is the sector tag array's set associativity.
	Assoc int
	// Index selects the PHT prediction index.
	Index core.IndexKind
	// PHTEntries and PHTAssoc size the pattern history table
	// (0 entries = paper default; <0 = unbounded).
	PHTEntries int
	PHTAssoc   int
	// PredictionRegisters bounds concurrent streams (0 = paper default;
	// <0 = unbounded).
	PredictionRegisters int
}

// Canonical returns the configuration with zero fields resolved to the
// defaults and every "unbounded" (<0) spelling normalized to -1. It is
// the only resolution: both training structures build from exactly this
// form, and it is idempotent, which the result store requires of
// anything it hashes. The tables translate -1 when they are built.
func (c Config) Canonical() Config {
	if c.Geometry == (mem.Geometry{}) {
		c.Geometry = mem.DefaultGeometry()
	}
	if c.CacheSize == 0 {
		c.CacheSize = 32 << 10
	}
	if c.Assoc == 0 {
		c.Assoc = 2
	}
	switch {
	case c.PHTEntries == 0:
		c.PHTEntries = core.DefaultPHTEntries
	case c.PHTEntries < 0:
		c.PHTEntries = -1
	}
	if c.PHTAssoc == 0 {
		c.PHTAssoc = core.DefaultPHTAssoc
	}
	switch {
	case c.PredictionRegisters == 0:
		c.PredictionRegisters = core.DefaultPredictionRegisters
	case c.PredictionRegisters < 0:
		c.PredictionRegisters = -1
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.Canonical()
	if err := c.Geometry.CheckPatternWidth(); err != nil {
		return err
	}
	sectors := c.CacheSize / c.Geometry.RegionSize()
	if sectors < c.Assoc || sectors%c.Assoc != 0 {
		return fmt.Errorf("sectored: %d sectors not divisible into %d ways", sectors, c.Assoc)
	}
	sets := sectors / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("sectored: set count %d not a power of two", sets)
	}
	return nil
}

// sector is one tag-array entry.
type sector struct {
	valid bool
	tag   uint64
	trig  sectorTrigger
	// accessed records demand-accessed blocks (the spatial pattern).
	accessed mem.Pattern
	// resident records blocks present in the cache (DS only).
	resident mem.Pattern
	// prefetched/used track streamed blocks for overprediction
	// accounting (DS only).
	prefetched mem.Pattern
	usedPref   mem.Pattern
	lru        uint64
}

type sectorTrigger struct {
	pc   uint64
	addr mem.Addr
}

// tagArray is the shared sets×ways sector structure. Sectors live in a
// flat backing array with a packed key sidecar (tag+1, 0 = invalid), so
// the per-access find scans eight bytes per way instead of a ~140-byte
// sector (the same layout trick as package cache).
type tagArray struct {
	geo     mem.Geometry
	backing []sector
	keys    []uint64 // tag+1 per way slot (set*assoc+way); 0 = invalid
	assoc   int
	nsets   int
	setMask uint64
	clock   uint64
}

func newTagArray(geo mem.Geometry, sectors, assoc int) *tagArray {
	nsets := sectors / assoc
	return &tagArray{
		geo:     geo,
		backing: make([]sector, sectors),
		keys:    make([]uint64, sectors),
		assoc:   assoc,
		nsets:   nsets,
		setMask: uint64(nsets - 1),
	}
}

func (ta *tagArray) setBits() uint { return uint(bits.TrailingZeros64(uint64(ta.nsets))) }

func (ta *tagArray) find(tag uint64) *sector {
	base := int(tag&ta.setMask) * ta.assoc
	k := tag + 1
	for i, c := range ta.keys[base : base+ta.assoc] {
		if c == k {
			return &ta.backing[base+i]
		}
	}
	return nil
}

// victim returns the slot an allocation of tag reuses: the first
// invalid way of its set, else the LRU one. The caller ends a valid
// victim's generation in place, then calls install.
func (ta *tagArray) victim(tag uint64) int {
	base := int(tag&ta.setMask) * ta.assoc
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := 0; i < ta.assoc; i++ {
		if ta.keys[base+i] == 0 {
			victim = i
			break
		}
		if l := ta.backing[base+i].lru; l < oldest {
			oldest = l
			victim = i
		}
	}
	return base + victim
}

// install starts a fresh sector for tag in slot j and returns it. The
// fields are stored in place: a sector literal would be built aside and
// copied.
func (ta *tagArray) install(j int, tag uint64) *sector {
	ta.clock++
	p := mem.NewPattern(ta.geo.BlocksPerRegion())
	s := &ta.backing[j]
	s.valid, s.tag, s.trig, s.lru = true, tag, sectorTrigger{}, ta.clock
	s.accessed, s.resident, s.prefetched, s.usedPref = p, p, p, p
	ta.keys[j] = tag + 1
	return s
}

func (ta *tagArray) touch(s *sector) {
	ta.clock++
	s.lru = ta.clock
}

// remove invalidates the sector holding tag, which the caller has
// retired in place.
func (ta *tagArray) remove(tag uint64) {
	base := int(tag&ta.setMask) * ta.assoc
	k := tag + 1
	for i, c := range ta.keys[base : base+ta.assoc] {
		if c == k {
			ta.backing[base+i] = sector{}
			ta.keys[base+i] = 0
			return
		}
	}
}

// Stats counts training-structure events shared by LS and DS.
type Stats struct {
	Accesses        uint64
	Triggers        uint64 // sector allocations
	PatternsLearned uint64
	Predictions     uint64
	StreamsIssued   uint64
}

package sectored

import (
	"repro/internal/core"
	"repro/internal/mem"
)

// DecoupledSectored is the DS variant: the training structure *is* the
// cache's (sectored) tag array, so the spatial predictor comes almost for
// free in hardware — but a block may only be resident while its sector tag
// is, and replacing a sector evicts every resident block of that sector.
// The additional constraint on cache contents raises the demand miss rate,
// which is the effect the paper's Fig. 8 quantifies against a traditional
// cache baseline.
type DecoupledSectored struct {
	cfg   Config
	geo   mem.Geometry
	tags  *tagArray
	pht   *core.PatternHistoryTable
	regs  *core.RegisterFile
	stats Stats

	demandMisses    uint64
	prefetchHits    uint64
	overpredictions uint64
}

// NewDecoupledSectored builds the DS cache+trainer.
func NewDecoupledSectored(cfg Config) (*DecoupledSectored, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Canonical()
	pht, err := core.NewPHT(cfg.PHTEntries, cfg.PHTAssoc)
	if err != nil {
		return nil, err
	}
	return &DecoupledSectored{
		cfg:  cfg,
		geo:  cfg.Geometry,
		tags: newTagArray(cfg.Geometry, cfg.CacheSize/cfg.Geometry.RegionSize(), cfg.Assoc),
		pht:  pht,
		regs: core.NewRegisterFile(cfg.Geometry, cfg.PredictionRegisters),
	}, nil
}

// MustNewDecoupledSectored is NewDecoupledSectored that panics on error.
func MustNewDecoupledSectored(cfg Config) *DecoupledSectored {
	d, err := NewDecoupledSectored(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// PHT exposes the pattern history table.
func (d *DecoupledSectored) PHT() *core.PatternHistoryTable { return d.pht }

// Stats returns activity counters.
func (d *DecoupledSectored) Stats() Stats {
	st := d.stats
	st.StreamsIssued = d.regs.Issued()
	return st
}

// AccessResult reports the cache behaviour of one access to the DS cache.
type AccessResult struct {
	// Hit reports whether the block was resident.
	Hit bool
	// PrefetchHit reports the first demand hit on a streamed block.
	PrefetchHit bool
}

// Access performs a demand access: cache lookup, training, and (on a
// sector allocation) prediction.
func (d *DecoupledSectored) Access(pc uint64, addr mem.Addr) AccessResult {
	d.stats.Accesses++
	tag := d.geo.RegionTag(addr)
	off := d.geo.RegionOffset(addr)

	if s := d.tags.find(tag); s != nil {
		d.tags.touch(s)
		if s.resident.Test(off) {
			res := AccessResult{Hit: true}
			if s.prefetched.Test(off) && !s.usedPref.Test(off) {
				s.usedPref.Set(off)
				res.PrefetchHit = true
				d.prefetchHits++
			}
			s.accessed.Set(off)
			return res
		}
		// Sector present, block absent: block-grain miss and fill.
		d.demandMisses++
		s.resident.Set(off)
		s.accessed.Set(off)
		return AccessResult{}
	}

	// Sector miss: whole-sector replacement, generation boundary.
	d.demandMisses++
	j := d.tags.victim(tag)
	if v := &d.tags.backing[j]; v.valid {
		d.retire(v)
	}
	s := d.tags.install(j, tag)
	d.stats.Triggers++
	s.trig = sectorTrigger{pc: pc, addr: addr}
	s.resident.Set(off)
	s.accessed.Set(off)
	d.predict(pc, addr)
	return AccessResult{}
}

// Fill installs a streamed block into the DS cache. Stream fills do not
// allocate sectors: a prediction is only useful while its generation's
// sector survives, so fills for dead sectors are dropped (counted as
// overpredictions).
func (d *DecoupledSectored) Fill(addr mem.Addr) {
	tag := d.geo.RegionTag(addr)
	off := d.geo.RegionOffset(addr)
	s := d.tags.find(tag)
	if s == nil {
		d.overpredictions++
		return
	}
	if s.resident.Test(off) {
		return
	}
	s.resident.Set(off)
	s.prefetched.Set(off)
}

// BlockRemoved observes a coherence invalidation.
func (d *DecoupledSectored) BlockRemoved(addr mem.Addr) {
	tag := d.geo.RegionTag(addr)
	off := d.geo.RegionOffset(addr)
	if s := d.tags.find(tag); s != nil && s.accessed.Test(off) {
		d.retire(s)
		d.tags.remove(tag)
	}
}

// retire ends a generation: learn the accessed pattern, count streamed
// blocks that were never used.
func (d *DecoupledSectored) retire(v *sector) {
	unused := v.prefetched.AndNot(v.usedPref)
	d.overpredictions += uint64(unused.PopCount())
	if v.accessed.PopCount() < 2 {
		return
	}
	key := core.IndexKeyFor(d.cfg.Index, d.geo, v.trig.pc, v.trig.addr)
	d.pht.Insert(key, v.accessed)
	d.stats.PatternsLearned++
}

func (d *DecoupledSectored) predict(pc uint64, addr mem.Addr) {
	key := core.IndexKeyFor(d.cfg.Index, d.geo, pc, addr)
	p, ok := d.pht.Lookup(key)
	if !ok || p.Width() != d.geo.BlocksPerRegion() {
		return
	}
	off := d.geo.RegionOffset(addr)
	if p.Test(off) {
		p.Clear(off)
	}
	if p.Empty() {
		return
	}
	d.stats.Predictions++
	d.regs.Arm(d.geo.RegionBase(addr), p)
}

// NextStreamRequests pops up to max predicted block addresses.
func (d *DecoupledSectored) NextStreamRequests(max int) []mem.Addr { return d.regs.Next(max) }

// DemandMisses returns the number of demand misses (block- or
// sector-grain) the DS cache has taken.
func (d *DecoupledSectored) DemandMisses() uint64 { return d.demandMisses }

// PrefetchHits returns first-use hits on streamed blocks.
func (d *DecoupledSectored) PrefetchHits() uint64 {
	// Tracked via AccessResult; recomputed here from stats for
	// convenience of callers that ignore per-access results.
	return d.prefetchHits
}

// Overpredictions returns streamed blocks that died unused.
func (d *DecoupledSectored) Overpredictions() uint64 { return d.overpredictions }

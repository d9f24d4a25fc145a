package sectored

import (
	"repro/internal/core"
	"repro/internal/mem"
)

// LogicalSectored is the LS training structure: a sectored tag array
// maintained beside (not inside) a traditional cache. Generations begin
// when a sector is allocated and end when the sector is replaced by a
// conflicting region or invalidated; the accumulated access pattern is
// then transferred to the PHT.
type LogicalSectored struct {
	cfg   Config
	geo   mem.Geometry
	tags  *tagArray
	pht   *core.PatternHistoryTable
	regs  *core.RegisterFile
	stats Stats
}

// NewLogicalSectored builds the LS trainer.
func NewLogicalSectored(cfg Config) (*LogicalSectored, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Canonical()
	pht, err := core.NewPHT(cfg.PHTEntries, cfg.PHTAssoc)
	if err != nil {
		return nil, err
	}
	return &LogicalSectored{
		cfg:  cfg,
		geo:  cfg.Geometry,
		tags: newTagArray(cfg.Geometry, cfg.CacheSize/cfg.Geometry.RegionSize(), cfg.Assoc),
		pht:  pht,
		regs: core.NewRegisterFile(cfg.Geometry, cfg.PredictionRegisters),
	}, nil
}

// MustNewLogicalSectored is NewLogicalSectored that panics on error.
func MustNewLogicalSectored(cfg Config) *LogicalSectored {
	l, err := NewLogicalSectored(cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// PHT exposes the pattern history table.
func (l *LogicalSectored) PHT() *core.PatternHistoryTable { return l.pht }

// Stats returns activity counters.
func (l *LogicalSectored) Stats() Stats {
	st := l.stats
	st.StreamsIssued = l.regs.Issued()
	return st
}

// Access observes one demand L1 access.
func (l *LogicalSectored) Access(pc uint64, addr mem.Addr) {
	l.stats.Accesses++
	tag := l.geo.RegionTag(addr)
	off := l.geo.RegionOffset(addr)
	if s := l.tags.find(tag); s != nil {
		s.accessed.Set(off)
		l.tags.touch(s)
		return
	}
	// Sector miss: logical replacement ends the victim's generation —
	// this is exactly where interleaving fragments patterns.
	j := l.tags.victim(tag)
	if v := &l.tags.backing[j]; v.valid {
		l.learn(v)
	}
	s := l.tags.install(j, tag)
	l.stats.Triggers++
	s.trig = sectorTrigger{pc: pc, addr: addr}
	s.accessed.Set(off)
	l.predict(pc, addr)
}

// BlockRemoved observes an invalidation of a block this CPU held; if its
// sector is live and the block was accessed, the generation ends (the
// sectored designs also lose sectors to coherence).
func (l *LogicalSectored) BlockRemoved(addr mem.Addr) {
	tag := l.geo.RegionTag(addr)
	off := l.geo.RegionOffset(addr)
	if s := l.tags.find(tag); s != nil && s.accessed.Test(off) {
		l.learn(s)
		l.tags.remove(tag)
	}
}

func (l *LogicalSectored) learn(v *sector) {
	if v.accessed.PopCount() < 2 {
		return // nothing worth predicting (mirrors the AGT filter)
	}
	key := core.IndexKeyFor(l.cfg.Index, l.geo, v.trig.pc, v.trig.addr)
	l.pht.Insert(key, v.accessed)
	l.stats.PatternsLearned++
}

func (l *LogicalSectored) predict(pc uint64, addr mem.Addr) {
	key := core.IndexKeyFor(l.cfg.Index, l.geo, pc, addr)
	p, ok := l.pht.Lookup(key)
	if !ok || p.Width() != l.geo.BlocksPerRegion() {
		return
	}
	off := l.geo.RegionOffset(addr)
	if p.Test(off) {
		p.Clear(off)
	}
	if p.Empty() {
		return
	}
	l.stats.Predictions++
	l.regs.Arm(l.geo.RegionBase(addr), p)
}

// NextStreamRequests pops up to max predicted block addresses.
func (l *LogicalSectored) NextStreamRequests(max int) []mem.Addr { return l.regs.Next(max) }

package core

import (
	"fmt"

	"repro/internal/mem"
)

// Config parameterizes one SMS instance (one per processor: SMS observes
// its CPU's L1 access stream and streams into that CPU's L1).
type Config struct {
	// Geometry fixes block and spatial region sizes. The zero value
	// selects the paper's 64 B / 2 kB configuration.
	Geometry mem.Geometry
	// Index selects the prediction index scheme (default IndexPCOffset).
	Index IndexKind
	// FilterEntries sizes the filter table (paper: 32). <0 disables the
	// filter entirely — new generations allocate straight into the
	// accumulation table (an ablation). 0 selects the default.
	FilterEntries int
	// AccumEntries sizes the accumulation table (paper: 64). 0 selects
	// the default; <0 makes it unbounded.
	AccumEntries int
	// PHTEntries sizes the pattern history table (paper: 16k). 0
	// selects the default; <0 makes it unbounded (infinite-PHT limit
	// studies).
	PHTEntries int
	// PHTAssoc is the PHT's set associativity (paper: 16).
	PHTAssoc int
	// PredictionRegisters bounds concurrently active streams (paper:
	// 16 outstanding SMS stream requests). 0 selects the default; <0
	// makes it unbounded.
	PredictionRegisters int
	// RotatePatterns stores patterns rotated so the trigger offset maps
	// to bit 0, and rotates them back to the new trigger's alignment on
	// prediction. With PC-only indexing this approximates PC+offset's
	// alignment handling with far fewer PHT entries (a design-choice
	// ablation; DESIGN.md §5). With PC+offset indexing it is an
	// equivalent encoding.
	RotatePatterns bool
}

// Paper-default parameter values (Table 1, §4.5, Fig. 11).
const (
	DefaultFilterEntries       = 32
	DefaultAccumEntries        = 64
	DefaultPHTEntries          = 16384
	DefaultPHTAssoc            = 16
	DefaultPredictionRegisters = 16
)

// Canonical returns the configuration with zero fields resolved to the
// paper defaults and every "unbounded"/"disabled" (<0) spelling
// normalized to -1. It is the only resolution: New builds from exactly
// this form, and it is idempotent, which the result store requires of
// anything it hashes. The tables translate -1 when they are built.
func (c Config) Canonical() Config {
	if c.Geometry == (mem.Geometry{}) {
		c.Geometry = mem.DefaultGeometry()
	}
	norm := func(v, def int) int {
		switch {
		case v == 0:
			return def
		case v < 0:
			return -1
		}
		return v
	}
	c.FilterEntries = norm(c.FilterEntries, DefaultFilterEntries)
	c.AccumEntries = norm(c.AccumEntries, DefaultAccumEntries)
	c.PHTEntries = norm(c.PHTEntries, DefaultPHTEntries)
	c.PHTAssoc = norm(c.PHTAssoc, DefaultPHTAssoc)
	c.PredictionRegisters = norm(c.PredictionRegisters, DefaultPredictionRegisters)
	return c
}

// PredictionRegister holds one in-flight predicted stream (§3.2): the
// region base address and the remaining pattern bits to stream.
type PredictionRegister struct {
	Base    mem.Addr
	Pattern mem.Pattern
}

// Stats counts SMS-internal events.
type Stats struct {
	// Accesses is the number of L1 accesses observed.
	Accesses uint64
	// Triggers is the number of spatial region generations begun.
	Triggers uint64
	// GenerationsEnded counts generations terminated by
	// eviction/invalidation of an accessed block.
	GenerationsEnded uint64
	// GenerationsDroppedFilter counts single-access generations
	// discarded from the filter table (no pattern worth learning).
	GenerationsDroppedFilter uint64
	// GenerationsEvictedFilter counts generations dropped because the
	// filter table was full.
	GenerationsEvictedFilter uint64
	// GenerationsEvictedAccum counts generations force-transferred to
	// the PHT because the accumulation table was full.
	GenerationsEvictedAccum uint64
	// PatternsLearned counts patterns transferred to the PHT.
	PatternsLearned uint64
	// Predictions counts trigger accesses that hit in the PHT and
	// armed a prediction register.
	Predictions uint64
	// PredictedBlocks counts blocks entered into prediction registers.
	PredictedBlocks uint64
	// StreamsIssued counts stream requests handed to the memory system.
	StreamsIssued uint64
	// RegistersOverwritten counts live prediction registers clobbered
	// by newer predictions (stream abandoned).
	RegistersOverwritten uint64
	// PHT is the pattern history table's own activity.
	PHT PHTStats
}

// SMS is one processor's Spatial Memory Streaming engine.
type SMS struct {
	cfg   Config
	geo   mem.Geometry
	width int

	agt       *activeGenerationTable
	pht       *PatternHistoryTable
	useFilter bool

	regs *RegisterFile

	stats Stats
}

// New builds an SMS engine.
func New(cfg Config) (*SMS, error) {
	cfg = cfg.Canonical()
	if err := cfg.Geometry.CheckPatternWidth(); err != nil {
		return nil, err
	}
	pht, err := NewPHT(cfg.PHTEntries, cfg.PHTAssoc)
	if err != nil {
		return nil, err
	}
	s := &SMS{
		cfg:       cfg,
		geo:       cfg.Geometry,
		width:     cfg.Geometry.BlocksPerRegion(),
		agt:       newActiveGenerationTable(cfg.FilterEntries, cfg.AccumEntries),
		pht:       pht,
		useFilter: cfg.FilterEntries > 0,
		regs:      NewRegisterFile(cfg.Geometry, cfg.PredictionRegisters),
	}
	return s, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *SMS {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the canonical configuration the engine was built from.
func (s *SMS) Config() Config { return s.cfg }

// Geometry returns the engine's block/region geometry.
func (s *SMS) Geometry() mem.Geometry { return s.geo }

// Stats returns a snapshot of internal counters.
func (s *SMS) Stats() Stats {
	st := s.stats
	st.PHT = s.pht.Stats()
	st.StreamsIssued = s.regs.Issued()
	st.RegistersOverwritten = s.regs.Overwritten()
	return st
}

// PHT exposes the pattern history table (for storage accounting in the
// experiment harness).
func (s *SMS) PHT() *PatternHistoryTable { return s.pht }

// AGTOccupancy returns current filter and accumulation table occupancy.
func (s *SMS) AGTOccupancy() (filter, accum int) { return s.agt.Len() }

// Access observes one demand L1 data access (§3.1, Figure 2). The AGT
// processes every L1 access; if the access is the trigger of a new
// generation and the PHT predicts a pattern, a prediction register is
// armed and subsequent NextStreamRequests calls emit the stream.
func (s *SMS) Access(pc uint64, addr mem.Addr) {
	s.stats.Accesses++
	tag := s.geo.RegionTag(addr)
	off := s.geo.RegionOffset(addr)
	slot, pos := s.agt.find(tag)

	if pos >= 0 {
		e := s.agt.at(pos)
		if e.accum {
			// Step 3 in Figure 2: accesses to an active accumulating
			// generation set pattern bits.
			e.pattern.Set(off)
			s.agt.touch(pos)
			return
		}
		if e.trig.offset == off {
			// Repeated access to the trigger block: still a
			// single-block generation.
			return
		}
		// Step 2: second distinct block — the generation moves from
		// the filter to the accumulation table.
		p := mem.NewPattern(s.width)
		p.Set(e.trig.offset)
		p.Set(off)
		if victim := s.agt.promote(pos, p); victim != nil {
			s.evictedAccum(victim)
		}
		return
	}

	// Step 1: trigger access for a new generation. With the filter
	// disabled (an ablation) it allocates straight into the
	// accumulation table.
	s.stats.Triggers++
	e, victim := s.agt.insert(slot, tag, !s.useFilter)
	e.trig = trigger{pc: pc, offset: off, addr: addr}
	if e.accum {
		e.pattern = mem.NewPattern(s.width)
		e.pattern.Set(off)
	}
	switch {
	case victim == nil:
	case victim.accum:
		s.evictedAccum(victim)
	default:
		// A victim generation is dropped: it only had its trigger
		// access, so there is nothing to learn.
		s.stats.GenerationsEvictedFilter++
	}
	s.predict(e.trig)
}

// evictedAccum transfers the pattern of a generation displaced from the
// full accumulation table to the PHT.
func (s *SMS) evictedAccum(victim *agtEntry) {
	s.stats.GenerationsEvictedAccum++
	s.learn(victim)
}

// predict consults the PHT for the trigger and arms a prediction register
// on a hit.
func (s *SMS) predict(trig trigger) {
	key := indexKey(s.cfg.Index, s.geo, trig.pc, trig.addr)
	pattern, ok := s.pht.Lookup(key)
	if !ok || pattern.Width() != s.width {
		return
	}
	if s.cfg.RotatePatterns {
		// Stored patterns are trigger-relative: re-align to this
		// trigger's offset.
		pattern = pattern.Rotate(trig.offset)
	}
	// Do not stream the trigger block itself: the demand access already
	// fetched it.
	p := pattern
	if p.Test(trig.offset) {
		p.Clear(trig.offset)
	}
	if p.Empty() {
		return
	}
	s.stats.Predictions++
	s.stats.PredictedBlocks += uint64(p.PopCount())
	s.regs.Arm(s.geo.RegionBase(trig.addr), p)
}

// learn transfers a completed generation's pattern to the PHT.
func (s *SMS) learn(e *agtEntry) {
	key := indexKey(s.cfg.Index, s.geo, e.trig.pc, e.trig.addr)
	p := e.pattern
	if s.cfg.RotatePatterns {
		// Store trigger-relative: the trigger block becomes bit 0.
		p = p.Rotate(-e.trig.offset)
	}
	s.pht.Insert(key, p)
	s.stats.PatternsLearned++
}

// BlockRemoved notifies SMS that a block left the L1 by replacement or
// invalidation — the event that ends a spatial region generation (§2.1).
// Only removal of a block *accessed during the generation* terminates it.
func (s *SMS) BlockRemoved(addr mem.Addr) {
	tag := s.geo.RegionTag(addr)
	off := s.geo.RegionOffset(addr)
	slot, pos := s.agt.find(tag)
	if pos < 0 {
		return
	}
	e := s.agt.at(pos)
	if e.accum {
		if !e.pattern.Test(off) {
			return // block not accessed during this generation
		}
		s.agt.remove(slot, pos)
		s.stats.GenerationsEnded++
		s.learn(e)
		return
	}
	if e.trig.offset == off {
		// A generation with only its trigger access: discard.
		s.agt.remove(slot, pos)
		s.stats.GenerationsEnded++
		s.stats.GenerationsDroppedFilter++
	}
}

// NextStreamRequests pops up to max predicted block addresses, consuming
// prediction-register pattern bits in round-robin register order (§3.2:
// "SMS requests blocks from each prediction register in a round-robin
// fashion"). Freed registers are recycled.
func (s *SMS) NextStreamRequests(max int) []mem.Addr {
	return s.regs.Next(max)
}

// ActiveStreams returns the number of armed prediction registers.
func (s *SMS) ActiveStreams() int { return s.regs.Active() }

// String implements fmt.Stringer.
func (s *SMS) String() string {
	return fmt.Sprintf("SMS{%s index=%s filter=%d accum=%d pht=%d regs=%d}",
		s.geo, s.cfg.Index, s.agt.filterCap, s.agt.accumCap, s.pht.Entries(), s.regs.capacity)
}

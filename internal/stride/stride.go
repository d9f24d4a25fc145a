// Package stride implements a classic per-PC stride prefetcher (a
// reference-prediction-table design in the style of Chen & Baer, cited in
// the paper via stride prefetching [24]). It serves as an extra baseline
// beyond the paper's GHB comparison: simple data structures that commercial
// workloads' non-strided patterns defeat.
package stride

import (
	"fmt"

	"repro/internal/mem"
)

// State is the confidence automaton of one table entry.
type State uint8

// Reference prediction table states.
const (
	StateInitial State = iota
	StateTransient
	StateSteady
	StateNoPred
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateInitial:
		return "initial"
	case StateTransient:
		return "transient"
	case StateSteady:
		return "steady"
	case StateNoPred:
		return "nopred"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Config parameterizes the prefetcher.
type Config struct {
	// Entries is the reference prediction table size.
	Entries int
	// Degree is the number of strides projected ahead when steady.
	Degree int
	// BlockSize is the prefetch granularity.
	BlockSize int
}

// Canonical returns the configuration with every default resolved. It is
// the only resolution: New builds from exactly this form, and it is the
// idempotent form the result store hashes.
func (c Config) Canonical() Config {
	if c.Entries == 0 {
		c.Entries = 512
	}
	if c.Degree == 0 {
		c.Degree = 2
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.Canonical()
	if c.Entries < 1 {
		return fmt.Errorf("stride: entries %d", c.Entries)
	}
	if c.BlockSize <= 0 || c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("stride: block size %d not a power of two", c.BlockSize)
	}
	return nil
}

type entry struct {
	pc     uint64
	last   uint64 // block number of the previous access
	stride int64  // in blocks
	state  State
	valid  bool
}

// Stats counts prefetcher activity.
type Stats struct {
	Trains     uint64
	Prefetches uint64
	Steady     uint64 // trains that found the entry steady
}

// Prefetcher is the per-PC stride predictor.
type Prefetcher struct {
	cfg   Config
	table []entry
	stats Stats
	out   []mem.Addr // reused Train result buffer (valid until next Train)
}

// New builds a stride prefetcher.
func New(cfg Config) (*Prefetcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Canonical()
	return &Prefetcher{cfg: cfg, table: make([]entry, cfg.Entries)}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Prefetcher {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Config returns the resolved configuration.
func (p *Prefetcher) Config() Config { return p.cfg }

// Stats returns activity counters.
func (p *Prefetcher) Stats() Stats { return p.stats }

func (p *Prefetcher) slot(pc uint64) *entry {
	h := pc * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return &p.table[h%uint64(len(p.table))]
}

// Train observes a miss and returns the blocks to prefetch (empty unless
// the PC has a steady stride).
func (p *Prefetcher) Train(pc uint64, addr mem.Addr) []mem.Addr {
	p.stats.Trains++
	blockNum := uint64(addr) / uint64(p.cfg.BlockSize)
	e := p.slot(pc)
	if !e.valid || e.pc != pc {
		*e = entry{pc: pc, last: blockNum, state: StateInitial, valid: true}
		return nil
	}
	observed := int64(blockNum) - int64(e.last)
	correct := observed == e.stride && observed != 0
	switch e.state {
	case StateInitial:
		if correct {
			e.state = StateSteady
		} else {
			e.stride = observed
			e.state = StateTransient
		}
	case StateTransient:
		if correct {
			e.state = StateSteady
		} else {
			e.stride = observed
			e.state = StateNoPred
		}
	case StateSteady:
		if !correct {
			e.state = StateInitial
			e.stride = observed
		}
	case StateNoPred:
		if correct {
			e.state = StateTransient
		} else {
			e.stride = observed
		}
	}
	e.last = blockNum
	if e.state != StateSteady {
		return nil
	}
	p.stats.Steady++
	out := p.out[:0]
	cur := int64(blockNum)
	for i := 0; i < p.cfg.Degree; i++ {
		cur += e.stride
		if cur < 0 {
			break
		}
		out = append(out, mem.Addr(uint64(cur)*uint64(p.cfg.BlockSize)))
		p.stats.Prefetches++
	}
	p.out = out
	return out
}

// Package nextline implements a sequential next-N-line prefetcher: every
// L1 demand miss schedules the N consecutive blocks after the miss
// address for streaming into L1. It is the simplest useful prefetcher and
// serves as the floor baseline for the spatial schemes — and as the proof
// that new schemes plug into the simulator through sim registration alone,
// without touching the simulator core.
//
// Importing this package registers the scheme under the name "nextline".
package nextline

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Name is the scheme's registry name.
const Name = "nextline"

// Defaults for zero Config fields.
const (
	DefaultDegree     = 4
	DefaultQueueDepth = 64
)

// Config parameterizes the prefetcher.
type Config struct {
	// Degree is the number of consecutive blocks scheduled per miss.
	Degree int
	// BlockSize is the cache block size prefetched over.
	BlockSize int
	// QueueDepth bounds pending stream requests; scheduling past it
	// drops the newest addresses.
	QueueDepth int
}

func (c Config) withDefaults() Config {
	if c.Degree == 0 {
		c.Degree = DefaultDegree
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	return c
}

// Stats counts the prefetcher's activity.
type Stats struct {
	// Trains is the number of triggering misses observed.
	Trains uint64
	// Scheduled is the number of block addresses queued for streaming.
	Scheduled uint64
	// Dropped is the number of addresses lost to a full queue.
	Dropped uint64
}

// Prefetcher is one CPU's next-line engine. It implements the
// sim.Prefetcher interface.
type Prefetcher struct {
	cfg Config
	// queue is a FIFO ring of QueueDepth slots: n addresses from head.
	queue   []mem.Addr
	head, n int
	stats   Stats
	out     []mem.Addr // reused Drain result buffer (valid until next Drain)
}

// New builds a next-line prefetcher.
func New(cfg Config) (*Prefetcher, error) {
	cfg = cfg.withDefaults()
	if cfg.BlockSize&(cfg.BlockSize-1) != 0 {
		return nil, fmt.Errorf("nextline: block size %d not a power of two", cfg.BlockSize)
	}
	if cfg.Degree < 0 || cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("nextline: negative degree or queue depth")
	}
	return &Prefetcher{cfg: cfg, queue: make([]mem.Addr, cfg.QueueDepth)}, nil
}

// Config returns the resolved configuration.
func (p *Prefetcher) Config() Config { return p.cfg }

// Train schedules the next Degree blocks after every L1 miss. First-use
// hits on streamed lines also train, so a sequential walk keeps the
// stream running ahead instead of stalling every Degree blocks.
func (p *Prefetcher) Train(rec trace.Record, acc *coherence.AccessResult) []mem.Addr {
	if acc.L1Hit && !acc.L1PrefetchHit {
		return nil
	}
	p.stats.Trains++
	bs := mem.Addr(p.cfg.BlockSize)
	block := rec.Addr &^ (bs - 1)
	for i := 1; i <= p.cfg.Degree; i++ {
		if p.n == len(p.queue) {
			p.stats.Dropped++
			continue
		}
		tail := p.head + p.n
		if tail >= len(p.queue) {
			tail -= len(p.queue)
		}
		p.queue[tail] = block + mem.Addr(i)*bs
		p.n++
		p.stats.Scheduled++
	}
	return nil
}

// Drain pops up to max scheduled addresses. The returned slice aliases a
// buffer owned by the prefetcher, valid until the next Drain (the
// sim.Prefetcher contract).
func (p *Prefetcher) Drain(max int) []mem.Addr {
	max = min(max, p.n)
	if max <= 0 {
		return nil
	}
	out := p.out[:0]
	for range max {
		out = append(out, p.queue[p.head])
		if p.head++; p.head == len(p.queue) {
			p.head = 0
		}
	}
	p.out = out
	p.n -= max
	return out
}

// FillLevel reports that next-line streams into L1.
func (p *Prefetcher) FillLevel() coherence.Level { return coherence.LevelL1 }

// StreamEvicted is a no-op: next-line keeps no per-block state.
func (p *Prefetcher) StreamEvicted(mem.Addr) {}

// Invalidated is a no-op: next-line keeps no per-block state.
func (p *Prefetcher) Invalidated(mem.Addr) {}

// Stats returns the engine's counters (a nextline.Stats).
func (p *Prefetcher) Stats() any { return p.stats }

func init() {
	// The engine reads only the run's L1 block size: no sub-config.
	sim.RegisterReading(Name, 0, func(cfg sim.Config) (sim.Prefetcher, error) {
		return New(Config{BlockSize: cfg.Coherence.L1.BlockSize})
	})
}

// Package ghb implements the Global History Buffer prefetcher of Nesbit &
// Smith (HPCA 2004) in its PC/DC (program counter localized, delta
// correlated) variant — the comparison prefetcher the paper identifies as
// the most effective prior technique for desktop/engineering applications
// (§4.6).
//
// Structure: an index table maps a load PC to the most recent entry in a
// circular global history buffer; each buffer entry holds a miss address
// and a link to the previous entry for the same PC. On each trained miss,
// the predictor walks the PC's linked list, forming the delta stream of its
// recent misses as it goes, until it finds the previous occurrence of the
// two most recent deltas (delta correlation); it predicts that the deltas
// which followed that occurrence will repeat.
//
// Like the paper, the reproduction applies GHB at the L2: its multi-access
// lookup makes it impractical at L1 rates. The paper evaluates 256-entry
// (sufficient for SPEC) and 16k-entry (matched to the SMS PHT budget)
// history buffers.
package ghb

import (
	"fmt"

	"repro/internal/mem"
)

// Config parameterizes the prefetcher.
type Config struct {
	// HistoryEntries is the circular buffer size (paper: 256 or 16384).
	HistoryEntries int
	// IndexEntries is the PC index table size. 0 derives it from
	// HistoryEntries (quarter, minimum 256).
	IndexEntries int
	// Degree is the number of prefetches issued per prediction
	// (prefetch depth along the correlated delta stream).
	Degree int
	// MaxChain bounds the linked-list walk per lookup.
	MaxChain int
	// BlockSize is the cache block size prefetched over.
	BlockSize int
}

// Defaults matching the paper's configurations and the original proposal.
const (
	DefaultDegree   = 4
	DefaultMaxChain = 64
)

// Canonical returns the configuration with every default resolved. It is
// the only resolution: New builds from exactly this form, and it is the
// idempotent form the result store hashes.
func (c Config) Canonical() Config {
	if c.HistoryEntries == 0 {
		c.HistoryEntries = 256
	}
	if c.IndexEntries == 0 {
		c.IndexEntries = c.HistoryEntries / 4
		if c.IndexEntries < 256 {
			c.IndexEntries = 256
		}
	}
	if c.Degree == 0 {
		c.Degree = DefaultDegree
	}
	if c.MaxChain == 0 {
		c.MaxChain = DefaultMaxChain
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.Canonical()
	if c.HistoryEntries < 4 {
		return fmt.Errorf("ghb: history entries %d too small", c.HistoryEntries)
	}
	if c.BlockSize <= 0 || c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("ghb: block size %d not a power of two", c.BlockSize)
	}
	return nil
}

type histEntry struct {
	blockNum uint64 // miss address in block units
	prev     int64  // global sequence number of previous same-PC entry (-1: none)
	seq      int64  // this entry's global sequence number
}

type indexEntry struct {
	pc   uint64
	last int64 // global sequence number of the PC's most recent entry
}

// Stats counts prefetcher activity.
type Stats struct {
	Trains      uint64
	Lookups     uint64
	Matches     uint64 // delta-correlation hits
	Prefetches  uint64
	ChainLength uint64 // entries walked, each walk ending at its match (ChainLength/Lookups = mean)
}

// GHB is the PC/DC global history buffer prefetcher.
type GHB struct {
	cfg   Config
	buf   []histEntry
	index []indexEntry
	seq   int64 // monotonically increasing; buf slot = seq % len(buf)
	// slotMask is len(buf)-1 when len(buf) is a power of two (both
	// paper sizes are), so slot masks instead of dividing; 0 selects
	// the % fallback for other sizes.
	slotMask int64

	stats Stats

	// scratch buffers reused across lookups; out backs Train's returned
	// prefetch list (valid until the next Train, per sim.Prefetcher).
	deltas []int64
	out    []mem.Addr
}

// New builds a GHB prefetcher.
func New(cfg Config) (*GHB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Canonical()
	g := &GHB{
		cfg:   cfg,
		buf:   make([]histEntry, cfg.HistoryEntries),
		index: make([]indexEntry, cfg.IndexEntries),
	}
	if n := len(g.buf); n&(n-1) == 0 {
		g.slotMask = int64(n - 1)
	}
	for i := range g.index {
		g.index[i].last = -1
	}
	for i := range g.buf {
		g.buf[i].seq = -1
	}
	return g, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *GHB {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Config returns the resolved configuration.
func (g *GHB) Config() Config { return g.cfg }

// Stats returns activity counters.
func (g *GHB) Stats() Stats { return g.stats }

// StorageBits returns the prefetcher's hardware budget in bits: history
// buffer entries (block address + link pointer) plus index table entries
// (PC tag + head pointer). The paper sizes the 16k-entry configuration to
// roughly match the SMS PHT budget (§4.6).
func (g *GHB) StorageBits() int {
	const blockAddrBits = 36 // 42-bit physical address, 64B blocks
	ptrBits := 1
	for 1<<ptrBits < len(g.buf) {
		ptrBits++
	}
	const pcTagBits = 30
	return len(g.buf)*(blockAddrBits+ptrBits) + len(g.index)*(pcTagBits+ptrBits)
}

// slot returns seq's buffer entry. seq is never negative here (live
// rejects -1 before any lookup), so the mask and % agree.
func (g *GHB) slot(seq int64) *histEntry {
	if g.slotMask != 0 {
		return &g.buf[seq&g.slotMask]
	}
	return &g.buf[seq%int64(len(g.buf))]
}

// live reports whether the entry for seq is still in the buffer (not yet
// overwritten by wrap-around).
func (g *GHB) live(seq int64) bool {
	if seq < 0 {
		return false
	}
	e := g.slot(seq)
	return e.seq == seq
}

func (g *GHB) indexSlot(pc uint64) *indexEntry {
	h := pc * 0x9e3779b97f4a7c15
	h ^= h >> 32 // fold high bits down: PCs are often multiples of powers of two
	return &g.index[h%uint64(len(g.index))]
}

// Train records a miss by (pc, addr) and returns the block addresses to
// prefetch, following the PC's delta-correlated history. The caller (the
// simulator) invokes Train on L2 demand misses.
func (g *GHB) Train(pc uint64, addr mem.Addr) []mem.Addr {
	return g.predict(g.record(pc, addr))
}

// record appends the miss to the history buffer and links it into its
// PC's chain, returning its sequence number and block number.
func (g *GHB) record(pc uint64, addr mem.Addr) (int64, uint64) {
	g.stats.Trains++
	blockNum := uint64(addr) / uint64(g.cfg.BlockSize)

	ie := g.indexSlot(pc)
	prev := int64(-1)
	if ie.pc == pc && g.live(ie.last) {
		prev = ie.last
	}
	seq := g.seq
	g.seq++
	*g.slot(seq) = histEntry{blockNum: blockNum, prev: prev, seq: seq}
	*ie = indexEntry{pc: pc, last: seq}
	return seq, blockNum
}

// predict walks the PC's miss history back from seq and applies delta
// correlation. deltas[i] is the difference between the i-th and the
// (i+1)-th most recent misses, so deltas[0] is the most recent; the two
// most recent deltas (d2, d1) form the correlation key. Each older pair
// is tested as soon as the walk forms it, and the walk stops at the
// first match (at most MaxChain entries), so ChainLength counts the
// entries walked up to the match.
func (g *GHB) predict(seq int64, blockNum uint64) []mem.Addr {
	g.stats.Lookups++

	deltas := g.deltas[:0]
	match := -1
	var newer uint64
	for cur, n := seq, 0; n < g.cfg.MaxChain && g.live(cur); cur, n = g.slot(cur).prev, n+1 {
		e := g.slot(cur)
		g.stats.ChainLength++
		if n > 0 {
			deltas = append(deltas, int64(newer)-int64(e.blockNum))
			if k := len(deltas); k >= 4 && deltas[k-2] == deltas[0] && deltas[k-1] == deltas[1] {
				match = k - 2
				break
			}
		}
		newer = e.blockNum
	}
	g.deltas = deltas
	if match < 0 {
		return nil
	}
	g.stats.Matches++

	// The deltas that followed the matched occurrence (in time order)
	// are deltas[match-1], deltas[match-2], ...: predict they repeat.
	// If the continuation is shorter than the prefetch degree (e.g. a
	// constant stride matches almost immediately), replay it cyclically
	// to fill the degree, as a streaming GHB would.
	out := g.out[:0]
	cur := int64(blockNum)
	k := match - 1
	for len(out) < g.cfg.Degree {
		if k < 0 {
			k = match - 1
		}
		cur += deltas[k]
		k--
		if cur < 0 {
			break
		}
		out = append(out, mem.Addr(uint64(cur)*uint64(g.cfg.BlockSize)))
		g.stats.Prefetches++
	}
	g.out = out
	return out
}

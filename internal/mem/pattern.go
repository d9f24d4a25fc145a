package mem

import (
	"fmt"
	"math/bits"
	"strings"
)

// Pattern is a spatial pattern: a bit vector with one bit per cache block in
// a spatial region, where a set bit means the block was (or is predicted to
// be) accessed during a spatial region generation. Patterns are value types;
// the zero Pattern is an empty pattern of width 0.
//
// Patterns up to 128 blocks (8 kB regions with 64 B blocks) fit in the
// inline two-word representation, so pattern manipulation never allocates
// for any configuration in the paper.
type Pattern struct {
	width int // number of valid bits
	lo    uint64
	hi    uint64
}

// MaxPatternWidth is the widest supported spatial pattern, corresponding to
// the paper's largest region size (8 kB) with 64 B blocks.
const MaxPatternWidth = 128

// CheckPatternWidth reports an error when g's regions hold more blocks
// than a Pattern can track. Every structure that records spatial
// patterns calls it when it is built, so a too-wide region fails the
// run up front instead of panicking in NewPattern mid-run.
func (g Geometry) CheckPatternWidth() error {
	if w := g.BlocksPerRegion(); w > MaxPatternWidth {
		return fmt.Errorf("mem: %d B regions hold %d blocks, more than the %d a spatial pattern tracks", g.RegionSize(), w, MaxPatternWidth)
	}
	return nil
}

// NewPattern returns an empty pattern of the given width.
// It panics if width is outside (0, MaxPatternWidth].
func NewPattern(width int) Pattern {
	if width <= 0 || width > MaxPatternWidth {
		panic(fmt.Sprintf("mem: pattern width %d out of range (0,%d]", width, MaxPatternWidth))
	}
	return Pattern{width: width}
}

// PatternOf builds a pattern of the given width with the listed bits set.
func PatternOf(width int, setBits ...int) Pattern {
	p := NewPattern(width)
	for _, b := range setBits {
		p.Set(b)
	}
	return p
}

// Width returns the number of blocks the pattern covers.
func (p Pattern) Width() int { return p.width }

// Set marks block i as accessed. It panics if i is out of range.
func (p *Pattern) Set(i int) {
	p.check(i)
	if i < 64 {
		p.lo |= 1 << uint(i)
	} else {
		p.hi |= 1 << uint(i-64)
	}
}

// Clear unmarks block i. It panics if i is out of range.
func (p *Pattern) Clear(i int) {
	p.check(i)
	if i < 64 {
		p.lo &^= 1 << uint(i)
	} else {
		p.hi &^= 1 << uint(i-64)
	}
}

// Test reports whether block i is set. It panics if i is out of range.
func (p Pattern) Test(i int) bool {
	p.check(i)
	if i < 64 {
		return p.lo&(1<<uint(i)) != 0
	}
	return p.hi&(1<<uint(i-64)) != 0
}

// check panics if i is not a valid bit index. The message is built out
// of line (bitRangeError.Error, called only when the panic is printed),
// which keeps Set, Clear and Test within the inliner's budget.
func (p Pattern) check(i int) {
	if uint(i) >= uint(p.width) {
		panic(bitRangeError{bit: i, width: p.width})
	}
}

// bitRangeError is the panic value of a Pattern bit index out of range.
type bitRangeError struct {
	bit, width int
}

func (e bitRangeError) Error() string {
	return fmt.Sprintf("mem: pattern bit %d out of range [0,%d)", e.bit, e.width)
}

// PopCount returns the number of set bits (the generation's density).
func (p Pattern) PopCount() int {
	return bits.OnesCount64(p.lo) + bits.OnesCount64(p.hi)
}

// FirstSet returns the index of the lowest set bit, or -1 if the pattern
// is empty. It is constant-time (two TrailingZeros), which matters to the
// prediction-register round-robin that pops the lowest pending block per
// stream request.
func (p Pattern) FirstSet() int {
	if p.lo != 0 {
		return bits.TrailingZeros64(p.lo)
	}
	if p.hi != 0 {
		return 64 + bits.TrailingZeros64(p.hi)
	}
	return -1
}

// Empty reports whether no bits are set.
func (p Pattern) Empty() bool { return p.lo == 0 && p.hi == 0 }

// Equal reports whether two patterns have identical width and bits.
func (p Pattern) Equal(q Pattern) bool {
	return p.width == q.width && p.lo == q.lo && p.hi == q.hi
}

// Or returns the union of two patterns of equal width.
func (p Pattern) Or(q Pattern) Pattern {
	if p.width != q.width {
		panic(fmt.Sprintf("mem: pattern width mismatch %d vs %d", p.width, q.width))
	}
	return Pattern{width: p.width, lo: p.lo | q.lo, hi: p.hi | q.hi}
}

// And returns the intersection of two patterns of equal width.
func (p Pattern) And(q Pattern) Pattern {
	if p.width != q.width {
		panic(fmt.Sprintf("mem: pattern width mismatch %d vs %d", p.width, q.width))
	}
	return Pattern{width: p.width, lo: p.lo & q.lo, hi: p.hi & q.hi}
}

// AndNot returns the bits set in p but not q (p &^ q).
func (p Pattern) AndNot(q Pattern) Pattern {
	if p.width != q.width {
		panic(fmt.Sprintf("mem: pattern width mismatch %d vs %d", p.width, q.width))
	}
	return Pattern{width: p.width, lo: p.lo &^ q.lo, hi: p.hi &^ q.hi}
}

// Rotate returns the pattern rotated left by k block positions (mod width).
// Rotation re-aligns a pattern recorded relative to one trigger offset so it
// can be replayed relative to another; SMS with PC+offset indexing stores
// patterns rotated to the trigger offset so that one PHT entry serves every
// alignment of the same footprint.
func (p Pattern) Rotate(k int) Pattern {
	w := p.width
	k = ((k % w) + w) % w
	if k == 0 {
		return p
	}
	// Word-width fast paths: every paper geometry has a power-of-two
	// width ≤ 64 or exactly 128, so rotation is two shifts, not a
	// per-bit loop. (Rotation runs once per PHT store/lookup, which is
	// once per generation event — squarely on the training hot path.)
	if w <= 64 {
		mask := ^uint64(0) >> (64 - uint(w))
		lo := (p.lo<<uint(k) | p.lo>>uint(w-k)) & mask
		return Pattern{width: w, lo: lo}
	}
	if w == 128 {
		var lo, hi uint64
		if k < 64 {
			lo = p.lo<<uint(k) | p.hi>>uint(64-k)
			hi = p.hi<<uint(k) | p.lo>>uint(64-k)
		} else if k == 64 {
			lo, hi = p.hi, p.lo
		} else {
			lo = p.hi<<uint(k-64) | p.lo>>uint(128-k)
			hi = p.lo<<uint(k-64) | p.hi>>uint(128-k)
		}
		return Pattern{width: w, lo: lo, hi: hi}
	}
	out := NewPattern(w)
	for i := 0; i < w; i++ {
		if p.Test(i) {
			out.Set((i + k) % w)
		}
	}
	return out
}

// Bits returns the indices of set bits in ascending order.
func (p Pattern) Bits() []int {
	out := make([]int, 0, p.PopCount())
	for i := 0; i < p.width; i++ {
		if p.Test(i) {
			out = append(out, i)
		}
	}
	return out
}

// String renders the pattern LSB-first as a bit string, e.g. "1011" for a
// 4-block region whose blocks 0, 2 and 3 were accessed. This matches the
// left-to-right block order used in the paper's Figure 2 walkthrough.
func (p Pattern) String() string {
	var sb strings.Builder
	sb.Grow(p.width)
	for i := 0; i < p.width; i++ {
		if p.Test(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// ParsePattern parses the String representation back into a Pattern.
func ParsePattern(s string) (Pattern, error) {
	if len(s) == 0 || len(s) > MaxPatternWidth {
		return Pattern{}, fmt.Errorf("mem: pattern string length %d out of range", len(s))
	}
	p := NewPattern(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '1':
			p.Set(i)
		case '0':
		default:
			return Pattern{}, fmt.Errorf("mem: invalid pattern character %q at %d", s[i], i)
		}
	}
	return p, nil
}

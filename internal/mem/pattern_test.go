package mem

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPatternBounds(t *testing.T) {
	for _, w := range []int{1, 2, 32, 64, 65, 127, 128} {
		p := NewPattern(w)
		if p.Width() != w {
			t.Errorf("width %d: got %d", w, p.Width())
		}
		if !p.Empty() {
			t.Errorf("width %d: new pattern not empty", w)
		}
	}
	for _, w := range []int{0, -1, 129, 1 << 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPattern(%d) did not panic", w)
				}
			}()
			NewPattern(w)
		}()
	}
}

func TestPatternSetClearTest(t *testing.T) {
	p := NewPattern(128)
	for _, i := range []int{0, 1, 63, 64, 65, 127} {
		p.Set(i)
		if !p.Test(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if got := p.PopCount(); got != 6 {
		t.Errorf("PopCount = %d, want 6", got)
	}
	p.Clear(63)
	p.Clear(64)
	if p.Test(63) || p.Test(64) {
		t.Error("clear failed across word boundary")
	}
	if got := p.PopCount(); got != 4 {
		t.Errorf("PopCount after clear = %d, want 4", got)
	}
}

func TestPatternOutOfRangePanics(t *testing.T) {
	p := NewPattern(32)
	for _, i := range []int{-1, 32, 64} {
		for name, f := range map[string]func(){
			"Test":  func() { p.Test(i) },
			"Set":   func() { p.Set(i) },
			"Clear": func() { p.Clear(i) },
		} {
			func() {
				defer func() {
					r := recover()
					err, ok := r.(error)
					want := fmt.Sprintf("mem: pattern bit %d out of range [0,32)", i)
					if !ok || err.Error() != want {
						t.Errorf("%s(%d) panicked with %v, want %q", name, i, r, want)
					}
				}()
				f()
			}()
		}
	}
}

func TestPatternOf(t *testing.T) {
	p := PatternOf(8, 0, 2, 3)
	if p.String() != "10110000" {
		t.Errorf("String = %q, want 10110000", p.String())
	}
	if got := p.Bits(); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Bits = %v", got)
	}
}

func TestPatternBoolOps(t *testing.T) {
	a := PatternOf(64, 1, 2, 3)
	b := PatternOf(64, 3, 4)
	if got := a.Or(b); got.PopCount() != 4 {
		t.Errorf("Or popcount = %d", got.PopCount())
	}
	if got := a.And(b); !got.Equal(PatternOf(64, 3)) {
		t.Errorf("And = %v", got)
	}
	if got := a.AndNot(b); !got.Equal(PatternOf(64, 1, 2)) {
		t.Errorf("AndNot = %v", got)
	}
}

func TestPatternOpWidthMismatchPanics(t *testing.T) {
	a := NewPattern(32)
	b := NewPattern(64)
	for name, f := range map[string]func(){
		"Or":     func() { a.Or(b) },
		"And":    func() { a.And(b) },
		"AndNot": func() { a.AndNot(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched widths did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPatternRotate(t *testing.T) {
	p := PatternOf(8, 0, 1)
	got := p.Rotate(3)
	if !got.Equal(PatternOf(8, 3, 4)) {
		t.Errorf("Rotate(3) = %v", got)
	}
	// Rotation by width is identity.
	if !p.Rotate(8).Equal(p) {
		t.Error("Rotate(width) != identity")
	}
	// Negative rotation wraps.
	if !p.Rotate(-1).Equal(PatternOf(8, 7, 0)) {
		t.Errorf("Rotate(-1) = %v", p.Rotate(-1))
	}
}

func TestPatternRotateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		w := 1 + rng.Intn(MaxPatternWidth)
		p := NewPattern(w)
		for i := 0; i < w; i++ {
			if rng.Intn(2) == 0 {
				p.Set(i)
			}
		}
		k := rng.Intn(3*w) - w
		if got := p.Rotate(k).Rotate(-k); !got.Equal(p) {
			t.Fatalf("w=%d k=%d: rotate round trip failed: %v vs %v", w, k, got, p)
		}
		if got := p.Rotate(k).PopCount(); got != p.PopCount() {
			t.Fatalf("rotation changed popcount: %d vs %d", got, p.PopCount())
		}
	}
}

func TestPatternStringParseRoundTrip(t *testing.T) {
	f := func(lo, hi uint64) bool {
		p := Pattern{width: 128, lo: lo, hi: hi}
		q, err := ParsePattern(p.String())
		return err == nil && q.Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParsePatternErrors(t *testing.T) {
	if _, err := ParsePattern(""); err == nil {
		t.Error("empty string accepted")
	}
	if _, err := ParsePattern("10x1"); err == nil {
		t.Error("invalid character accepted")
	}
	long := make([]byte, MaxPatternWidth+1)
	for i := range long {
		long[i] = '0'
	}
	if _, err := ParsePattern(string(long)); err == nil {
		t.Error("overlong string accepted")
	}
}

func TestPatternPaperExample(t *testing.T) {
	// Figure 2 of the paper: accesses to A+3, A+2, A+0 in a 4-block region
	// yield pattern 1011 (LSB-first: blocks 0, 2, 3).
	p := NewPattern(4)
	for _, off := range []int{3, 2, 0} {
		p.Set(off)
	}
	if p.String() != "1011" {
		t.Errorf("paper example pattern = %q, want 1011", p.String())
	}
}

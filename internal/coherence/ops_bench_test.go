package coherence

import (
	"testing"

	"repro/internal/mem"
)

// Per-call costs of the two operations the simulator drives once per
// record (AccessInto) and once per stream request (StreamInto), one
// sub-benchmark per outcome. Each cycles CPU 0 over a handful of blocks
// chosen to force the named outcome on every call, so every simulated
// array stays resident in the host cache and the numbers isolate the
// code path rather than the memory system underneath it. The setup
// asserts the outcome before timing; all legs must report 0 allocs/op.

// opBlocks returns n block addresses that share L1 set 0. With stride
// set to the L2 set count they also share L2 set 0 (each call misses
// both levels once n exceeds the L2 associativity); with the L1 set
// count they spread over distinct L2 sets and stay L2-resident.
func opBlocks(s *System, n, stride int) []mem.Addr {
	blocks := make([]mem.Addr, n)
	for i := range blocks {
		blocks[i] = mem.Addr(i * stride * s.cfg.L1.BlockSize)
	}
	return blocks
}

// opCycle builds a System and the block cycle for an outcome.
// "l2hit" cycles 4×L1-assoc blocks through one L1 set (always an L1
// miss) that land in distinct L2 sets (always an L2 hit); "offchip"
// cycles 2×L2-assoc blocks through one L2 set (always a miss at both).
func opCycle(b *testing.B, outcome string) (*System, []mem.Addr) {
	s := MustNew(DefaultConfig())
	l1Sets, l2Sets := s.cfg.L1.Sets(), s.cfg.L2.Sets()
	switch outcome {
	case "present", "l1hit":
		return s, opBlocks(s, 1, 1)
	case "l2hit":
		n := 4 * s.cfg.L1.Assoc
		if n*l1Sets > l2Sets {
			b.Fatalf("L2 has %d sets, too few to hold %d blocks of one L1 set apart", l2Sets, n)
		}
		return s, opBlocks(s, n, l1Sets)
	default:
		return s, opBlocks(s, 2*s.cfg.L2.Assoc, l2Sets)
	}
}

func BenchmarkStreamInto(b *testing.B) {
	for _, outcome := range []string{"present", "l2hit", "offchip"} {
		b.Run(outcome, func(b *testing.B) {
			s, blocks := opCycle(b, outcome)
			var res StreamResult
			// Two passes warm the directory and L2, then one checked
			// pass confirms every call takes the named path.
			for pass := 0; pass < 3; pass++ {
				for _, a := range blocks {
					s.StreamInto(&res, 0, a)
					if pass < 2 {
						continue
					}
					got := "offchip"
					if res.AlreadyPresent {
						got = "present"
					} else if res.L2Hit {
						got = "l2hit"
					}
					if got != outcome {
						b.Fatalf("stream of %#x: %s, want %s", a, got, outcome)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				s.StreamInto(&res, 0, blocks[j])
				if j++; j == len(blocks) {
					j = 0
				}
			}
		})
	}
}

func BenchmarkAccessInto(b *testing.B) {
	for _, outcome := range []string{"l1hit", "l2hit", "miss"} {
		b.Run(outcome, func(b *testing.B) {
			s, blocks := opCycle(b, outcome)
			var res AccessResult
			for pass := 0; pass < 3; pass++ {
				for _, a := range blocks {
					s.AccessInto(&res, 0, a, false)
					if pass < 2 {
						continue
					}
					got := "miss"
					if res.L1Hit {
						got = "l1hit"
					} else if res.L2Hit {
						got = "l2hit"
					}
					if got != outcome {
						b.Fatalf("access of %#x: %s, want %s", a, got, outcome)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				s.AccessInto(&res, 0, blocks[j], false)
				if j++; j == len(blocks) {
					j = 0
				}
			}
		})
	}
}

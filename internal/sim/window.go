package sim

import (
	"repro/internal/coherence"
	"repro/internal/trace"
)

// Window is one fixed-size instruction window's memory behaviour, the
// input to the interval timing model (package timing). Misses are grouped
// into MLP clusters per CPU: consecutive misses closer together than
// overlapGap instructions are assumed to overlap in the out-of-order
// core's window, so a group costs one memory round-trip. This is how the
// model reproduces the paper's §4.7 observations that OLTP's spatially-
// correlated misses already overlap (low SMS gain despite coverage) and
// that em3d's bursts exceed SMS coverage.
type Window struct {
	// Instructions committed in the window (all CPUs).
	Instructions uint64
	// OffChipReads / OffChipReadGroups: off-chip demand read misses and
	// their serialization groups.
	OffChipReads, OffChipReadGroups uint64
	// OnChipReads / OnChipReadGroups: reads served by L2 after an L1
	// miss, and their serialization groups.
	OnChipReads, OnChipReadGroups uint64
	// OffChipWrites: write misses going off-chip (store buffer load).
	OffChipWrites uint64
	// CoveredReads: would-be off-chip read misses eliminated by the
	// prefetcher in this window.
	CoveredReads uint64
}

// overlapGap is the instruction distance within which two misses are
// treated as overlapped (issued from the same instruction window by the
// out-of-order core). It matches the paper's 256-entry ROB: two misses
// less than a reorder-buffer's worth of instructions apart can be
// outstanding together.
const overlapGap = 256

// maxMLP caps misses per overlap group, mirroring the paper's 32-MSHR L1
// shared between demand misses and stream requests.
const maxMLP = 16

// winState is the in-flight window accumulator.
type winState struct {
	cur        Window
	startSeq   uint64
	haveStart  bool
	lastOffSeq []uint64 // per CPU, last off-chip miss Seq
	lastOnSeq  []uint64 // per CPU, last on-chip miss Seq
	offInGroup []uint64 // per CPU, misses in the current off-chip group
	onInGroup  []uint64 // per CPU, misses in the current on-chip group
}

func (r *Runner) windowAccount(rec trace.Record, acc *coherence.AccessResult) {
	w := &r.win
	if w.lastOffSeq == nil {
		n := r.cfg.Coherence.CPUs
		w.lastOffSeq = make([]uint64, n)
		w.lastOnSeq = make([]uint64, n)
		w.offInGroup = make([]uint64, n)
		w.onInGroup = make([]uint64, n)
	}
	if !w.haveStart {
		w.startSeq = rec.Seq
		w.haveStart = true
	}
	if rec.Seq-w.startSeq >= r.cfg.WindowInstructions {
		r.flushWindow()
		w.startSeq = rec.Seq
		w.haveStart = true
	}
	cpu := int(rec.CPU)

	if rec.IsWrite() {
		if acc.Missed(coherence.LevelL2) {
			w.cur.OffChipWrites++
		} else if (acc.L1PrefetchHit && acc.L1PrefetchOffChip) || acc.L2PrefetchHit {
			// A store whose first touch hits a streamed block that was
			// fetched from off-chip still needs write permission: the
			// SMS stream brought in a read-only copy, so the upgrade
			// occupies the store buffer like the miss it replaced
			// ("read-only blocks fetched by SMS must all be upgraded",
			// §4.7 — the Qry 1 pathology). Streams satisfied on-chip
			// are not charged: the base system's write would have been
			// an on-chip hit as well.
			w.cur.OffChipWrites++
		}
		return
	}
	switch {
	case acc.Missed(coherence.LevelL2):
		w.cur.OffChipReads++
		w.offInGroup[cpu]++
		if w.lastOffSeq[cpu] == 0 || rec.Seq-w.lastOffSeq[cpu] > overlapGap || w.offInGroup[cpu] > maxMLP {
			w.cur.OffChipReadGroups++
			w.offInGroup[cpu] = 1
		}
		w.lastOffSeq[cpu] = rec.Seq
	case acc.Missed(coherence.LevelL1):
		w.cur.OnChipReads++
		w.onInGroup[cpu]++
		if w.lastOnSeq[cpu] == 0 || rec.Seq-w.lastOnSeq[cpu] > overlapGap || w.onInGroup[cpu] > maxMLP {
			w.cur.OnChipReadGroups++
			w.onInGroup[cpu] = 1
		}
		w.lastOnSeq[cpu] = rec.Seq
	}
	if acc.L2PrefetchHit || (acc.L1PrefetchHit && acc.L1PrefetchOffChip) {
		w.cur.CoveredReads++
	}
}

// flushWindow closes the current window, if any instructions elapsed.
func (r *Runner) flushWindow() {
	w := &r.win
	if !w.haveStart {
		return
	}
	w.cur.Instructions = r.cfg.WindowInstructions
	r.res.Windows = append(r.res.Windows, w.cur)
	w.cur = Window{}
	w.haveStart = false
}

package core

import "repro/internal/mem"

// RegisterFile is the bank of prediction registers that drives streaming
// (§3.2): each armed register holds a predicted spatial pattern and its
// region base address; stream requests are drawn from the registers in
// round-robin order, clearing pattern bits as blocks are requested; a
// register frees itself when its pattern is exhausted.
//
// RegisterFile is shared by the AGT-based SMS engine and by the sectored
// training-structure variants (package sectored), which differ only in how
// they observe generations, not in how they stream.
type RegisterFile struct {
	geo      mem.Geometry
	regs     []PredictionRegister
	next     int
	capacity int

	armed       uint64
	issued      uint64
	overwritten uint64

	out []mem.Addr // reused Next result buffer
}

// NewRegisterFile builds a register file with the given capacity
// (paper default: 16 outstanding stream contexts). capacity <= 0 means
// effectively unbounded.
func NewRegisterFile(geo mem.Geometry, capacity int) *RegisterFile {
	if capacity <= 0 {
		capacity = 1 << 30
	}
	return &RegisterFile{geo: geo, capacity: capacity}
}

// Arm loads a prediction into a free register, overwriting the register at
// the round-robin cursor when all are busy. Empty patterns are ignored.
func (rf *RegisterFile) Arm(base mem.Addr, p mem.Pattern) {
	if p.Empty() {
		return
	}
	rf.armed++
	if len(rf.regs) < rf.capacity {
		rf.regs = append(rf.regs, PredictionRegister{Base: base, Pattern: p})
		return
	}
	rf.overwritten++
	rf.regs[rf.next%len(rf.regs)] = PredictionRegister{Base: base, Pattern: p}
}

// Next pops up to max predicted block addresses round-robin across the
// armed registers. The returned slice aliases a buffer owned by the
// register file, valid until the next call — the stream-issue loop
// consumes it immediately, so steady-state streaming never allocates.
//
// The empty check inlines into callers: most calls find no armed
// register.
func (rf *RegisterFile) Next(max int) []mem.Addr {
	if max <= 0 || len(rf.regs) == 0 {
		return nil
	}
	return rf.pop(max)
}

// pop is Next's body for at least one armed register.
func (rf *RegisterFile) pop(max int) []mem.Addr {
	out := rf.out[:0]
	for len(out) < max && len(rf.regs) > 0 {
		if rf.next >= len(rf.regs) {
			rf.next = 0
		}
		reg := &rf.regs[rf.next]
		if i := reg.Pattern.FirstSet(); i >= 0 {
			reg.Pattern.Clear(i)
			out = append(out, rf.geo.BlockOfRegion(reg.Base, i))
			rf.issued++
		}
		if reg.Pattern.Empty() {
			rf.regs[rf.next] = rf.regs[len(rf.regs)-1]
			rf.regs = rf.regs[:len(rf.regs)-1]
		} else {
			rf.next++
		}
	}
	rf.out = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// Active returns the number of armed registers.
func (rf *RegisterFile) Active() int { return len(rf.regs) }

// Armed returns the number of predictions loaded.
func (rf *RegisterFile) Armed() uint64 { return rf.armed }

// Issued returns the number of stream requests emitted.
func (rf *RegisterFile) Issued() uint64 { return rf.issued }

// Overwritten returns the number of live registers clobbered by newer
// predictions.
func (rf *RegisterFile) Overwritten() uint64 { return rf.overwritten }

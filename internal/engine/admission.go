package engine

// Admission order: Execute runs a grid's cells on a pool of at most
// Config.Parallel workers, which take the cells one at a time in
// admissionOrder (below): workload by workload in plan order, each
// workload's first cell one workload ahead, so the next trace generates
// while the previous workload's cells replay it from the memo. Every
// simulation still takes one of the engine's Parallel slots (Engine.sem),
// which bounds concurrent grids and bare runs together; a channel serves
// its blocked senders first in, first out, so slots go to cells in the
// order they asked. An engine with a cluster coordinator installed
// starts every cell at once instead, since the coordinator places
// standard runs on its workers, not in local slots.
//
// The order also bounds the trace memo: each queued or running cell
// holds its workload's memo entry (traceCache.hold), and the entry is
// dropped as soon as the last holder settles. A grid therefore keeps two
// or three traces in memory at a time. A later run of the workload
// replays the store's trace tier when a store is attached, and
// regenerates the trace otherwise.

// gridCell is one cell of an executing plan: a deduplicated standard run
// (n) or a custom cell (the index into Plan.Customs).
type gridCell struct {
	workload string
	n        *node
	custom   int
}

// admissionOrder sequences a plan's cells for admission. Cells are
// grouped by workload in order of first appearance, standard runs before
// custom cells within a group. Each group's first cell is moved one
// group ahead, so the order reads
//
//	W1[0] W2[0] W1[1:] W3[0] W2[1:] W4[0] W3[1:] ... Wn[1:]
//
// and a workload's trace is generated (or opened) while the previous
// workload's remaining cells run.
func admissionOrder(c *compiled, customs []Custom) []gridCell {
	var groups [][]gridCell
	index := make(map[string]int)
	add := func(gc gridCell) {
		i, ok := index[gc.workload]
		if !ok {
			i = len(groups)
			index[gc.workload] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], gc)
	}
	for _, n := range c.nodes {
		add(gridCell{workload: n.workload, n: n})
	}
	for i, cu := range customs {
		add(gridCell{workload: cu.Workload, custom: i})
	}
	out := make([]gridCell, 0, len(c.nodes)+len(customs))
	for i, g := range groups {
		if i == 0 {
			out = append(out, g[0])
		}
		if i+1 < len(groups) {
			out = append(out, groups[i+1][0])
		}
		out = append(out, g[1:]...)
	}
	return out
}

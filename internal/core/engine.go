package core

import (
	"fmt"
	"sync/atomic"

	"probgraph/internal/prob"
)

// engineCell holds one slot's inference engine. NewDatabase and the
// mutations fill a cell when they create it; a snapshot load leaves it
// empty, because junction trees are the one genuinely expensive per-graph
// piece of a load and a serving process queries a small, hot subset of
// slots long before it touches every graph. View.Engine fills an empty
// cell on first use.
//
// Copy-on-write successors share the cells of the slots they do not
// change, so an engine is resolved once for all of them; a mutation that
// changes a slot gives its successor a new cell (ReplaceGraph) or none
// (RemoveGraph), and the old cell — resolved or not — stays reachable
// only from the views pinned before it.
type engineCell = atomic.Pointer[prob.Engine]

func newEngineCell(e *prob.Engine) *engineCell {
	c := new(engineCell)
	c.Store(e)
	return c
}

// Engine returns slot gi's inference engine, building it on first use for
// slots loaded from a snapshot. Safe for concurrent use: resolvers may
// race to build the same engine; construction is deterministic, the CAS
// keeps one winner, and the loser's work is discarded.
func (v *View) Engine(gi int) (*prob.Engine, error) {
	cell := v.engines[gi]
	if cell == nil {
		return nil, fmt.Errorf("core: graph %d has no engine", gi)
	}
	if e := cell.Load(); e != nil {
		return e, nil
	}
	e, err := prob.NewEngine(v.Graphs[gi])
	if err != nil {
		return nil, fmt.Errorf("core: graph %d engine: %w", gi, err)
	}
	cell.CompareAndSwap(nil, e)
	return cell.Load(), nil
}

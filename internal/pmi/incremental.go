package pmi

import (
	"fmt"
	"slices"

	"probgraph/internal/iso"
	"probgraph/internal/prob"
)

// This file holds the copy-on-write mutation constructors of the index.
// An Index is immutable once published: WithColumn, WithFreedColumns,
// WithReplacedColumn and Select each return a new Index that shares every
// untouched column with its predecessor, so queries holding an older Index
// (a pinned generation view, see internal/core) never observe the
// mutation. The feature vocabulary is never re-mined — the standard
// trade-off for incremental maintenance of feature-based graph indexes
// (pruning power for new graphs is bounded by the existing features;
// rebuild periodically if the data distribution drifts).
//
// The index keeps no record of which slots are live: that is the
// structural index's dead mask (simsearch.Index), which internal/core
// reads. A removed graph's column is nil only so its entries are freed.

// column computes graph gi's SIP-bound column against every indexed
// feature that contained reports as embedded in it — the miner's support
// lists during a build, a fresh isomorphism test (embeds) for a graph
// arriving later. It runs in full before any structural change happens, so
// a failed computation leaves nothing to undo.
func (idx *Index) column(pg *prob.PGraph, eng *prob.Engine, gi int, contained func(fi int) bool) ([]Entry, error) {
	b := &graphBuilder{opt: idx.Opt, pg: pg, eng: eng}
	column := make([]Entry, len(idx.Features))
	for fi, fg := range idx.Features {
		if !contained(fi) {
			continue
		}
		entry, err := b.bounds(fg)
		if err != nil {
			return nil, fmt.Errorf("pmi: feature %d on graph %d: %w", fi, gi, err)
		}
		column[fi] = entry
	}
	return column, nil
}

// embeds is column's containment test for a graph the miner never saw.
func (idx *Index) embeds(pg *prob.PGraph) func(fi int) bool {
	return func(fi int) bool { return iso.Exists(idx.Features[fi], pg.G, nil) }
}

// clone returns a shallow struct copy — the starting point of every
// copy-on-write constructor.
func (idx *Index) clone() *Index {
	cp := *idx
	return &cp
}

// WithColumn returns a new Index extended by one column: SIP bounds of
// every indexed feature against the new graph. The append reuses the
// receiver's backing array when capacity allows, writing only beyond the
// receiver's length — invisible to readers of the old Index; mutations
// form a linear chain (serialized by core's writer lock), so a backing
// slot is written at most once after becoming reachable.
func (idx *Index) WithColumn(pg *prob.PGraph, eng *prob.Engine) (*Index, error) {
	column, err := idx.column(pg, eng, len(idx.cols), idx.embeds(pg))
	if err != nil {
		return nil, err
	}
	n := idx.clone()
	n.cols = append(idx.cols, column)
	return n, nil
}

// WithFreedColumns returns a new Index with the listed columns freed
// (nil): Lookup is never called for a removed graph, At reads its entries
// as the paper's ⟨0⟩ and EncodeSnap writes them uncontained, so the dead
// graph's bounds leave the matrix, in memory and persisted, immediately.
// O(numGraphs) pointers, no entry is copied.
func (idx *Index) WithFreedColumns(ids ...int) *Index {
	if len(ids) == 0 {
		return idx
	}
	n := idx.clone()
	n.cols = slices.Clone(idx.cols)
	for _, gi := range ids {
		n.cols[gi] = nil
	}
	return n
}

// WithReplacedColumn returns a new Index whose column gi holds the bounds
// of pg instead — one column swapped, every other shared.
func (idx *Index) WithReplacedColumn(gi int, pg *prob.PGraph, eng *prob.Engine) (*Index, error) {
	column, err := idx.column(pg, eng, gi, idx.embeds(pg))
	if err != nil {
		return nil, err
	}
	n := idx.clone()
	n.cols = slices.Clone(idx.cols)
	n.cols[gi] = column
	return n, nil
}

// Select returns a new Index holding the given slots' columns, in the
// given order and renumbered 0..len(slots)-1 — compaction and range
// partitioning are this one projection. Columns are shared, not copied.
func (idx *Index) Select(slots []int) *Index {
	n := idx.clone()
	n.cols = make([][]Entry, len(slots))
	for i, gi := range slots {
		n.cols[i] = idx.cols[gi]
	}
	return n
}

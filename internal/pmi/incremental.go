package pmi

import (
	"errors"
	"fmt"
	"slices"

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

// column computes graph gi's column: one cell per indexed feature, each
// from one search (see cell). A graph arriving later is searched for every
// feature (skip nil). During a build skip names the features the miner's
// support lists leave out, which are not searched; a listed feature that
// does not embed is a miner fault and fails the column. It runs in full
// before any structural change happens, so a failed computation leaves
// nothing to undo.
func (idx *Index) column(eng *prob.Engine, gi int, skip func(fi int) bool) ([]Entry, error) {
	column := make([]Entry, len(idx.Features))
	for fi, fg := range idx.Features {
		if skip != nil && skip(fi) {
			continue
		}
		entry, err := cell(eng, fg)
		if err == nil && !entry.Contained && skip != nil {
			err = errors.New("no embeddings for contained feature")
		}
		if err != nil {
			return nil, fmt.Errorf("pmi: feature %d on graph %d: %w", fi, gi, err)
		}
		column[fi] = entry
	}
	return column, nil
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
// slot is written at most once after becoming reachable. The graph is
// eng's; pg is not read.
func (idx *Index) WithColumn(pg *prob.PGraph, eng *prob.Engine) (*Index, error) {
	column, err := idx.column(eng, len(idx.cols), nil)
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
// of eng's graph instead — one column swapped, every other shared.
func (idx *Index) WithReplacedColumn(gi int, eng *prob.Engine) (*Index, error) {
	column, err := idx.column(eng, gi, nil)
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

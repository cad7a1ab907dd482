package pmi

import (
	"fmt"
	"math/rand"
	"slices"

	"probgraph/internal/iso"
	"probgraph/internal/prob"
)

// This file holds the copy-on-write mutation constructors of the index.
// An Index is immutable once published: WithColumn, WithMaskedColumn,
// WithReplacedColumn, and CompactedColumns each return a new Index that
// shares every untouched column with its predecessor, so queries holding an
// older Index (a pinned generation view, see internal/core) never observe
// the mutation. The feature vocabulary is never re-mined — the standard
// trade-off for incremental maintenance of feature-based graph indexes
// (pruning power for new graphs is bounded by the existing features;
// rebuild periodically if the data distribution drifts).

// column computes graph gi's SIP-bound column against every indexed
// feature that contained reports as embedded in it — the miner's support
// lists during a build, a fresh isomorphism test (embeds) for a graph
// arriving later. It runs in full before any structural change happens, so
// a failed computation leaves nothing to undo.
func (idx *Index) column(pg *prob.PGraph, eng *prob.Engine, gi int, contained func(fi int) bool) ([]Entry, error) {
	opt := idx.Opt.withDefaults()
	b := &graphBuilder{
		opt: opt, pg: pg, eng: eng,
		rng: rand.New(rand.NewSource(opt.Seed ^ int64(gi)*0x9e3779b97f4a7c)),
	}
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

// WithMaskedColumn returns a new Index with column gi masked: Lookup
// callers are expected never to ask for a masked (tombstoned) graph, and
// EncodeSnap writes the column as uncontained — the paper's ⟨0⟩ — so the
// dead graph's bounds leave the matrix, in memory and persisted,
// immediately. O(numGraphs) pointers, no entry is copied.
func (idx *Index) WithMaskedColumn(gi int) *Index {
	return idx.WithMaskedColumns([]int{gi})
}

// WithMaskedColumns is the bulk form of WithMaskedColumn (snapshot loads).
func (idx *Index) WithMaskedColumns(ids []int) *Index {
	if len(ids) == 0 {
		return idx
	}
	n := idx.clone()
	n.cols = slices.Clone(idx.cols)
	for _, gi := range ids {
		if n.cols[gi] != nil {
			n.cols[gi] = nil
			n.maskCount++
		}
	}
	return n
}

// WithReplacedColumn returns a new Index whose column gi holds the bounds
// of pg instead — one column swapped, every other shared; the replaced
// slot's mask, if any, is cleared.
func (idx *Index) WithReplacedColumn(gi int, pg *prob.PGraph, eng *prob.Engine) (*Index, error) {
	column, err := idx.column(pg, eng, gi, idx.embeds(pg))
	if err != nil {
		return nil, err
	}
	n := idx.clone()
	n.cols = slices.Clone(idx.cols)
	if n.cols[gi] == nil {
		n.maskCount--
	}
	n.cols[gi] = column
	return n, nil
}

// CompactedColumns returns a new Index without the masked columns:
// surviving columns keep their relative order and are renumbered
// contiguously, matching the database compaction that drops the
// tombstoned graphs.
func (idx *Index) CompactedColumns() *Index {
	if idx.maskCount == 0 {
		return idx
	}
	n := idx.clone()
	n.cols = make([][]Entry, 0, len(idx.cols)-idx.maskCount)
	for _, col := range idx.cols {
		if col != nil {
			n.cols = append(n.cols, col)
		}
	}
	n.maskCount = 0
	return n
}

// Masked reports whether column gi is masked (tombstoned).
func (idx *Index) Masked(gi int) bool { return idx.cols[gi] == nil }

// MaskedColumns returns the number of masked columns.
func (idx *Index) MaskedColumns() int { return idx.maskCount }

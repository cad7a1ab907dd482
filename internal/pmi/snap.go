package pmi

import (
	"fmt"

	"probgraph/internal/graph"
	"probgraph/internal/snapbin"
)

// The snapshot section is the feature graphs, a contained-bitmap, and the
// bounds of the contained entries as two float64 slabs (row-major,
// bit-order). Uncontained entries are implicit (the paper's ⟨0⟩). Freed
// columns (removed graphs) serialize as uncontained, so a dead graph's
// bounds leave the persisted matrix; the snapshot loader frees them again
// from the tombstone list, and save→load→save is byte-stable either way. Opt
// is not written: the snapshot loader restores it from the database's build
// options.
//
// The file is feature-major and the matrix in memory graph-major (one
// column per graph, see Index), so unlike the structural slabs the PMI is
// materialized at decode time — one memcpy-scale transposing pass; the
// Entry layout is interleaved, so the slabs could not be aliased anyway.

// EncodeSnap appends the index to a snapshot section:
//
//	u32 nf, u32 ng
//	nf graph records (the features)
//	contained bitmap, u32 length-prefixed, bit fi*ng+gi LSB-first
//	f64 slab: lower bounds of the contained entries, row-major
//	f64 slab: upper bounds, same order
func (idx *Index) EncodeSnap(s snapbin.Encoder) {
	ng := idx.NumGraphs()
	s.U32(uint32(len(idx.Features)))
	s.U32(uint32(ng))
	for _, f := range idx.Features {
		graph.EncodeSnap(s, f)
	}
	bitmap := make([]byte, (len(idx.Features)*ng+7)/8)
	var lo, hi []float64
	for fi := range idx.Features {
		for gi := range idx.cols {
			if e := idx.At(fi, gi); e.Contained {
				bit := fi*ng + gi
				bitmap[bit/8] |= 1 << (bit % 8)
				lo = append(lo, e.Lower)
				hi = append(hi, e.Upper)
			}
		}
	}
	s.Bytes(bitmap)
	s.Align8()
	s.F64s(lo)
	s.F64s(hi)
}

// DecodeSnap reads an index written by EncodeSnap. wantCols is the
// graph count the caller knows from the enclosing snapshot; it is
// validated before any row is allocated, so a corrupt header cannot force
// a huge allocation.
func DecodeSnap(c snapbin.Decoder, wantCols int) (*Index, error) {
	nf := c.Int()
	ng := c.Int()
	if c.Err() != nil {
		return nil, fmt.Errorf("pmi: snapshot header: %w", c.Err())
	}
	if ng != wantCols {
		return nil, fmt.Errorf("pmi: index covers %d graphs, snapshot has %d", ng, wantCols)
	}
	idx := &Index{cols: make([][]Entry, ng)}
	for fi := 0; fi < nf; fi++ {
		fg, err := graph.DecodeSnap(c)
		if err != nil {
			return nil, fmt.Errorf("pmi: feature %d: %w", fi, err)
		}
		idx.Features = append(idx.Features, fg)
	}
	bitmap := c.Bytes()
	c.Align8()
	lo := c.F64s()
	hi := c.F64s()
	if c.Err() != nil {
		return nil, fmt.Errorf("pmi: snapshot payload: %w", c.Err())
	}
	if len(bitmap) != (nf*ng+7)/8 {
		return nil, fmt.Errorf("pmi: bitmap has %d bytes, want %d", len(bitmap), (nf*ng+7)/8)
	}
	contained := 0
	for _, b := range bitmap {
		for ; b != 0; b &= b - 1 {
			contained++
		}
	}
	if len(lo) != contained || len(hi) != contained {
		return nil, fmt.Errorf("pmi: %d contained bits but %d/%d bounds", contained, len(lo), len(hi))
	}
	for gi := range idx.cols {
		idx.cols[gi] = make([]Entry, nf)
	}
	next := 0
	for fi := 0; fi < nf; fi++ {
		for gi := 0; gi < ng; gi++ {
			bit := fi*ng + gi
			if bitmap[bit/8]&(1<<(bit%8)) != 0 {
				idx.cols[gi][fi] = Entry{Contained: true, Lower: lo[next], Upper: hi[next]}
				next++
			}
		}
	}
	return idx, nil
}

package simsearch

import (
	"fmt"

	"probgraph/internal/graph"
	"probgraph/internal/snapbin"
)

// The snapshot section persists the counting features and the count
// matrix: in the binary encoding the flat slab lands in the file exactly as
// it sits in memory, so a loader on a little-endian host points the Index
// straight at the mapping. Everything decoded from untrusted input is
// validated (slab size, counts within [0, CountCap]) before the Index is
// returned, so a corrupt file errors out instead of panicking a later scan.

// EncodeSnap appends the index to a snapshot section:
//
//	u32 nf, u32 ng, u32 0, u32 pad
//	nf graph records (the counting features)
//	i32 slab: flat count matrix (ng*nf)
//	u32 0
//
// The two zero words are where older writers put the geometry of tables
// they derived from the counts and appended here; DecodeSnap reads past
// both.
func (ix *Index) EncodeSnap(s snapbin.Encoder) {
	s.U32(uint32(len(ix.Features)))
	s.U32(uint32(len(ix.dbc)))
	s.U32(0)
	s.U32(0)
	for _, f := range ix.Features {
		graph.EncodeSnap(s, f)
	}
	s.Align8()
	s.I32s(ix.counts)
	s.U32(0)
}

// DecodeSnap reads an index written by EncodeSnap and re-binds it to dbc,
// which must be the same certain graphs (in the same order) the index was
// built from. From a binary snapshot on a little-endian host the count slab
// aliases the input bytes — with an mmap'd snapshot it stays on disk until
// a scan touches it.
func DecodeSnap(c snapbin.Decoder, dbc []*graph.Graph) (*Index, error) {
	nf := c.Int()
	ng := c.Int()
	c.U32() // 0, or an older writer's table width: unused either way
	c.U32() // pad
	if c.Err() != nil {
		return nil, fmt.Errorf("simsearch: snapshot header: %w", c.Err())
	}
	if ng != len(dbc) {
		return nil, fmt.Errorf("simsearch: index covers %d graphs, database has %d", ng, len(dbc))
	}
	ix := &Index{dbc: dbc}
	for fi := 0; fi < nf; fi++ {
		f, err := graph.DecodeSnap(c)
		if err != nil {
			return nil, fmt.Errorf("simsearch: feature %d: %w", fi, err)
		}
		ix.Features = append(ix.Features, f)
	}
	c.Align8()
	ix.counts = c.I32s()
	if c.Err() != nil {
		return nil, fmt.Errorf("simsearch: counts: %w", c.Err())
	}
	if len(ix.counts) != ng*nf {
		return nil, fmt.Errorf("simsearch: count slab has %d entries, want %d", len(ix.counts), ng*nf)
	}
	for _, v := range ix.counts {
		if v < 0 || v > CountCap {
			return nil, fmt.Errorf("simsearch: count %d outside [0,%d]", v, CountCap)
		}
	}
	// Older writers appended posting shards (u32 lo, u32 n, three i32
	// slabs each) derived from the counts. They are read past, never
	// looked at: the counts above are the index.
	for si, nshards := 0, c.Int(); si < nshards && c.Err() == nil; si++ {
		c.U32()
		c.U32()
		c.I32s()
		c.I32s()
		c.I32s()
	}
	if c.Err() != nil {
		return nil, fmt.Errorf("simsearch: records after the counts: %w", c.Err())
	}
	return ix, nil
}

package simsearch

import (
	"fmt"

	"probgraph/internal/graph"
	"probgraph/internal/snapbin"
)

// The snapshot section persists the postings shards beside the counts: in
// the binary encoding the flat slabs land in the file exactly as they sit
// in memory, so a loader on a little-endian host points the Index straight
// at the mapping — counts, offset tables and posting slabs all zero-copy.
// Everything decoded from untrusted input is validated (counts within
// [0, CountCap], shard geometry, slab entries in range) before the Index
// is returned, so a corrupt file errors out instead of panicking a later
// scan.

// EncodeSnap appends the index to a snapshot section:
//
//	u32 nf, u32 ng, u32 shardSize, u32 pad
//	nf graph records (the counting features)
//	i32 slab: flat count matrix (ng*nf)
//	u32 shard count; per shard: u32 lo, u32 n, i32 slabs lvlOff/entOff/slab
func (ix *Index) EncodeSnap(s snapbin.Encoder) {
	s.U32(uint32(len(ix.Features)))
	s.U32(uint32(len(ix.dbc)))
	s.U32(uint32(ix.shardSize))
	s.U32(0)
	for _, f := range ix.Features {
		graph.EncodeSnap(s, f)
	}
	s.Align8()
	s.I32s(ix.counts)
	s.U32(uint32(len(ix.shards)))
	for _, sh := range ix.shards {
		s.U32(uint32(sh.lo))
		s.U32(uint32(sh.n))
		s.I32s(sh.lvlOff)
		s.I32s(sh.entOff)
		s.I32s(sh.slab)
	}
}

// DecodeSnap reads an index written by EncodeSnap and re-binds it to dbc,
// which must be the same certain graphs (in the same order) the index was
// built from. From a binary snapshot on a little-endian host the count and
// posting slabs alias the input bytes — with an mmap'd snapshot the
// postings stay on disk until a scan touches them.
func DecodeSnap(c snapbin.Decoder, dbc []*graph.Graph) (*Index, error) {
	nf := c.Int()
	ng := c.Int()
	shardSize := c.Int()
	c.U32() // pad
	if c.Err() != nil {
		return nil, fmt.Errorf("simsearch: snapshot header: %w", c.Err())
	}
	if ng != len(dbc) {
		return nil, fmt.Errorf("simsearch: index covers %d graphs, database has %d", ng, len(dbc))
	}
	if shardSize <= 0 {
		return nil, fmt.Errorf("simsearch: bad shard size %d", shardSize)
	}
	ix := &Index{dbc: dbc, shardSize: shardSize}
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
	nshards := c.Int()
	want := (ng + shardSize - 1) / shardSize
	if nshards != want {
		return nil, fmt.Errorf("simsearch: %d shards, want %d", nshards, want)
	}
	for si := 0; si < nshards; si++ {
		sh := &shard{lo: c.Int(), n: c.Int()}
		sh.lvlOff = c.I32s()
		sh.entOff = c.I32s()
		sh.slab = c.I32s()
		if c.Err() != nil {
			return nil, fmt.Errorf("simsearch: shard %d: %w", si, c.Err())
		}
		if sh.lo != si*shardSize || sh.n != min(shardSize, ng-sh.lo) {
			return nil, fmt.Errorf("simsearch: shard %d covers [%d,%d), want aligned range", si, sh.lo, sh.lo+sh.n)
		}
		if !sh.validate(nf) {
			return nil, fmt.Errorf("simsearch: shard %d fails postings validation", si)
		}
		ix.shards = append(ix.shards, sh)
		ix.postEntries += len(sh.slab)
	}
	if c.Err() != nil {
		return nil, c.Err()
	}
	return ix, nil
}

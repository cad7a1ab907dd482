package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"probgraph/internal/dataset"
	"probgraph/internal/feature"
	"probgraph/internal/graph"
	"probgraph/internal/pmi"
	"probgraph/internal/simsearch"
	"probgraph/internal/snapbin"
)

// The snapshot is the full indexed database in one file, so a process can
// start answering queries without re-mining features or rebuilding the
// PMI. It is a sequence of sections, each a run of snapbin tokens written
// by the one encode function of the struct it holds:
//
//	options     one JSON blob of BuildOptions
//	generation  u64 generation; i32 slab of tombstoned slots, ascending
//	graphs      u32 n; n dataset pgraph records (certain graph + JPTs)
//	features    u32 nf; per feature an i32 support slab + graph record
//	struct      simsearch section (required: it holds the tombstone mask)
//	pmi         pmi section (absent when PMI is nil)
//	gids        i32 slab of slot→global-id map (range partitions only)
//
// The order is fixed, so save→load→save is byte-identical; the one file
// that re-saves differently is one whose struct section still carries the
// tables older writers derived from the counts, which the loader reads
// past and the writer no longer emits (simsearch/snap.go). The graphs
// section writes every slot, dead ones included, so graph indices — and
// therefore per-candidate query seeding — survive the round trip. A dead
// slot holds the empty graph when this process removed it and whatever the
// file held when it was loaded dead. The tombstone list restores the
// structural index's dead mask — the view's one record of which slots are
// live — and frees the dead slots' PMI columns, which the PMI section
// writes as uncontained.
//
// There are two encodings of that one token stream (see snapbin): pgsnap
// v4 binary — a section table over 8-byte-aligned payloads, which a server
// mmaps so the count matrix is used straight from the page cache — and
// pgsnap v5 text, one typed token per line, for reading and diffing.
// encode and decodeView below are the only code that knows the section
// contents; a format only supplies the Encoder or Decoder for each
// section, so the two cannot carry different fields. Floats are raw
// IEEE-754 bits in v4 and shortest-round-trip decimals in v5: both
// round-trip bitwise, so a query against the reloaded database returns
// exactly what the original would. Only the per-graph inference engines
// are rebuilt after a load — lazily, on first use per slot (see
// View.Engine); junction-tree construction is deterministic, so deferral
// changes no answer.

// section names one snapshot section in both encodings.
type section struct {
	kind uint64 // v4 section table id
	name string // v5 section marker
}

var (
	secOptions    = section{1, "options"}
	secGeneration = section{2, "generation"}
	secGraphs     = section{3, "graphs"}
	secFeatures   = section{4, "features"}
	secStruct     = section{5, "struct"}
	secPMI        = section{6, "pmi"}
	secGIDs       = section{7, "gids"}
)

// SaveAs writes this exact generation — graphs, JPTs, mined features,
// structural filter, PMI, generation, tombstones and (for a range
// partition) global ids — as one snapshot in the given format. The output
// is deterministic: same view, same bytes. LoadDatabase and OpenSnapshot
// restore it without any feature mining or bound recomputation.
func (v *View) SaveAs(w io.Writer, format SnapshotFormat) error {
	switch format {
	case SnapshotBinary:
		bw := snapbin.NewWriter()
		if err := v.encode(func(s section) snapbin.Encoder { return bw.Section(s.kind) }); err != nil {
			return err
		}
		_, err := bw.WriteTo(w)
		return err
	case SnapshotText, "": // the zero SnapshotFormat means text
		tw := snapbin.NewTextEncoder(w)
		if err := v.encode(func(s section) snapbin.Encoder { return tw.Section(s.name) }); err != nil {
			return err
		}
		return tw.Close()
	}
	return fmt.Errorf("core: unknown snapshot format %q", format)
}

// encode writes the view's sections in file order; open starts a section
// and returns the encoder for its payload.
func (v *View) encode(open func(section) snapbin.Encoder) error {
	optJSON, err := json.Marshal(v.opt)
	if err != nil {
		return fmt.Errorf("core: snapshot options: %w", err)
	}
	open(secOptions).Bytes(optJSON)

	gen := open(secGeneration)
	gen.U64(v.Generation)
	var tombs []int32
	for gi := range v.Graphs {
		if !v.Live(gi) {
			tombs = append(tombs, int32(gi))
		}
	}
	gen.I32s(tombs)

	gs := open(secGraphs)
	gs.U32(uint32(len(v.Graphs)))
	for _, pg := range v.Graphs {
		dataset.EncodePGraphSnap(gs, pg, 0)
	}

	fs := open(secFeatures)
	fs.U32(uint32(len(v.Features)))
	for _, f := range v.Features {
		fs.I32s(int32s(f.Support))
		graph.EncodeSnap(fs, f.G)
	}

	v.Struct.EncodeSnap(open(secStruct))
	v.PMI.EncodeSnap(open(secPMI))
	if v.gids != nil {
		open(secGIDs).I32s(int32s(v.gids))
	}
	return nil
}

func int32s(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// ascendingIDs converts a decoded id slab, requiring ids in [0, limit)
// and strictly ascending — the form encode writes, so a list with
// duplicates or out of order is a corrupt file, not a set to normalise.
func ascendingIDs(ids []int32, limit int, what string) ([]int, error) {
	out := make([]int, len(ids))
	for k, id := range ids {
		if id < 0 || int(id) >= limit || (k > 0 && int(id) <= out[k-1]) {
			return nil, fmt.Errorf("core: snapshot: bad %s %d (ids must be in [0,%d) and strictly ascending)", what, id, limit)
		}
		out[k] = int(id)
	}
	return out, nil
}

// LoadDatabase reads a snapshot written by SaveAs and returns a Database
// equivalent to the one that wrote it: identical graphs, features,
// structural counts, PMI bounds, generation, and tombstones.
// The format is sniffed from the first bytes, so callers never need to
// know which one they were handed. No feature mining or bound computation
// runs, and inference engines are built lazily on first use (see
// View.Engine). To map a binary snapshot instead of reading it into
// memory, use OpenSnapshot.
func LoadDatabase(r io.Reader) (*Database, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(len(snapbin.Magic)); err == nil && snapbin.IsBinary(magic) {
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("core: reading binary snapshot: %w", err)
		}
		return loadBinarySnapshot(data)
	}
	td := snapbin.NewTextDecoder(br)
	v, err := decodeView(func(s section) (snapbin.Decoder, bool) { return td, td.Section(s.name) })
	if err != nil {
		return nil, err
	}
	if err := td.Close(); err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	return newFromView(v), nil
}

// loadBinarySnapshot restores a database from pgsnap v4 bytes — typically
// an mmap'd file (OpenSnapshot) or a fully read stream (LoadDatabase).
// The returned database may alias data: slabs are pointed at it zero-copy
// where the host allows, so the caller must keep it valid (and unmodified)
// for the database's lifetime.
func loadBinarySnapshot(data []byte) (*Database, error) {
	snap, err := snapbin.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	v, err := decodeView(func(s section) (snapbin.Decoder, bool) {
		sec, ok := snap.Section(s.kind)
		return snapbin.NewCursor(sec), ok
	})
	if err != nil {
		return nil, err
	}
	return newFromView(v), nil
}

// decodeView rebuilds a view from its sections. open is asked for each
// section in file order; it returns the decoder for the section's payload
// and whether the snapshot has that section.
func decodeView(open func(section) (snapbin.Decoder, bool)) (*View, error) {
	need := func(s section) (snapbin.Decoder, error) {
		c, ok := open(s)
		if !ok {
			// A sequential decoder that failed to read the section marker
			// holds the cause (truncation, I/O error, not a snapshot).
			if err := c.Err(); err != nil {
				return nil, fmt.Errorf("core: snapshot: %w", err)
			}
			return nil, fmt.Errorf("core: snapshot: missing %s section", s.name)
		}
		return c, nil
	}
	v := &View{}

	c, err := need(secOptions)
	if err != nil {
		return nil, err
	}
	optJSON := c.Bytes()
	if c.Err() != nil {
		return nil, fmt.Errorf("core: snapshot options: %w", c.Err())
	}
	if err := json.Unmarshal(optJSON, &v.opt); err != nil {
		return nil, fmt.Errorf("core: snapshot options: %w", err)
	}

	if c, err = need(secGeneration); err != nil {
		return nil, err
	}
	v.Generation = c.U64()
	tombs32 := c.I32s()
	if c.Err() != nil {
		return nil, fmt.Errorf("core: snapshot generation: %w", c.Err())
	}

	if c, err = need(secGraphs); err != nil {
		return nil, err
	}
	n := c.Int()
	if c.Err() != nil {
		return nil, fmt.Errorf("core: snapshot graphs: %w", c.Err())
	}
	for gi := 0; gi < n; gi++ {
		pg, _, err := dataset.DecodePGraphSnap(c)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot graph %d: %w", gi, err)
		}
		v.Graphs = append(v.Graphs, pg)
		v.Certain = append(v.Certain, pg.G)
	}
	tombs, err := ascendingIDs(tombs32, n, "tombstone")
	if err != nil {
		return nil, err
	}

	if c, err = need(secFeatures); err != nil {
		return nil, err
	}
	nf := c.Int()
	if c.Err() != nil {
		return nil, fmt.Errorf("core: snapshot features: %w", c.Err())
	}
	for fi := 0; fi < nf; fi++ {
		sup32 := c.I32s()
		if c.Err() != nil {
			return nil, fmt.Errorf("core: snapshot feature %d: %w", fi, c.Err())
		}
		support := slices.Grow([]int(nil), len(sup32)) // nil when empty, as the miner and Range leave it
		for _, gi := range sup32 {
			if gi < 0 || int(gi) >= n {
				return nil, fmt.Errorf("core: snapshot feature %d: support %d out of range [0,%d)", fi, gi, n)
			}
			support = append(support, int(gi))
		}
		fg, err := graph.DecodeSnap(c)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot feature %d graph: %w", fi, err)
		}
		v.Features = append(v.Features, &feature.Feature{G: fg, Support: support})
	}
	v.Build.Features = len(v.Features)

	if c, err = need(secStruct); err != nil {
		return nil, err
	}
	ix, err := simsearch.DecodeSnap(c, v.Certain)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	v.Struct = ix.WithTombstones(tombs...)

	if c, err = need(secPMI); err != nil {
		return nil, err
	}
	idx, err := pmi.DecodeSnap(c, n)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	// The dead slots' columns, written uncontained, are freed as
	// RemoveGraph freed them.
	v.PMI = idx.WithFreedColumns(tombs...)
	v.Build.IndexSizeBytes = v.PMI.SizeBytes()

	if c, ok := open(secGIDs); ok {
		gids32 := c.I32s()
		if c.Err() != nil {
			return nil, fmt.Errorf("core: snapshot gids: %w", c.Err())
		}
		if len(gids32) != n {
			return nil, fmt.Errorf("core: snapshot: gids count %d != graphs %d", len(gids32), n)
		}
		if v.gids, err = ascendingIDs(gids32, math.MaxInt, "global id"); err != nil {
			return nil, err
		}
	}

	v.engines = make([]*engineCell, n)
	for gi := range v.engines {
		v.engines[gi] = new(engineCell)
	}
	return v, nil
}

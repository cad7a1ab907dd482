package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"probgraph/internal/graph"
	"probgraph/internal/prob"
)

// The database file format is line-oriented:
//
//	pgraph <name> [organism]
//	v <id> <label>
//	e <u> <v> <label>
//	jpt <k> <edge1> … <edgek>
//	p <2^k probabilities>
//	end
//
// Names and labels go through graph.EncodeToken: "-" stands for the empty
// string and whitespace/'#'/'%' are percent-escaped, so labels containing
// spaces, comment markers, or any unicode round-trip intact. Blank lines
// and '#' comments are ignored. Probabilities are printed with %g, which
// emits the shortest representation that parses back to the identical
// float64 — round-trips are bitwise-exact.

// Save writes the database to w.
func Save(w io.Writer, db *DB) error {
	bw := bufio.NewWriter(w)
	for gi, pg := range db.Graphs {
		org := 0
		if gi < len(db.Organism) {
			org = db.Organism[gi]
		}
		if err := EncodePGraph(bw, pg, org); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EncodePGraph writes one pgraph block (certain graph + JPT factors) in the
// database file format.
func EncodePGraph(w io.Writer, pg *prob.PGraph, organism int) error {
	if _, err := fmt.Fprintf(w, "pgraph %s %d\n", encTok(pg.G.Name()), organism); err != nil {
		return err
	}
	for v := 0; v < pg.G.NumVertices(); v++ {
		if _, err := fmt.Fprintf(w, "v %d %s\n", v, encTok(string(pg.G.VertexLabel(graph.VertexID(v))))); err != nil {
			return err
		}
	}
	for _, e := range pg.G.Edges() {
		if _, err := fmt.Fprintf(w, "e %d %d %s\n", e.U, e.V, encTok(string(e.Label))); err != nil {
			return err
		}
	}
	for _, j := range pg.JPTs {
		if _, err := fmt.Fprintf(w, "jpt %d", len(j.Edges)); err != nil {
			return err
		}
		for _, e := range j.Edges {
			fmt.Fprintf(w, " %d", e)
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, "p")
		for _, p := range j.P {
			fmt.Fprintf(w, " %g", p)
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "end")
	return err
}

func encTok(s string) string { return graph.EncodeToken(s) }

func decTok(s string) string { return graph.DecodeToken(s) }

// PGraphDecoder reads a stream of pgraph blocks.
type PGraphDecoder struct {
	sc   *bufio.Scanner
	line int
}

// maxLine is the longest line the dataset codec reads: a p row holds
// 2^k probabilities, so it is longer than the graph codec's.
const maxLine = 64 << 20

// NewPGraphDecoder returns a decoder reading from r.
func NewPGraphDecoder(r io.Reader) *PGraphDecoder {
	return &PGraphDecoder{sc: graph.NewLineScanner(r, maxLine)}
}

// Decode reads the next pgraph block, returning the graph and its organism
// tag. It returns io.EOF when the stream is exhausted.
func (d *PGraphDecoder) Decode() (*prob.PGraph, int, error) {
	var (
		b       *graph.Builder
		nv      int // vertices of the open block
		jpts    []prob.JPT
		pending *prob.JPT
		org     int
	)
	for d.sc.Scan() {
		d.line++
		text := strings.TrimSpace(d.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		switch f[0] {
		case "pgraph":
			if b != nil {
				return nil, 0, fmt.Errorf("dataset: line %d: nested pgraph", d.line)
			}
			if len(f) < 2 {
				return nil, 0, fmt.Errorf("dataset: line %d: want 'pgraph <name> [organism]'", d.line)
			}
			b = graph.NewBuilder(decTok(f[1]))
			nv, org = 0, 0
			if len(f) >= 3 {
				v, err := strconv.Atoi(f[2])
				if err != nil {
					return nil, 0, fmt.Errorf("dataset: line %d: bad organism %q", d.line, f[2])
				}
				org = v
			}
		case "v":
			if b == nil || len(f) != 3 {
				return nil, 0, fmt.Errorf("dataset: line %d: bad vertex line", d.line)
			}
			// The id is the vertex's position, as in the graph codec: a
			// block listing its vertices out of order would otherwise load
			// with their labels swapped.
			id, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, 0, fmt.Errorf("dataset: line %d: bad vertex id %q", d.line, f[1])
			}
			if id != nv {
				return nil, 0, fmt.Errorf("dataset: line %d: vertex ids must be dense and ordered, got %d want %d", d.line, id, nv)
			}
			b.AddVertex(graph.Label(decTok(f[2])))
			nv++
		case "e":
			if b == nil || len(f) != 4 {
				return nil, 0, fmt.Errorf("dataset: line %d: bad edge line", d.line)
			}
			u, err1 := strconv.Atoi(f[1])
			v, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil {
				return nil, 0, fmt.Errorf("dataset: line %d: bad endpoints", d.line)
			}
			if _, err := b.AddEdge(graph.VertexID(u), graph.VertexID(v), graph.Label(decTok(f[3]))); err != nil {
				return nil, 0, fmt.Errorf("dataset: line %d: %v", d.line, err)
			}
		case "jpt":
			if b == nil || len(f) < 3 {
				return nil, 0, fmt.Errorf("dataset: line %d: bad jpt line", d.line)
			}
			if pending != nil {
				return nil, 0, fmt.Errorf("dataset: line %d: jpt before previous probability row", d.line)
			}
			k, err := strconv.Atoi(f[1])
			if err != nil || len(f) != 2+k {
				return nil, 0, fmt.Errorf("dataset: line %d: jpt arity mismatch", d.line)
			}
			j := prob.JPT{}
			for _, tok := range f[2:] {
				e, err := strconv.Atoi(tok)
				if err != nil {
					return nil, 0, fmt.Errorf("dataset: line %d: bad edge id %q", d.line, tok)
				}
				j.Edges = append(j.Edges, graph.EdgeID(e))
			}
			pending = &j
		case "p":
			if pending == nil {
				return nil, 0, fmt.Errorf("dataset: line %d: probability row without jpt", d.line)
			}
			want := 1 << len(pending.Edges)
			if len(f)-1 != want {
				return nil, 0, fmt.Errorf("dataset: line %d: want %d probabilities, got %d", d.line, want, len(f)-1)
			}
			for _, tok := range f[1:] {
				v, err := strconv.ParseFloat(tok, 64)
				if err != nil {
					return nil, 0, fmt.Errorf("dataset: line %d: bad probability %q", d.line, tok)
				}
				pending.P = append(pending.P, v)
			}
			jpts = append(jpts, *pending)
			pending = nil
		case "end":
			if b == nil {
				return nil, 0, fmt.Errorf("dataset: line %d: stray end", d.line)
			}
			if pending != nil {
				return nil, 0, fmt.Errorf("dataset: line %d: jpt without probability row", d.line)
			}
			pg, err := prob.New(b.Build(), jpts)
			if err != nil {
				return nil, 0, fmt.Errorf("dataset: line %d: %w", d.line, err)
			}
			return pg, org, nil
		default:
			return nil, 0, fmt.Errorf("dataset: line %d: unknown directive %q", d.line, f[0])
		}
	}
	if err := d.sc.Err(); err != nil {
		return nil, 0, err
	}
	if b != nil {
		return nil, 0, fmt.Errorf("dataset: unterminated pgraph block at EOF")
	}
	return nil, 0, io.EOF
}

// Load reads a database written by Save.
func Load(r io.Reader) (*DB, error) {
	d := NewPGraphDecoder(r)
	db := &DB{}
	for {
		pg, org, err := d.Decode()
		if err == io.EOF {
			return db, nil
		}
		if err != nil {
			return nil, err
		}
		db.Graphs = append(db.Graphs, pg)
		db.Organism = append(db.Organism, org)
	}
}

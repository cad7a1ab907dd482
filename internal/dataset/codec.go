package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"

	"probgraph/internal/graph"
	"probgraph/internal/prob"
)

// The database file format is the graph block grammar of internal/graph
// with a "pgraph" header and JPT lines before end:
//
//	pgraph <name> [organism]
//	v <id> <label>
//	e <u> <v> <label>
//	jpt <k> <edge1> … <edgek>
//	p <2^k probabilities>
//	end
//
// graph.Decoder and graph.EncodeBlock read and write everything but
// the organism and the JPT lines, so names, labels, comments, vertex ids
// and endpoints follow the graph codec's rules, and a jpt edge id, like an
// endpoint, is a decimal that must fit an EdgeID. Probabilities are
// printed with %g, which emits the shortest representation that parses
// back to the identical float64: round-trips are bitwise-exact.

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
	return graph.EncodeBlock(w, pg.G, "pgraph", strconv.Itoa(organism), func(printf func(string, ...any)) {
		for _, j := range pg.JPTs {
			printf("jpt %d", len(j.Edges))
			for _, e := range j.Edges {
				printf(" %d", e)
			}
			printf("\np")
			for _, p := range j.P {
				printf(" %g", p)
			}
			printf("\n")
		}
	})
}

// PGraphDecoder reads a stream of pgraph blocks: it is the graph decoder
// of the "pgraph" header and its JPT lines.
type PGraphDecoder graph.Decoder

// pgraphLines are the directives a pgraph block adds to a graph block.
var pgraphLines = []string{"jpt", "p"}

// maxLine is the longest line the dataset codec reads: a p row holds
// 2^k probabilities, so it is longer than the graph codec's.
const maxLine = 64 << 20

// NewPGraphDecoder returns a decoder reading from r.
func NewPGraphDecoder(r io.Reader) *PGraphDecoder {
	return (*PGraphDecoder)(graph.NewBlockDecoder(r, maxLine, "pgraph", pgraphLines...))
}

// Decode reads the next pgraph block, returning the graph and its organism
// tag. It returns io.EOF when the stream is exhausted.
func (d *PGraphDecoder) Decode() (*prob.PGraph, int, error) {
	r := (*graph.Decoder)(d)
	var (
		org     int
		jpts    []prob.JPT
		pending bool // the last of jpts awaits its p row
	)
	head := func(args []string) error {
		if len(args) > 1 {
			return errors.New("want 'pgraph <name> [<organism>]'")
		}
		if len(args) > 0 {
			v, err := strconv.Atoi(args[0])
			if err != nil {
				return fmt.Errorf("bad organism %q", args[0])
			}
			org = v
		}
		return nil
	}
	jptLine := func(f []string) error {
		switch {
		case f[0] == "jpt" && pending:
			return errors.New("jpt before previous probability row")
		case f[0] == "jpt":
			if len(f) < 3 {
				return errors.New("want 'jpt <k> <edge1> … <edgek>'")
			}
			if k, err := strconv.Atoi(f[1]); err != nil || len(f) != 2+k {
				return errors.New("jpt arity mismatch")
			}
			j := prob.JPT{}
			for _, tok := range f[2:] {
				e, err := strconv.ParseInt(tok, 10, 32)
				if err != nil {
					return fmt.Errorf("bad edge id %q", tok)
				}
				j.Edges = append(j.Edges, graph.EdgeID(e))
			}
			jpts, pending = append(jpts, j), true
			return nil
		case !pending:
			return errors.New("probability row without jpt")
		}
		j := &jpts[len(jpts)-1]
		if want := 1 << len(j.Edges); len(f)-1 != want {
			return fmt.Errorf("want %d probabilities, got %d", want, len(f)-1)
		}
		for _, tok := range f[1:] {
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return fmt.Errorf("bad probability %q", tok)
			}
			j.P = append(j.P, v)
		}
		pending = false
		return nil
	}
	g, err := r.Read(head, jptLine)
	if err != nil {
		return nil, 0, err
	}
	if pending {
		return nil, 0, r.Errorf("jpt without probability row")
	}
	pg, err := prob.New(g, jpts)
	if err != nil {
		return nil, 0, r.Errorf("%w", err)
	}
	return pg, org, nil
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

package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// The text grammar of graphs is line-oriented, one block per graph:
//
//	<header> <name> [args]
//	v <id> <label>
//	e <u> <v> <label>
//	end
//
// The query format's header is "g <name>" and its blocks hold nothing
// else. The dataset format (internal/dataset) opens a block with "pgraph
// <name> [organism]" and adds its JPT lines before end. Both formats are
// read by Decoder and written by EncodeBlock, so the scanner, the line
// numbers and the error text of the grammar live here once; each format
// keeps its own line cap. The i-th v line of a block must say i: a vertex
// is placed by its position, so ids out of order would otherwise load
// with their labels swapped. An edge endpoint is a decimal that must fit a
// VertexID and name a vertex of the block: a number outside int32 is an
// error, never a wrapped id. Blank lines and '#' comments are skipped.
// Names and labels are written through EncodeToken, so arbitrary strings
// (spaces, '#', '%', unicode) round-trip intact.

// Encode writes g as a query-format block.
func Encode(w io.Writer, g *Graph) error { return EncodeBlock(w, g, "g", "", nil) }

// EncodeBlock writes g as one block: the header line "<header> <name>",
// followed by args when it is not empty, g's v and e lines, the lines
// extra prints through printf (when extra is not nil) and end. After a
// failed write nothing more is written, and EncodeBlock returns that
// write's error.
func EncodeBlock(w io.Writer, g *Graph, header, args string, extra func(printf func(format string, a ...any))) error {
	var err error
	printf := func(format string, a ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, a...)
		}
	}
	printf("%s %s", header, EncodeToken(g.Name()))
	if args != "" {
		printf(" %s", args)
	}
	printf("\n")
	for v, h := range g.vlabel {
		printf("v %d %s\n", v, EncodeToken(string(h.Value())))
	}
	for _, e := range g.edges {
		printf("e %d %d %s\n", e.U, e.V, EncodeToken(string(e.label.Value())))
	}
	if extra != nil {
		extra(printf)
	}
	printf("end\n")
	return err
}

// tokenUnsafe are the bytes that would break the line-oriented formats:
// whitespace splits tokens, '#' starts a comment, '%' is the escape
// introducer itself.
const tokenUnsafe = " \t\r\n#%"

// EncodeToken renders an arbitrary string as a single whitespace-free token
// of the line-oriented codecs. The empty string becomes "-", a literal "-"
// is escaped to stay distinguishable, and unsafe bytes are %XX
// percent-encoded. Multi-byte UTF-8 sequences contain no unsafe bytes and
// pass through verbatim.
func EncodeToken(s string) string {
	if s == "" {
		return "-"
	}
	if s == "-" {
		return "%2D"
	}
	if !strings.ContainsAny(s, tokenUnsafe) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if strings.IndexByte(tokenUnsafe, c) >= 0 {
			fmt.Fprintf(&b, "%%%02X", c)
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// DecodeToken inverts EncodeToken. Percent sequences that are not two hex
// digits are kept verbatim, so most pre-escaping files load unchanged.
// Caveat: a legacy label that happens to contain a literal "%" followed by
// two hex digits (e.g. "50%AB") is indistinguishable from an escape and is
// re-interpreted on load; such labels never occur in generated datasets,
// and re-saving any legacy file through the current codec normalizes it.
func DecodeToken(s string) string {
	if s == "-" {
		return ""
	}
	if !strings.Contains(s, "%") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			hi, okH := unhex(s[i+1])
			lo, okL := unhex(s[i+2])
			if okH && okL {
				b.WriteByte(hi<<4 | lo)
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// A Decoder reads the blocks of one text format built on the graph
// grammar.
type Decoder struct {
	sc         *bufio.Scanner
	line       int
	header     string
	directives []string
}

// maxLine is the longest line the query format reads.
const maxLine = 16 << 20

// NewDecoder returns a Decoder of the query format reading from r.
func NewDecoder(r io.Reader) *Decoder { return NewBlockDecoder(r, maxLine, "g") }

// NewBlockDecoder returns a Decoder of the blocks in r. header is the
// keyword that opens a block, and directives are the keywords of the lines
// the format adds to a block, which Read hands to its caller. The line
// buffer starts with room for one ordinary line and doubles as longer
// lines arrive, up to maxLine bytes, so what a decode allocates grows with
// the text (a request's query graph is a few hundred bytes); a longer
// line fails with bufio.ErrTooLong.
func NewBlockDecoder(r io.Reader, maxLine int, header string, directives ...string) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 512), maxLine)
	return &Decoder{sc: sc, header: header, directives: directives}
}

// Decode reads the next graph of a block without arguments or directive
// lines. It returns io.EOF when the stream is exhausted.
func (d *Decoder) Decode() (*Graph, error) { return d.Read(nil, nil) }

// Read reads the next block and returns its graph, or io.EOF when the
// stream holds no further block. head receives the header's fields after
// the name; when head is nil the header must be "<header> <name>". extra
// receives the fields of every directive line of the block. An error
// either returns is reported at its line.
func (d *Decoder) Read(head, extra func(f []string) error) (*Graph, error) {
	var b *Builder
	for d.sc.Scan() {
		d.line++
		line := strings.TrimSpace(d.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if b == nil && f[0] != d.header {
			return nil, d.Errorf("%q line outside a graph block", f[0])
		}
		var err error
		switch f[0] {
		case d.header:
			switch {
			case b != nil:
				return nil, d.Errorf("nested graph header")
			case len(f) < 2 || head == nil && len(f) > 2:
				return nil, d.Errorf("want '%s <name>'", d.header)
			case head != nil:
				err = head(f[2:])
			}
			b = NewBuilder(DecodeToken(f[1]))
		case "v":
			err = b.vertexLine(f)
		case "e":
			err = b.edgeLine(f)
		case "end":
			return b.Build(), nil
		default:
			if !slices.Contains(d.directives, f[0]) {
				return nil, d.Errorf("unknown directive %q", f[0])
			}
			err = extra(f)
		}
		if err != nil {
			return nil, d.Errorf("%w", err)
		}
	}
	if err := d.sc.Err(); err != nil {
		return nil, err
	}
	if b != nil {
		return nil, fmt.Errorf("graph codec: unterminated %s block at EOF", d.header)
	}
	return nil, io.EOF
}

// Errorf returns an error at the line Read read last.
func (d *Decoder) Errorf(format string, a ...any) error {
	return fmt.Errorf("graph codec line %d: %w", d.line, fmt.Errorf(format, a...))
}

// vertexLine adds the vertex of a "v <id> <label>" line.
func (b *Builder) vertexLine(f []string) error {
	if len(f) != 3 {
		return errors.New("want 'v <id> <label>'")
	}
	id, err := strconv.Atoi(f[1])
	if err != nil {
		return fmt.Errorf("bad vertex id %q", f[1])
	}
	if id != len(b.vlabel) {
		return fmt.Errorf("vertex ids must be dense and ordered, got %d want %d", id, len(b.vlabel))
	}
	b.AddVertex(Label(DecodeToken(f[2])))
	return nil
}

// edgeLine adds the edge of an "e <u> <v> <label>" line.
func (b *Builder) edgeLine(f []string) error {
	if len(f) != 4 {
		return errors.New("want 'e <u> <v> <label>'")
	}
	var uv [2]VertexID
	for i, s := range f[1:3] {
		n, err := strconv.ParseInt(s, 10, 32)
		if err != nil {
			return fmt.Errorf("bad endpoint %q", s)
		}
		uv[i] = VertexID(n)
	}
	_, err := b.AddEdge(uv[0], uv[1], Label(DecodeToken(f[3])))
	return err
}

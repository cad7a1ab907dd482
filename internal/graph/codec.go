package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Encode writes g in the line-oriented text format of query files, which
// the dataset file format extends:
//
//	g <name>
//	v <id> <label>
//	e <u> <v> <label>
//	end
//
// Names and labels are written through EncodeToken, so arbitrary strings —
// spaces, '#', '%', unicode — round-trip intact.
func Encode(w io.Writer, g *Graph) error {
	if _, err := fmt.Fprintf(w, "g %s\n", EncodeToken(g.Name())); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		if _, err := fmt.Fprintf(w, "v %d %s\n", v, EncodeToken(string(g.VertexLabel(VertexID(v))))); err != nil {
			return err
		}
	}
	for _, e := range g.edges {
		if _, err := fmt.Fprintf(w, "e %d %d %s\n", e.U, e.V, EncodeToken(string(e.Label))); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "end")
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

func decLabel(s string) Label {
	return Label(DecodeToken(s))
}

// Decoder reads a stream of graphs in the Encode format.
type Decoder struct {
	sc   *bufio.Scanner
	line int
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Decoder{sc: sc}
}

// Decode reads the next graph. It returns io.EOF when the stream is
// exhausted.
func (d *Decoder) Decode() (*Graph, error) {
	var b *Builder
	for d.sc.Scan() {
		d.line++
		line := strings.TrimSpace(d.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "g":
			if b != nil {
				return nil, fmt.Errorf("graph codec line %d: nested graph header", d.line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph codec line %d: want 'g <name>'", d.line)
			}
			b = NewBuilder(DecodeToken(fields[1]))
		case "v":
			if b == nil {
				return nil, fmt.Errorf("graph codec line %d: vertex outside graph block", d.line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph codec line %d: want 'v <id> <label>'", d.line)
			}
			var id int
			if _, err := fmt.Sscanf(fields[1], "%d", &id); err != nil {
				return nil, fmt.Errorf("graph codec line %d: bad vertex id %q", d.line, fields[1])
			}
			if id != len(b.vlabel) {
				return nil, fmt.Errorf("graph codec line %d: vertex ids must be dense and ordered, got %d want %d", d.line, id, len(b.vlabel))
			}
			b.AddVertex(decLabel(fields[2]))
		case "e":
			if b == nil {
				return nil, fmt.Errorf("graph codec line %d: edge outside graph block", d.line)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph codec line %d: want 'e <u> <v> <label>'", d.line)
			}
			var u, v int
			if _, err := fmt.Sscanf(fields[1], "%d", &u); err != nil {
				return nil, fmt.Errorf("graph codec line %d: bad endpoint %q", d.line, fields[1])
			}
			if _, err := fmt.Sscanf(fields[2], "%d", &v); err != nil {
				return nil, fmt.Errorf("graph codec line %d: bad endpoint %q", d.line, fields[2])
			}
			if _, err := b.AddEdge(VertexID(u), VertexID(v), decLabel(fields[3])); err != nil {
				return nil, fmt.Errorf("graph codec line %d: %v", d.line, err)
			}
		case "end":
			if b == nil {
				return nil, fmt.Errorf("graph codec line %d: 'end' outside graph block", d.line)
			}
			return b.Build(), nil
		default:
			return nil, fmt.Errorf("graph codec line %d: unknown directive %q", d.line, fields[0])
		}
	}
	if err := d.sc.Err(); err != nil {
		return nil, err
	}
	if b != nil {
		return nil, fmt.Errorf("graph codec: unterminated graph block at EOF")
	}
	return nil, io.EOF
}

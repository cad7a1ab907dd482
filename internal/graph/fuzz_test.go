package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzTokenRoundTrip pins the token escaping contract for arbitrary
// strings, including invalid UTF-8: the encoding is always a single
// non-empty token free of codec metacharacters, and decoding inverts it
// exactly. This is what lets graph names and labels carry any bytes
// through the line-oriented snapshot format.
func FuzzTokenRoundTrip(f *testing.F) {
	for _, s := range []string{
		"", "-", "a", "hello world", "%", "%%", "%zz", "50%", "50%AB",
		"a\nb", "tab\there", "ret\rurn", "#comment", "héllo", "%25",
		string([]byte{0xff, 0x00, 0x25}), "%2D", "% ", "héllo 世界", "C0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		enc := EncodeToken(s)
		if enc == "" {
			t.Fatalf("EncodeToken(%q) produced an empty token", s)
		}
		// The escape introducer '%' itself is fine in output; what must
		// never appear is anything the line scanners split or strip on.
		if strings.ContainsAny(enc, " \t\r\n#") {
			t.Fatalf("EncodeToken(%q) = %q contains codec metacharacters", s, enc)
		}
		if got := DecodeToken(enc); got != s {
			t.Fatalf("DecodeToken(EncodeToken(%q)) = %q", s, got)
		}
	})
}

// FuzzDecodeGraph holds the graph codec, which parses every request's
// graph_text, to its contract on arbitrary bytes: each Decode gives a graph
// or an error, never a panic, and a decoded graph survives Encode and
// Decode unchanged.
func FuzzDecodeGraph(f *testing.F) {
	f.Add([]byte(sixEdgeQuery))
	f.Add([]byte("g a\nv 0 A\nv 1 B\ne 0 1 x\nend\ng b\nv 0 C\nend\n"))
	f.Add([]byte("g long\nv 0 " + strings.Repeat("x", 8<<10) + "\nend\n"))
	f.Add([]byte(wrappedIDs))
	f.Fuzz(func(t *testing.T, in []byte) {
		dec := NewDecoder(bytes.NewReader(in))
		for {
			g, err := dec.Decode()
			if err != nil {
				return
			}
			var buf bytes.Buffer
			if err := Encode(&buf, g); err != nil {
				t.Fatal(err)
			}
			back, err := NewDecoder(&buf).Decode()
			if err != nil {
				t.Fatalf("re-decoding %q: %v", buf.String(), err)
			}
			if !sameGraph(g, back) {
				t.Fatalf("round trip changed the graph:\n%s", buf.String())
			}
		}
	})
}

// sameGraph reports whether a and b have the same name, vertex labels and
// edges, in the same order.
func sameGraph(a, b *Graph) bool {
	if a.Name() != b.Name() || a.NumVertices() != b.NumVertices() {
		return false
	}
	for v := range a.NumVertices() {
		if a.VertexLabel(VertexID(v)) != b.VertexLabel(VertexID(v)) {
			return false
		}
	}
	return slices.Equal(a.Edges(), b.Edges())
}

package snapbin

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// writeSample drives one token sequence through an Encoder; both encodings
// must hand readSample the same values back.
func writeSample(e Encoder) {
	e.U32(7)
	e.U64(1 << 40)
	e.Str("hello \"world\"\n#% ünï")
	e.Str("")
	e.F64(math.Pi)
	e.Bytes([]byte{0, 1, 0xff, '"', '\n'})
	e.Align8()
	e.I32s([]int32{-1, 0, 1, math.MaxInt32, math.MinInt32})
	e.I32s(nil)
	e.F64s([]float64{0.25, 0.5, 1})
}

func readSample(d Decoder) []any {
	return []any{d.U32(), d.U64(), d.Str(), d.Str(), d.F64(), bytes.Clone(d.Bytes()),
		func() any { d.Align8(); return nil }(), d.I32s(), d.I32s(), d.F64s()}
}

func TestTextMatchesBinary(t *testing.T) {
	bw := NewWriter()
	writeSample(bw.Section(1))
	var bin bytes.Buffer
	if _, err := bw.WriteTo(&bin); err != nil {
		t.Fatal(err)
	}
	snap, err := Parse(bin.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sec, _ := snap.Section(1)
	c := NewCursor(sec)
	want := readSample(c)
	if c.Err() != nil {
		t.Fatal(c.Err())
	}

	var text bytes.Buffer
	te := NewTextEncoder(&text)
	writeSample(te.Section("sample"))
	if err := te.Close(); err != nil {
		t.Fatal(err)
	}
	td := NewTextDecoder(&text)
	if !td.Section("sample") {
		t.Fatalf("section marker not found: %v", td.Err())
	}
	got := readSample(td)
	if err := td.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("text decode\n%#v\nbinary decode\n%#v", got, want)
	}
}

// TestTextFloatRoundTrip: every float the decimal form can carry survives
// bitwise, alone and inside a slab.
func TestTextFloatRoundTrip(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest denormal
		math.Float64frombits(0x0010000000000000), // smallest normal
		math.Nextafter(1, 0), math.Nextafter(1, 2), 0.1, 1.0 / 3, 1e300,
		math.MaxFloat64, math.Inf(1), math.Inf(-1)}
	var buf bytes.Buffer
	te := NewTextEncoder(&buf)
	for _, v := range vals {
		te.F64(v)
	}
	te.F64s(vals)
	if err := te.Close(); err != nil {
		t.Fatal(err)
	}
	td := NewTextDecoder(&buf)
	for _, v := range vals {
		if got := td.F64(); math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("F64 %v (%#x) came back %v (%#x)", v, math.Float64bits(v), got, math.Float64bits(got))
		}
	}
	for i, got := range td.F64s() {
		if math.Float64bits(got) != math.Float64bits(vals[i]) {
			t.Errorf("F64s[%d] %v came back %v", i, vals[i], got)
		}
	}
	if err := td.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTextHostile: every malformed input is an error — never a panic, and
// never an allocation sized by a count the line cannot back (the huge
// counts below would fail the test by exhausting memory).
func TestTextHostile(t *testing.T) {
	// The reader a loader would run: section a, then optional section b.
	load := func(in string) error {
		td := NewTextDecoder(strings.NewReader(in))
		if td.Section("a") {
			td.U32()
			td.Str()
			td.I32s()
		}
		if td.Section("b") {
			td.F64s()
		}
		if td.Err() != nil {
			return td.Err()
		}
		return td.Close()
	}
	const a = "section a\nu32 1\nstr \"x\"\ni32s 2 5 6\n"
	good := TextHeader + "\n" + a + "section b\nf64s 1 0.5\nendpgsnap\n"
	if err := load(good); err != nil {
		t.Fatalf("well-formed input rejected: %v", err)
	}
	for _, tc := range []struct{ name, in, want string }{
		{"empty", "", "end of file"},
		{"wrong header", "pgsnap v6\n" + a + "endpgsnap\n", "not a text snapshot"},
		{"wrong type tag", TextHeader + "\nsection a\nu64 1\n", "want a u32 token"},
		{"tag without value", TextHeader + "\nsection a\nu32\n", "want a u32 token"},
		{"non-numeric scalar", TextHeader + "\nsection a\nu32 x1\n", "bad u32 value"},
		{"scalar out of range", TextHeader + "\nsection a\nu32 4294967296\n", "bad u32 value"},
		{"trailing scalar token", TextHeader + "\nsection a\nu32 1 2\n", "bad u32 value"},
		{"unquoted string", TextHeader + "\nsection a\nu32 1\nstr x\n", "bad str literal"},
		{"short slab line", TextHeader + "\nsection a\nu32 1\nstr \"x\"\ni32s 3 5 6\n", "exceeds"},
		{"count >> tokens", TextHeader + "\nsection a\nu32 1\nstr \"x\"\ni32s 1099511627776 5 6\n", "exceeds"},
		{"count not a number", TextHeader + "\nsection a\nu32 1\nstr \"x\"\ni32s many 5 6\n", "exceeds"},
		{"non-numeric slab token", TextHeader + "\nsection a\nu32 1\nstr \"x\"\ni32s 2 5 six\n", "bad token"},
		{"slab value out of range", TextHeader + "\nsection a\nu32 1\nstr \"x\"\ni32s 2 5 2147483648\n", "bad token"},
		{"trailing slab tokens", TextHeader + "\nsection a\nu32 1\nstr \"x\"\ni32s 2 5 6 7\n", "tokens after"},
		{"bad float", TextHeader + "\n" + a + "section b\nf64s 1 0.5.1\nendpgsnap\n", "bad token"},
		{"missing endpgsnap", TextHeader + "\n" + a, "end of file"},
		{"unknown section", TextHeader + "\n" + a + "section z\nendpgsnap\n", "want a known section"},
		{"duplicate section", TextHeader + "\n" + a + a + "endpgsnap\n", "want a known section"},
		{"out-of-order section", TextHeader + "\nsection b\nf64s 0\n" + a + "endpgsnap\n", "want a known section"},
		{"unread payload", TextHeader + "\n" + a + "u32 9\nendpgsnap\n", "want a known section"},
		{"content after trailer", good + "u32 1\n", "content after"},
	} {
		err := load(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestTextStickyError: after the first failure every read is a zero value
// and the first error is the one reported.
func TestTextStickyError(t *testing.T) {
	td := NewTextDecoder(strings.NewReader(TextHeader + "\nu32 x\nu32 2\n"))
	td.U32()
	first := td.Err()
	if first == nil {
		t.Fatal("bad token accepted")
	}
	if td.U32() != 0 || td.Str() != "" || td.I32s() != nil || td.Bytes() != nil || td.Section("a") {
		t.Error("reads after an error returned data")
	}
	if td.Err() != first || td.Close() != first {
		t.Error("first error was overwritten")
	}
}

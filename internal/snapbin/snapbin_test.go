package snapbin

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"unsafe"
)

func buildSample(t *testing.T) []byte {
	t.Helper()
	w := NewWriter()
	a := w.Section(1)
	a.U32(7)
	a.Str("hello world")
	a.F64(math.Pi)
	a.I32s([]int32{-1, 0, 1, 1 << 30})
	b := w.Section(2)
	b.F64s([]float64{0, math.Copysign(0, -1), 1e300, math.Inf(1)})
	b.Bytes([]byte{9, 8, 7})
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := buildSample(t)
	s, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.NumSections() != 2 {
		t.Fatalf("sections = %d, want 2", s.NumSections())
	}
	sec, ok := s.Section(1)
	if !ok {
		t.Fatal("section 1 missing")
	}
	c := NewCursor(sec)
	if v := c.U32(); v != 7 {
		t.Errorf("U32 = %d", v)
	}
	if v := c.Str(); v != "hello world" {
		t.Errorf("Str = %q", v)
	}
	if v := c.F64(); v != math.Pi {
		t.Errorf("F64 = %v", v)
	}
	ints := c.I32s()
	if len(ints) != 4 || ints[0] != -1 || ints[3] != 1<<30 {
		t.Errorf("I32s = %v", ints)
	}
	if c.Err() != nil || c.Remaining() != 0 {
		t.Errorf("err=%v remaining=%d", c.Err(), c.Remaining())
	}
	sec2, _ := s.Section(2)
	c2 := NewCursor(sec2)
	fs := c2.F64s()
	if len(fs) != 4 || math.Float64bits(fs[1]) != math.Float64bits(math.Copysign(0, -1)) || !math.IsInf(fs[3], 1) {
		t.Errorf("F64s = %v", fs)
	}
	if got := c2.Bytes(); !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Errorf("Bytes = %v", got)
	}
	if c2.Err() != nil {
		t.Errorf("cursor err: %v", c2.Err())
	}
}

func TestSectionAlignment(t *testing.T) {
	data := buildSample(t)
	count := binary.LittleEndian.Uint64(data[8:16])
	for i := uint64(0); i < count; i++ {
		off := binary.LittleEndian.Uint64(data[16+24*i+8:])
		if off%8 != 0 {
			t.Errorf("section %d offset %d not 8-byte aligned", i, off)
		}
	}
}

func TestDeterministicOutput(t *testing.T) {
	if !bytes.Equal(buildSample(t), buildSample(t)) {
		t.Fatal("same sections produced different bytes")
	}
}

func TestCorruptInputsError(t *testing.T) {
	data := buildSample(t)
	// Truncations at every length must error or parse, never panic.
	for n := 0; n < len(data); n++ {
		s, err := Parse(data[:n])
		if err != nil {
			continue
		}
		for k := uint64(1); k <= 2; k++ {
			if sec, ok := s.Section(k); ok {
				c := NewCursor(sec)
				c.U32()
				c.Str()
				c.I32s()
				c.F64s()
				_ = c.Err()
			}
		}
	}
	// Absurd slab count must error before allocating.
	w := NewWriter()
	s := w.Section(1)
	s.U64(1 << 60) // claims 2^60 int32s
	var buf bytes.Buffer
	w.WriteTo(&buf)
	snap, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	sec, _ := snap.Section(1)
	c := NewCursor(sec)
	if got := c.I32s(); got != nil || c.Err() == nil {
		t.Fatalf("oversized slab: got %v err %v, want nil + error", got, c.Err())
	}
}

func TestCursorStickyError(t *testing.T) {
	c := NewCursor([]byte{1, 2})
	if c.U32(); c.Err() == nil {
		t.Fatal("want error on short read")
	}
	first := c.Err()
	c.U64()
	c.Str()
	if c.Err() != first {
		t.Fatal("error not sticky")
	}
}

// TestSlabDecodedCopy reads both slab kinds from a section copied to an
// odd address, where no view is possible: the values must be decoded into
// slices of their own, bit for bit. At the section's own, aligned address
// the same reads are views of it.
func TestSlabDecodedCopy(t *testing.T) {
	ints := []int32{-1, 0, 1, 1 << 30, math.MinInt32}
	floats := []float64{0, math.Copysign(0, -1), 1e300, math.Inf(-1), math.NaN()}
	w := NewWriter()
	s := w.Section(1)
	s.I32s(ints)
	s.F64s(floats)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sec, _ := snap.Section(1)
	odd := make([]byte, len(sec)+1)[1:]
	copy(odd, sec)
	for _, payload := range [][]byte{sec, odd} {
		view := &payload[0] == &sec[0]
		lo := uintptr(unsafe.Pointer(&payload[0]))
		inside := func(p unsafe.Pointer) bool { return uintptr(p)-lo < uintptr(len(payload)) }
		c := NewCursor(payload)
		gotI, gotF := c.I32s(), c.F64s()
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
		if !slices.Equal(gotI, ints) {
			t.Errorf("view %v: I32s = %v, want %v", view, gotI, ints)
		}
		if len(gotF) != len(floats) {
			t.Fatalf("view %v: F64s = %v, want %v", view, gotF, floats)
		}
		for i := range floats {
			if math.Float64bits(gotF[i]) != math.Float64bits(floats[i]) {
				t.Errorf("view %v: F64s[%d] = %v, want %v", view, i, gotF[i], floats[i])
			}
		}
		if hostLittle && (inside(unsafe.Pointer(&gotI[0])) != view || inside(unsafe.Pointer(&gotF[0])) != view) {
			t.Errorf("view %v: slabs alias the payload: %v %v", view,
				inside(unsafe.Pointer(&gotI[0])), inside(unsafe.Pointer(&gotF[0])))
		}
	}
}

// TestSlabCountChecked: a count past the bytes left fails before any
// allocation, for both slab kinds, with an error naming the kind.
func TestSlabCountChecked(t *testing.T) {
	i32s := func(c *Cursor) bool { return c.I32s() == nil }
	f64s := func(c *Cursor) bool { return c.F64s() == nil }
	for _, c := range []struct {
		n    uint64
		read func(*Cursor) bool
		want string
	}{
		{3, i32s, "snapbin: int32 slab of 3 entries exceeds remaining 8 bytes"},
		{2, f64s, "snapbin: float64 slab of 2 entries exceeds remaining 8 bytes"},
		{1 << 60, f64s, "snapbin: float64 slab of 1152921504606846976 entries exceeds remaining 8 bytes"},
	} {
		// The count, then 8 bytes: room for two int32s or one float64.
		cur := NewCursor(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, c.n), 0))
		if !c.read(cur) || cur.Err() == nil || cur.Err().Error() != c.want {
			t.Errorf("count %d: error %v, want %q and no slab", c.n, cur.Err(), c.want)
		}
	}
}

// Package snapbin is the token stream every snapshot is written through,
// and its two encodings. A persisted struct has one encode function written
// against Encoder and one decode function written against Decoder; the
// binary pair (Section/Cursor, pgsnap v4) and the text pair
// (TextEncoder/TextDecoder, pgsnap v5, see text.go) render the same calls,
// so the two formats cannot carry different fields.
//
// The binary container is a little-endian, section-aligned layout built so
// a loader can mmap the file and point long-lived int32/float64 slices
// directly at the mapping instead of parsing text.
//
// File layout:
//
//	[0:8)    magic "PGSNAPB4"
//	[8:16)   u64 section count
//	[16:...) section table: per section u64 kind, u64 offset, u64 length
//	...      section payloads, each starting at an 8-byte-aligned offset,
//	         zero-padded in between
//
// Offsets are absolute file offsets. Within a section, writers and readers
// share one convention: scalars are little-endian, strings are u32
// length-prefixed bytes, and numeric slabs are u64 count-prefixed, padded
// to 8-byte alignment relative to the section start, then raw
// little-endian data. Because every section itself starts 8-byte aligned
// (and mmap bases are page aligned), section-relative alignment equals
// absolute alignment, which is what the zero-copy slice views need.
//
// The Cursor reader is hardened for fuzzing: every read is bounds-checked
// against the section payload, errors are sticky, and slab counts are
// validated against the remaining bytes before any allocation — corrupt
// input errors out, it never panics or over-allocates.
package snapbin

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Magic identifies a pgsnap v4 binary snapshot. Exactly 8 bytes.
const Magic = "PGSNAPB4"

// Encoder is the write half of the token stream: scalars, strings, byte
// blobs and count-prefixed numeric slabs, in call order. Align8 marks where
// the binary layout pads so the next slab can be viewed in place; encodings
// without alignment ignore it.
type Encoder interface {
	U32(v uint32)
	U64(v uint64)
	F64(v float64)
	Str(v string)
	Bytes(v []byte)
	Align8()
	I32s(v []int32)
	F64s(v []float64)
}

// Decoder is the read half, mirroring Encoder call for call. Errors are
// sticky: after the first one every read returns a zero value and Err
// reports it, so decode functions check Err at the points where a wrong
// value would matter (before a loop bound, before an allocation). Slices
// returned by Bytes, I32s and F64s may alias the input and are read-only;
// an empty slab decodes as nil.
type Decoder interface {
	U32() uint32
	Int() int
	U64() uint64
	F64() float64
	Str() string
	Bytes() []byte
	Align8()
	I32s() []int32
	F64s() []float64
	Err() error
}

var (
	_ Encoder = (*Section)(nil)
	_ Decoder = (*Cursor)(nil)
	_ Encoder = (*TextEncoder)(nil)
	_ Decoder = (*TextDecoder)(nil)
)

// hostLittle reports whether the host is little-endian; the zero-copy
// slice views require it (the data is little-endian on disk).
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Writer assembles a snapshot file section by section.
type Writer struct {
	sections []*Section
}

// Section accumulates one section's payload.
type Section struct {
	kind uint64
	buf  []byte
}

// NewWriter returns an empty snapshot writer.
func NewWriter() *Writer { return &Writer{} }

// Section starts a new section with the given kind and returns its
// builder. Sections are written in the order they are created.
func (w *Writer) Section(kind uint64) *Section {
	s := &Section{kind: kind}
	w.sections = append(w.sections, s)
	return s
}

// U32 appends a little-endian uint32.
func (s *Section) U32(v uint32) { s.buf = binary.LittleEndian.AppendUint32(s.buf, v) }

// U64 appends a little-endian uint64.
func (s *Section) U64(v uint64) { s.buf = binary.LittleEndian.AppendUint64(s.buf, v) }

// F64 appends a float64 by its IEEE-754 bits, preserving the value
// bitwise (including negative zero and NaN payloads).
func (s *Section) F64(v float64) { s.U64(math.Float64bits(v)) }

// Str appends a u32 length-prefixed string.
func (s *Section) Str(v string) {
	s.U32(uint32(len(v)))
	s.buf = append(s.buf, v...)
}

// Bytes appends raw bytes with a u32 length prefix.
func (s *Section) Bytes(v []byte) {
	s.U32(uint32(len(v)))
	s.buf = append(s.buf, v...)
}

// Align8 zero-pads the section to an 8-byte boundary (relative to the
// section start, which the container keeps 8-byte aligned in the file).
func (s *Section) Align8() {
	for len(s.buf)%8 != 0 {
		s.buf = append(s.buf, 0)
	}
}

// I32s appends an int32 slab: u64 count, padding to 8-byte alignment,
// then the raw little-endian values. Readers on little-endian hosts can
// view the payload in place.
func (s *Section) I32s(v []int32) {
	s.U64(uint64(len(v)))
	s.Align8()
	for _, x := range v {
		s.U32(uint32(x))
	}
}

// F64s appends a float64 slab: u64 count, padding, raw bits.
func (s *Section) F64s(v []float64) {
	s.U64(uint64(len(v)))
	s.Align8()
	for _, x := range v {
		s.F64(x)
	}
}

// WriteTo writes the assembled snapshot. The output depends only on the
// section contents — same sections in, byte-identical file out.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	header := make([]byte, 0, 16+24*len(w.sections))
	header = append(header, Magic...)
	header = binary.LittleEndian.AppendUint64(header, uint64(len(w.sections)))
	// Lay out payloads: each starts at the next 8-byte boundary.
	off := uint64(16 + 24*len(w.sections))
	off = (off + 7) &^ 7
	type placed struct{ off, pad uint64 }
	places := make([]placed, len(w.sections))
	for i, s := range w.sections {
		aligned := (off + 7) &^ 7
		places[i] = placed{off: aligned, pad: aligned - off}
		header = binary.LittleEndian.AppendUint64(header, s.kind)
		header = binary.LittleEndian.AppendUint64(header, aligned)
		header = binary.LittleEndian.AppendUint64(header, uint64(len(s.buf)))
		off = aligned + uint64(len(s.buf))
	}
	var n int64
	var pad [8]byte
	write := func(b []byte) error {
		if len(b) == 0 {
			return nil
		}
		m, err := out.Write(b)
		n += int64(m)
		return err
	}
	if err := write(header); err != nil {
		return n, err
	}
	// Padding between the (unaligned) end of the table and the first payload.
	if first := uint64(16 + 24*len(w.sections)); len(w.sections) > 0 && places[0].off > first {
		if err := write(pad[:places[0].off-first]); err != nil {
			return n, err
		}
	}
	for i, s := range w.sections {
		if i > 0 {
			if err := write(pad[:places[i].pad]); err != nil {
				return n, err
			}
		}
		if err := write(s.buf); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Snapshot is a parsed binary snapshot over a byte slice (typically an
// mmap). The slice must outlive every view handed out by cursors over it.
type Snapshot struct {
	data     []byte
	kinds    []uint64
	sections [][]byte
}

// IsBinary reports whether data starts with the v4 magic.
func IsBinary(data []byte) bool {
	return len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic
}

// Parse validates the container structure: magic, section table, and that
// every section lies within the file at an aligned offset.
func Parse(data []byte) (*Snapshot, error) {
	if !IsBinary(data) {
		return nil, fmt.Errorf("snapbin: bad magic")
	}
	if len(data) < 16 {
		return nil, fmt.Errorf("snapbin: truncated header")
	}
	count := binary.LittleEndian.Uint64(data[8:16])
	if count > uint64(len(data))/24 {
		return nil, fmt.Errorf("snapbin: section count %d exceeds file size", count)
	}
	tableEnd := 16 + 24*count
	if tableEnd > uint64(len(data)) {
		return nil, fmt.Errorf("snapbin: truncated section table")
	}
	s := &Snapshot{data: data}
	for i := uint64(0); i < count; i++ {
		rec := data[16+24*i:]
		kind := binary.LittleEndian.Uint64(rec[0:8])
		off := binary.LittleEndian.Uint64(rec[8:16])
		length := binary.LittleEndian.Uint64(rec[16:24])
		if off%8 != 0 {
			return nil, fmt.Errorf("snapbin: section %d misaligned offset %d", i, off)
		}
		if off < tableEnd || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("snapbin: section %d out of bounds (off %d len %d, file %d)", i, off, length, len(data))
		}
		s.kinds = append(s.kinds, kind)
		s.sections = append(s.sections, data[off:off+length:off+length])
	}
	return s, nil
}

// Section returns the payload of the first section with the given kind.
func (s *Snapshot) Section(kind uint64) ([]byte, bool) {
	for i, k := range s.kinds {
		if k == kind {
			return s.sections[i], true
		}
	}
	return nil, false
}

// NumSections returns the number of sections.
func (s *Snapshot) NumSections() int { return len(s.sections) }

// Cursor reads a section payload sequentially with sticky, bounds-checked
// errors; it mirrors the Section builder's conventions exactly.
type Cursor struct {
	b   []byte
	off int
	err error
}

// NewCursor returns a cursor over a section payload.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Err returns the first error encountered, if any.
func (c *Cursor) Err() error { return c.err }

// Remaining returns the number of unread bytes.
func (c *Cursor) Remaining() int { return len(c.b) - c.off }

func (c *Cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("snapbin: "+format, args...)
	}
}

func (c *Cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b)-c.off {
		c.fail("need %d bytes at offset %d, have %d", n, c.off, len(c.b)-c.off)
		return nil
	}
	b := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return b
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads a float64 from its bits.
func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

// Int reads a u32 written by Section.U32 and returns it as an int,
// failing if it does not fit (never negative).
func (c *Cursor) Int() int {
	v := c.U32()
	if uint64(v) > uint64(math.MaxInt32) {
		c.fail("u32 %d out of int32 range", v)
		return 0
	}
	return int(v)
}

// Str reads a u32 length-prefixed string. The bytes are copied (strings
// must not alias a closable mmap's pages... they would keep it pinned
// invisibly; the copy is small and explicit).
func (c *Cursor) Str() string {
	n := c.Int()
	b := c.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Bytes reads a u32 length-prefixed byte slab without copying; the result
// aliases the underlying data.
func (c *Cursor) Bytes() []byte {
	n := c.Int()
	return c.take(n)
}

// Align8 skips padding up to the next 8-byte boundary.
func (c *Cursor) Align8() {
	if rem := c.off % 8; rem != 0 {
		c.take(8 - rem)
	}
}

// I32s reads an int32 slab written by Section.I32s. On a little-endian
// host with an aligned payload the returned slice aliases the underlying
// data (zero copy, len == cap so appends always reallocate); otherwise it
// is decoded into a fresh slice. The count is validated against the
// remaining bytes before any allocation.
func (c *Cursor) I32s() []int32 {
	n := c.U64()
	c.Align8()
	if c.err != nil {
		return nil
	}
	if n > uint64(c.Remaining())/4 {
		c.fail("int32 slab of %d entries exceeds remaining %d bytes", n, c.Remaining())
		return nil
	}
	raw := c.take(int(n) * 4)
	if raw == nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&raw[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&raw[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// F64s reads a float64 slab written by Section.F64s, zero copy when the
// host allows it, bitwise-exact either way.
func (c *Cursor) F64s() []float64 {
	n := c.U64()
	c.Align8()
	if c.err != nil {
		return nil
	}
	if n > uint64(c.Remaining())/8 {
		c.fail("float64 slab of %d entries exceeds remaining %d bytes", n, c.Remaining())
		return nil
	}
	raw := c.take(int(n) * 8)
	if raw == nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&raw[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

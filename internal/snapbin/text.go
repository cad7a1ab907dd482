package snapbin

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
)

// pgsnap v5 is the text rendering of the token stream: one typed line per
// Encoder call, framed by a header, section markers and a trailer.
//
//	pgsnap v5
//	section <name>
//	u32 71
//	f64 0.25
//	str "g0"
//	i32s 3 4 -1 9
//	...
//	endpgsnap
//
// Tags are u32, u64, f64, str, bytes, i32s and f64s. Floats are printed in
// the shortest form that parses back to the identical float64, strings and
// byte blobs as Go-quoted literals (one line whatever they contain), slabs
// as a count followed by that many values. Align8 writes nothing. The
// format has no comments and no optional whitespace: what the decoder
// accepts is what the encoder writes.

// TextHeader is the first line of a pgsnap v5 text snapshot.
const TextHeader = "pgsnap v5"

const textTrailer = "endpgsnap"

// MaxTextLine bounds one line of a text snapshot, and so the largest slab
// the text encoding can carry; larger databases use the binary format.
const MaxTextLine = 64 * 1024 * 1024

// TextEncoder writes a text snapshot. Write errors are held by the
// underlying buffered writer and reported by Close.
type TextEncoder struct {
	w   *bufio.Writer
	buf []byte
}

// NewTextEncoder starts a text snapshot on w.
func NewTextEncoder(w io.Writer) *TextEncoder {
	t := &TextEncoder{w: bufio.NewWriter(w)}
	t.line(append(t.buf, TextHeader...))
	return t
}

// Section starts the named section; the calls that follow, up to the next
// Section or Close, are its payload.
func (t *TextEncoder) Section(name string) *TextEncoder {
	t.line(append(append(t.buf[:0], "section "...), name...))
	return t
}

// Close writes the trailer and flushes.
func (t *TextEncoder) Close() error {
	t.line(append(t.buf[:0], textTrailer...))
	return t.w.Flush()
}

func (t *TextEncoder) line(b []byte) {
	t.buf = append(b, '\n')
	t.w.Write(t.buf)
}

func (t *TextEncoder) tag(tag string) []byte { return append(t.buf[:0], tag...) }

func appendF64(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// The Encoder methods: one line each.
func (t *TextEncoder) U32(v uint32)   { t.line(strconv.AppendUint(t.tag("u32 "), uint64(v), 10)) }
func (t *TextEncoder) U64(v uint64)   { t.line(strconv.AppendUint(t.tag("u64 "), v, 10)) }
func (t *TextEncoder) F64(v float64)  { t.line(appendF64(t.tag("f64 "), v)) }
func (t *TextEncoder) Str(v string)   { t.line(strconv.AppendQuote(t.tag("str "), v)) }
func (t *TextEncoder) Bytes(v []byte) { t.line(strconv.AppendQuoteToASCII(t.tag("bytes "), string(v))) }
func (t *TextEncoder) Align8()        {}

func (t *TextEncoder) I32s(v []int32) {
	b := strconv.AppendInt(t.tag("i32s "), int64(len(v)), 10)
	for _, x := range v {
		b = strconv.AppendInt(append(b, ' '), int64(x), 10)
	}
	t.line(b)
}

func (t *TextEncoder) F64s(v []float64) {
	b := strconv.AppendInt(t.tag("f64s "), int64(len(v)), 10)
	for _, x := range v {
		b = appendF64(append(b, ' '), x)
	}
	t.line(b)
}

// TextDecoder reads a text snapshot line by line. It gives text input the
// guarantees Cursor gives bytes: every line is checked against the tag the
// caller asked for, errors are sticky, and a slab's count is checked
// against the length of its line before the slab is allocated.
type TextDecoder struct {
	sc     *bufio.Scanner
	cur    []byte // the next unconsumed line, when peeked
	peeked bool
	lineNo int
	err    error
}

// NewTextDecoder reads and checks the header line of a text snapshot on r.
func NewTextDecoder(r io.Reader) *TextDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxTextLine)
	t := &TextDecoder{sc: sc}
	if line := t.peek(); t.err == nil && string(line) != TextHeader {
		t.fail("not a text snapshot (header %q, want %q; older text formats are converted to binary by the release that wrote them)", clip(line), TextHeader)
	}
	t.peeked = false
	return t
}

// Err returns the first error encountered, if any.
func (t *TextDecoder) Err() error { return t.err }

func (t *TextDecoder) fail(format string, args ...any) {
	if t.err == nil {
		t.err = fmt.Errorf("snapbin: text line %d: "+format, append([]any{t.lineNo}, args...)...)
	}
}

// clip shortens a line for an error message.
func clip(b []byte) []byte { return b[:min(len(b), 60)] }

// peek returns the next line without consuming it.
func (t *TextDecoder) peek() []byte {
	if t.err != nil {
		return nil
	}
	if !t.peeked {
		t.lineNo++
		if !t.sc.Scan() {
			if err := t.sc.Err(); err != nil {
				t.fail("%v", err)
			} else {
				t.fail("unexpected end of file")
			}
			return nil
		}
		t.cur, t.peeked = t.sc.Bytes(), true
	}
	return t.cur
}

// Section consumes the next line if it opens the named section. Asking for
// sections in file order, a false return means the section is absent — or
// that the previous section's decoder left part of its payload unread,
// which Close then reports.
func (t *TextDecoder) Section(name string) bool {
	if line := t.peek(); t.err != nil || string(line) != "section "+name {
		return false
	}
	t.peeked = false
	return true
}

// Close checks that the trailer follows and nothing follows it: an unread
// payload line, an unknown, repeated or out-of-order section, and a missing
// trailer all end here.
func (t *TextDecoder) Close() error {
	if line := t.peek(); t.err == nil && string(line) != textTrailer {
		t.fail("want a known section or %q, got %q", textTrailer, clip(line))
	}
	if t.err == nil {
		t.lineNo++
		if t.sc.Scan() {
			t.fail("content after %q", textTrailer)
		} else if err := t.sc.Err(); err != nil {
			t.fail("%v", err)
		}
	}
	return t.err
}

// take consumes the next line, which must carry the given tag, and returns
// what follows the tag.
func (t *TextDecoder) take(tag string) []byte {
	line := t.peek()
	if t.err != nil {
		return nil
	}
	if len(line) <= len(tag) || string(line[:len(tag)]) != tag || line[len(tag)] != ' ' {
		t.fail("want a %s token, got %q", tag, clip(line))
		return nil
	}
	t.peeked = false
	return line[len(tag)+1:]
}

func (t *TextDecoder) uint(tag string, bits int) uint64 {
	tok := t.take(tag)
	if t.err != nil {
		return 0
	}
	v, err := strconv.ParseUint(string(tok), 10, bits)
	if err != nil {
		t.fail("bad %s value %q", tag, clip(tok))
	}
	return v
}

func (t *TextDecoder) U32() uint32 { return uint32(t.uint("u32", 32)) }
func (t *TextDecoder) U64() uint64 { return t.uint("u64", 64) }
func (t *TextDecoder) Align8()     {}

// Int reads a u32 token as a non-negative int, like Cursor.Int.
func (t *TextDecoder) Int() int {
	v := t.U32()
	if v > math.MaxInt32 {
		t.fail("u32 %d out of int32 range", v)
		return 0
	}
	return int(v)
}

func parseF64(tok []byte) (float64, error) { return strconv.ParseFloat(string(tok), 64) }

func (t *TextDecoder) F64() float64 {
	tok := t.take("f64")
	if t.err != nil {
		return 0
	}
	v, err := parseF64(tok)
	if err != nil {
		t.fail("bad f64 value %q", clip(tok))
	}
	return v
}

func (t *TextDecoder) quoted(tag string) string {
	tok := t.take(tag)
	if t.err != nil {
		return ""
	}
	v, err := strconv.Unquote(string(tok))
	if err != nil {
		t.fail("bad %s literal %q", tag, clip(tok))
	}
	return v
}

func (t *TextDecoder) Str() string { return t.quoted("str") }

// Bytes reads a blob; unlike Cursor.Bytes the result is a fresh slice.
func (t *TextDecoder) Bytes() []byte {
	if v := t.quoted("bytes"); v != "" {
		return []byte(v)
	}
	return nil
}

// textSlab reads "<tag> <n> <v1> ... <vn>". Each value takes at least two
// bytes of the line (a separator and a digit), so a count the line cannot
// back is rejected before anything is allocated.
func textSlab[T any](t *TextDecoder, tag string, parse func([]byte) (T, error)) []T {
	rest := t.take(tag)
	if t.err != nil {
		return nil
	}
	head, rest, _ := bytes.Cut(rest, []byte{' '})
	n, err := strconv.ParseUint(string(head), 10, 63)
	if err != nil || n > uint64(len(rest)+1)/2 {
		t.fail("%s count %q exceeds the %d bytes left on its line", tag, clip(head), len(rest))
		return nil
	}
	out := make([]T, n)
	for i := range out {
		var tok []byte
		tok, rest, _ = bytes.Cut(rest, []byte{' '})
		if out[i], err = parse(tok); err != nil {
			t.fail("%s value %d of %d: bad token %q", tag, i, n, clip(tok))
			return nil
		}
	}
	if len(rest) != 0 {
		t.fail("%s: tokens after the %d declared values", tag, n)
		return nil
	}
	if n == 0 {
		return nil
	}
	return out
}

func (t *TextDecoder) I32s() []int32 {
	return textSlab(t, "i32s", func(tok []byte) (int32, error) {
		v, err := strconv.ParseInt(string(tok), 10, 32)
		return int32(v), err
	})
}

func (t *TextDecoder) F64s() []float64 { return textSlab(t, "f64s", parseF64) }

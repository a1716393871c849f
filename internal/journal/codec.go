package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Encoder serializes control-plane state into a reusable byte buffer.
// Every value is fixed-width little-endian; float64 round-trips through
// math.Float64bits, so encode→decode is bit-exact — the property the
// kill/resume equivalence tests lean on. After the buffer has grown to
// its steady-state size Append* never allocates, which is what lets the
// journaling path ride inside the simulation tick without breaking the
// zero-alloc invariant.
type Encoder struct {
	buf []byte
}

// Reset truncates the buffer, keeping its capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded payload. The slice aliases the encoder's
// buffer and is invalidated by the next Reset.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a uint16.
func (e *Encoder) U16(v uint16) {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
}

// U64 appends a uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends an int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 bit-exactly.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Dur appends a time.Duration.
func (e *Encoder) Dur(v time.Duration) { e.I64(int64(v)) }

// String appends a length-prefixed string.
func (e *Encoder) String(v string) {
	e.Int(len(v))
	e.buf = append(e.buf, v...)
}

// ErrShort is returned when a decoder runs past the end of its payload —
// the record was truncated or the layout versions disagree.
var ErrShort = errors.New("journal: truncated payload")

// Decoder holds a payload being read back, through a Decoding codec, in
// the order the Encoder appended it. The error is sticky: after the first
// failure every read fails, so callers can decode a whole struct and check
// Err once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a payload for reading.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// take consumes the next n bytes, or returns nil once the decoder failed.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = ErrShort
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// fail records err as the decoder's first error.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Codec walks a persisted layout in one direction. Each persisted type
// has one walk that hands the codec a pointer to every field in order:
// under Encoding the walk appends each value, under Decoding it
// overwrites each value, so the encoder and the decoder cannot drift
// apart. Once a decode fails, the walk leaves every later value
// untouched; the caller checks the Decoder's Err once after the walk.
// Encoding appends into the Encoder's reused buffer and allocates
// nothing.
type Codec struct {
	e *Encoder
	d *Decoder
}

// Encoding returns a codec whose walks append every value to e.
func Encoding(e *Encoder) Codec { return Codec{e: e} }

// Decoding returns a codec whose walks overwrite every value from d.
func Decoding(d *Decoder) Codec { return Codec{d: d} }

// Decoding reports whether walks read. A walk branches on it only where
// decoding must build a value or hand one over.
func (c Codec) Decoding() bool { return c.d != nil }

// Version walks a one-byte layout version: decoding fails on any other.
func (c Codec) Version(v uint8) {
	got := v
	c.U8(&got)
	if got != v {
		c.d.fail(fmt.Errorf("journal: layout version %d, want %d", got, v))
	}
}

// U8 walks one byte.
func (c Codec) U8(v *uint8) {
	if c.e != nil {
		c.e.U8(*v)
	} else if b := c.d.take(1); b != nil {
		*v = b[0]
	}
}

// U16 walks a uint16.
func (c Codec) U16(v *uint16) {
	if c.e != nil {
		c.e.U16(*v)
	} else if b := c.d.take(2); b != nil {
		*v = binary.LittleEndian.Uint16(b)
	}
}

// U64 walks a uint64.
func (c Codec) U64(v *uint64) {
	if c.e != nil {
		c.e.U64(*v)
	} else if b := c.d.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// Bool walks a bool as one byte.
func (c Codec) Bool(v *bool) {
	if c.e != nil {
		c.e.Bool(*v)
	} else if b := c.d.take(1); b != nil {
		*v = b[0] != 0
	}
}

// String walks a length-prefixed string. Decoding allocates; it only
// runs on the recovery path, never in the tick loop.
func (c Codec) String(v *string) {
	if c.e != nil {
		c.e.String(*v)
		return
	}
	n := c.Len(0, math.MaxInt, "journal: string of %d bytes outside [0, %d]")
	if b := c.d.take(n); b != nil {
		*v = string(b)
	}
}

// Int walks an int-kinded value (a count, an index, an enum) as an int64.
func Int[T ~int](c Codec, v *T) {
	if c.e != nil {
		c.e.Int(int(*v))
	} else if b := c.d.take(8); b != nil {
		*v = T(int64(binary.LittleEndian.Uint64(b)))
	}
}

// I64 walks an int64-kinded value, such as a time.Duration.
func I64[T ~int64](c Codec, v *T) {
	if c.e != nil {
		c.e.I64(int64(*v))
	} else if b := c.d.take(8); b != nil {
		*v = T(binary.LittleEndian.Uint64(b))
	}
}

// F64 walks a float64-kinded value bit-exactly.
func F64[T ~float64](c Codec, v *T) {
	if c.e != nil {
		c.e.F64(float64(*v))
	} else if b := c.d.take(8); b != nil {
		*v = T(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
}

// Size walks a length prefix that must equal n, a size the caller's
// configuration fixes. Decoding fails on any other count with mismatch
// formatted with the decoded count and n.
func (c Codec) Size(n int, mismatch string) {
	got := n
	Int(c, &got)
	if got != n {
		c.d.fail(fmt.Errorf(mismatch, got, n))
	}
}

// Len walks a length prefix and returns the count: n when encoding, the
// decoded count when decoding. A decoded count below 0 or above max fails
// the walk with tooMany formatted with the count and max; one above the
// bytes left fails it as truncated, since every element takes at least a
// byte. A failed walk returns 0, so a corrupt count never sizes an
// allocation.
func (c Codec) Len(n, max int, tooMany string) int {
	if c.e != nil {
		c.e.Int(n)
		return n
	}
	count := 0
	Int(c, &count)
	switch {
	case c.d.err != nil:
		return 0
	case count < 0 || count > max:
		c.d.fail(fmt.Errorf(tooMany, count, max))
		return 0
	case count > c.d.Remaining():
		c.d.fail(ErrShort)
		return 0
	}
	return count
}

// Slice walks the length prefix of *s through Len and resizes *s to the
// decoded count, reusing its backing array. The caller then walks each
// element.
func Slice[T any](c Codec, s *[]T, max int, tooMany string) {
	n := c.Len(len(*s), max, tooMany)
	switch {
	case n == len(*s):
	case n <= cap(*s):
		*s = (*s)[:n]
	default:
		*s = make([]T, n)
	}
}

// Blob walks a nested image as a length-prefixed string. Encoding runs
// walk on the same buffer and back-fills the length; decoding runs walk
// on a decoder over exactly the prefixed bytes, so the nested layout
// reads what it wrote and no more.
func (c Codec) Blob(walk func(Codec)) {
	if c.e != nil {
		off := len(c.e.buf)
		c.e.U64(0)
		walk(c)
		binary.LittleEndian.PutUint64(c.e.buf[off:], uint64(len(c.e.buf)-off-8))
		return
	}
	n := c.Len(0, math.MaxInt, "journal: blob of %d bytes outside [0, %d]")
	if b := c.d.take(n); b != nil {
		sub := NewDecoder(b)
		walk(Decoding(sub))
		c.d.fail(sub.err)
	}
}

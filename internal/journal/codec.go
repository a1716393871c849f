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

// Decoder reads values back in the order the Encoder appended them. The
// error is sticky: after the first failure every read returns the zero
// value, so callers can decode a whole struct and check Err once.
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

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64 bit-exactly.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Dur reads a time.Duration.
func (d *Decoder) Dur() time.Duration { return time.Duration(d.I64()) }

// String reads a length-prefixed string. Decoding allocates; it only
// runs on the recovery path, never in the tick loop.
func (d *Decoder) String() string {
	n := d.Int()
	if d.err != nil {
		return ""
	}
	if n < 0 || n > d.Remaining() {
		d.err = ErrShort
		return ""
	}
	return string(d.take(n))
}

// ExpectVersion reads a one-byte layout version and fails the decoder if
// it does not match want.
func (d *Decoder) ExpectVersion(want uint8) {
	got := d.U8()
	if d.err == nil && got != want {
		d.err = fmt.Errorf("journal: layout version %d, want %d", got, want)
	}
}

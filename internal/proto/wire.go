// Package proto implements the Connect protocol's plan serialization: a
// hand-rolled Protocol-Buffers-style wire format (varint tags,
// length-delimited submessages) for unresolved logical plans, expressions,
// and commands. The properties the paper's versionless-client story relies
// on are reproduced faithfully:
//
//   - unknown fields are skipped, so old servers tolerate new clients and
//     vice versa (forward/backward compatibility);
//   - messages are language-agnostic byte strings;
//   - relations, expressions, and commands each carry an extension variant
//     (type URL + opaque payload) so plugins can embed custom types without
//     modifying the protocol.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"lakeguard/internal/plan"
)

// Wire types (protobuf-compatible subset).
const (
	wireVarint = 0
	wireBytes  = 2
)

// ErrTruncated reports malformed input.
var ErrTruncated = errors.New("proto: truncated message")

// encoder appends protobuf-style fields to a buffer. A submessage is
// written in place, in its parent's buffer, behind one byte reserved for
// its length. When the body ends, a length under 128 fills that byte; a
// longer one, whose varint needs more bytes, is noted as a patch, and bytes
// splices the full varints in, in one pass. So each byte is written once
// (and a plan with long bodies copied once more) at any nesting depth,
// where building each submessage apart and copying it into its parent would
// copy a byte once per level.
type encoder struct {
	buf     []byte
	open    []openBody // bodies begun and not yet ended, innermost last
	patches []patch
	// grow is the bytes the top-level patches add to buf.
	grow int
}

// openBody is a body that starts at buf[start]; grow is the bytes its
// nested patches add to it.
type openBody struct{ start, grow int }

// patch is a body of n bytes, n >= 128, whose length's varint goes where
// buf[at] holds its reserved byte.
type patch struct{ at, n int }

// begin starts a length-delimited field whose body the caller writes next,
// up to the matching end.
func (e *encoder) begin(field int) {
	e.tag(field, wireBytes)
	e.buf = append(e.buf, 0)
	e.open = push(e.open, openBody{start: len(e.buf)})
}

// end closes the innermost body begin started.
func (e *encoder) end() {
	o := e.open[len(e.open)-1]
	e.open = e.open[:len(e.open)-1]
	n := len(e.buf) - o.start + o.grow
	if n < 0x80 {
		e.buf[o.start-1] = byte(n)
		return
	}
	e.patches = push(e.patches, patch{at: o.start - 1, n: n})
	grow := o.grow + uvarintLen(n) - 1
	if len(e.open) > 0 {
		e.open[len(e.open)-1].grow += grow
	} else {
		e.grow += grow
	}
}

// push appends v, doubling s when it is full: append grows a large slice by
// a quarter, which over a deep plan allocates several times its final size.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s)+1)
	}
	return append(s, v)
}

// bytes returns the encoded message, every patch's varint in place of its
// reserved byte.
func (e *encoder) bytes() []byte {
	if len(e.patches) == 0 {
		return e.buf
	}
	// Bodies end innermost first; the splice goes front to back.
	slices.SortFunc(e.patches, func(a, b patch) int { return a.at - b.at })
	out := make([]byte, 0, len(e.buf)+e.grow)
	prev := 0
	for _, p := range e.patches {
		out = append(out, e.buf[prev:p.at]...)
		out = binary.AppendUvarint(out, uint64(p.n))
		prev = p.at + 1
	}
	return append(out, e.buf[prev:]...)
}

func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

func (e *encoder) tag(field, wire int) {
	e.uvarint(uint64(field)<<3 | uint64(wire))
}

func (e *encoder) uvarint(v uint64) {
	for v >= 0x80 {
		e.buf = append(e.buf, byte(v)|0x80)
		v >>= 7
	}
	e.buf = append(e.buf, byte(v))
}

// Varint writes an unsigned varint field.
func (e *encoder) Varint(field int, v uint64) {
	e.tag(field, wireVarint)
	e.uvarint(v)
}

// Int writes a signed value with zigzag encoding.
func (e *encoder) Int(field int, v int64) {
	e.Varint(field, uint64((v<<1)^(v>>63)))
}

// Bool writes a boolean field (omitted when false).
func (e *encoder) Bool(field int, v bool) {
	if v {
		e.Varint(field, 1)
	}
}

// Float writes a float64 as its IEEE bits.
func (e *encoder) Float(field int, v float64) {
	e.Varint(field, math.Float64bits(v))
}

// Bytes writes a length-delimited field.
func (e *encoder) Bytes(field int, b []byte) {
	e.tag(field, wireBytes)
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String writes a string field (omitted when empty).
func (e *encoder) String(field int, s string) {
	if s != "" {
		e.Bytes(field, []byte(s))
	}
}

// StringAlways writes a string field even when empty.
func (e *encoder) StringAlways(field int, s string) {
	e.Bytes(field, []byte(s))
}

// Msg writes a nested message built by fn.
func (e *encoder) Msg(field int, fn func(*encoder)) {
	e.begin(field)
	fn(e)
	e.end()
}

// decoder iterates protobuf-style fields.
type decoder struct {
	buf []byte
	pos int
	// depth counts the relations and expressions the message is nested in.
	depth int
}

// nested returns a decoder for a relation or expression one level below
// depth. Past plan.MaxNestingDepth it fails instead, so a deeply nested plan
// is a decode error and never a deep recursion.
func nested(b []byte, depth int) (*decoder, error) {
	if depth >= plan.MaxNestingDepth {
		return nil, fmt.Errorf("proto: plan nested deeper than %d levels", plan.MaxNestingDepth)
	}
	return &decoder{buf: b, depth: depth + 1}, nil
}

func (d *decoder) done() bool { return d.pos >= len(d.buf) }

func (d *decoder) uvarint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if d.pos >= len(d.buf) {
			return 0, ErrTruncated
		}
		b := d.buf[d.pos]
		d.pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
		if shift >= 64 {
			return 0, errors.New("proto: varint overflow")
		}
	}
}

// field reads the next tag, returning field number and wire type.
func (d *decoder) field() (int, int, error) {
	t, err := d.uvarint()
	if err != nil {
		return 0, 0, err
	}
	return int(t >> 3), int(t & 7), nil
}

func (d *decoder) varint() (uint64, error) { return d.uvarint() }

func (d *decoder) zigzag() (int64, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(v>>1) ^ -int64(v&1), nil
}

func (d *decoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)-d.pos) {
		return nil, ErrTruncated
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

// skip consumes an unknown field (forward compatibility).
func (d *decoder) skip(wire int) error {
	switch wire {
	case wireVarint:
		_, err := d.uvarint()
		return err
	case wireBytes:
		_, err := d.bytes()
		return err
	}
	return fmt.Errorf("proto: unsupported wire type %d", wire)
}

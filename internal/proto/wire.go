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
	"errors"
	"fmt"
	"math"

	"lakeguard/internal/plan"
)

// Wire types (protobuf-compatible subset).
const (
	wireVarint = 0
	wireBytes  = 2
)

// ErrTruncated reports malformed input.
var ErrTruncated = errors.New("proto: truncated message")

// encoder appends protobuf-style fields to a buffer.
type encoder struct {
	buf []byte
}

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
	var sub encoder
	fn(&sub)
	e.Bytes(field, sub.buf)
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

package types

import (
	"fmt"
	"slices"
)

// Column is a typed vector of values with validity tracking. Columns are
// immutable once built; operators construct new columns via Builder.
type Column struct {
	kind  Kind
	nulls []bool // nil means "no nulls"
	ints  []int64
	flts  []float64
	strs  []string
	n     int
}

// Kind returns the column's scalar kind.
func (c *Column) Kind() Kind { return c.kind }

// Len returns the number of rows.
func (c *Column) Len() int { return c.n }

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool { return c.nulls != nil && c.nulls[i] }

// HasNulls reports whether any row is NULL.
func (c *Column) HasNulls() bool {
	if c.nulls == nil {
		return false
	}
	for _, b := range c.nulls {
		if b {
			return true
		}
	}
	return false
}

// Int64 returns the integer payload of row i (valid for BOOLEAN, BIGINT,
// DATE, TIMESTAMP columns).
func (c *Column) Int64(i int) int64 { return c.ints[i] }

// Float64 returns the float payload of row i.
func (c *Column) Float64(i int) float64 { return c.flts[i] }

// StringAt returns the string payload of row i.
func (c *Column) StringAt(i int) string { return c.strs[i] }

// Int64s exposes the raw integer payload (BOOLEAN/BIGINT/DATE/TIMESTAMP
// columns). The slice is shared with the column and must not be mutated;
// it exists so vectorized kernels can run over whole columns without boxing
// each row into a Value.
func (c *Column) Int64s() []int64 { return c.ints }

// Float64s exposes the raw DOUBLE payload (shared, read-only).
func (c *Column) Float64s() []float64 { return c.flts }

// Strings exposes the raw STRING/BINARY payload (shared, read-only).
func (c *Column) Strings() []string { return c.strs }

// NullMask exposes the validity mask; nil means no NULLs (shared, read-only).
func (c *Column) NullMask() []bool { return c.nulls }

// NewInt64Column wraps a raw integer payload as a column. The column takes
// ownership of the slices; nulls may be nil (no NULLs) or len(vals).
func NewInt64Column(kind Kind, vals []int64, nulls []bool) *Column {
	return &Column{kind: kind, ints: vals, nulls: nulls, n: len(vals)}
}

// NewFloat64Column wraps a raw DOUBLE payload as a column.
func NewFloat64Column(vals []float64, nulls []bool) *Column {
	return &Column{kind: KindFloat64, flts: vals, nulls: nulls, n: len(vals)}
}

// NewStringColumn wraps a raw STRING/BINARY payload as a column.
func NewStringColumn(kind Kind, vals []string, nulls []bool) *Column {
	return &Column{kind: kind, strs: vals, nulls: nulls, n: len(vals)}
}

// Value materializes row i as a scalar Value.
func (c *Column) Value(i int) Value {
	if c.IsNull(i) {
		return Null(c.kind)
	}
	switch c.kind {
	case KindBool, KindInt64, KindDate, KindTimestamp:
		return Value{Kind: c.kind, I: c.ints[i]}
	case KindFloat64:
		return Value{Kind: c.kind, F: c.flts[i]}
	case KindString, KindBinary:
		return Value{Kind: c.kind, S: c.strs[i]}
	}
	return Null(c.kind)
}

// EqualAt reports whether row i equals v as Value.Equal decides, reading
// the row's payload without boxing it: NULL equals NULL, BIGINT and DOUBLE
// compare as floats across kinds, and a NaN compares equal to every float.
func (c *Column) EqualAt(i int, v Value) bool {
	// A row of a kind without a payload boxes to NULL, as in Value.
	rowNull := c.IsNull(i) || !c.kind.Orderable()
	if rowNull || v.Null {
		return rowNull && v.Null
	}
	if v.Kind != c.kind {
		if !v.Kind.Numeric() || !c.kind.Numeric() {
			return false
		}
		if c.kind == KindInt64 {
			return cmpFloat(float64(c.ints[i]), v.F) == 0
		}
		return cmpFloat(c.flts[i], float64(v.I)) == 0
	}
	switch c.kind {
	case KindBool, KindInt64, KindDate, KindTimestamp:
		return c.ints[i] == v.I
	case KindFloat64:
		return cmpFloat(c.flts[i], v.F) == 0
	case KindString, KindBinary:
		return c.strs[i] == v.S
	}
	return false
}

// Gather returns a new column with the rows at the given indices, in order.
// It copies raw payload slices directly instead of boxing each row.
func (c *Column) Gather(indices []int) *Column {
	out := &Column{kind: c.kind, n: len(indices)}
	if c.nulls != nil {
		out.nulls = make([]bool, len(indices))
		for j, i := range indices {
			out.nulls[j] = c.nulls[i]
		}
	}
	switch {
	case c.ints != nil:
		out.ints = make([]int64, len(indices))
		for j, i := range indices {
			out.ints[j] = c.ints[i]
		}
	case c.flts != nil:
		out.flts = make([]float64, len(indices))
		for j, i := range indices {
			out.flts[j] = c.flts[i]
		}
	case c.strs != nil:
		out.strs = make([]string, len(indices))
		for j, i := range indices {
			out.strs[j] = c.strs[i]
		}
	}
	return out
}

// GatherPad is Gather with outer-join padding: an index of -1 produces a
// NULL row instead of reading the payload. It works on columns of any
// length, including empty ones (all indices -1), which is how join tails
// synthesize an all-NULL side without materializing source rows.
func (c *Column) GatherPad(indices []int) *Column {
	out := &Column{kind: c.kind, n: len(indices)}
	needNulls := c.nulls != nil
	if !needNulls {
		for _, i := range indices {
			if i < 0 {
				needNulls = true
				break
			}
		}
	}
	if needNulls {
		out.nulls = make([]bool, len(indices))
	}
	switch c.kind {
	case KindBool, KindInt64, KindDate, KindTimestamp:
		out.ints = make([]int64, len(indices))
		for j, i := range indices {
			if i < 0 {
				out.nulls[j] = true
				continue
			}
			out.ints[j] = c.ints[i]
			if c.nulls != nil {
				out.nulls[j] = c.nulls[i]
			}
		}
	case KindFloat64:
		out.flts = make([]float64, len(indices))
		for j, i := range indices {
			if i < 0 {
				out.nulls[j] = true
				continue
			}
			out.flts[j] = c.flts[i]
			if c.nulls != nil {
				out.nulls[j] = c.nulls[i]
			}
		}
	case KindString, KindBinary:
		out.strs = make([]string, len(indices))
		for j, i := range indices {
			if i < 0 {
				out.nulls[j] = true
				continue
			}
			out.strs[j] = c.strs[i]
			if c.nulls != nil {
				out.nulls[j] = c.nulls[i]
			}
		}
	default:
		for j := range indices {
			if out.nulls == nil {
				out.nulls = make([]bool, len(indices))
			}
			out.nulls[j] = true
		}
	}
	return out
}

// Slice returns rows [from, to) as a view sharing c's payload. Columns are
// immutable, so sharing is safe; each view's capacity ends at `to`, so an
// append to a sliced payload reallocates instead of writing through into
// the rows that follow.
func (c *Column) Slice(from, to int) *Column {
	out := &Column{kind: c.kind, n: to - from}
	if c.nulls != nil {
		out.nulls = c.nulls[from:to:to]
	}
	switch {
	case c.ints != nil:
		out.ints = c.ints[from:to:to]
	case c.flts != nil:
		out.flts = c.flts[from:to:to]
	case c.strs != nil:
		out.strs = c.strs[from:to:to]
	}
	return out
}

// Builder accumulates values into a Column.
type Builder struct {
	col  Column
	hint int // capacity hint, so a NULL mask created mid-build is sized once
}

// NewBuilder creates a builder for the given kind with capacity hint n.
func NewBuilder(kind Kind, n int) *Builder {
	b := &Builder{col: Column{kind: kind}, hint: n}
	switch kind {
	case KindBool, KindInt64, KindDate, KindTimestamp:
		b.col.ints = make([]int64, 0, n)
	case KindFloat64:
		b.col.flts = make([]float64, 0, n)
	case KindString, KindBinary:
		b.col.strs = make([]string, 0, n)
	}
	return b
}

// Append adds a value, casting numerics if needed; mismatched kinds panic
// because they indicate an analyzer bug, not bad user input.
func (b *Builder) Append(v Value) {
	if v.Null {
		b.AppendNull()
		return
	}
	k := b.col.kind
	if v.Kind != k {
		cast, err := v.Cast(k)
		if err != nil {
			panic(fmt.Sprintf("column builder: cannot append %s to %s column", v.Kind, k))
		}
		v = cast
	}
	switch k {
	case KindBool, KindInt64, KindDate, KindTimestamp:
		b.col.ints = append(b.col.ints, v.I)
	case KindFloat64:
		b.col.flts = append(b.col.flts, v.F)
	case KindString, KindBinary:
		b.col.strs = append(b.col.strs, v.S)
	default:
		panic(fmt.Sprintf("column builder: unsupported kind %v", k))
	}
	if b.col.nulls != nil {
		b.col.nulls = append(b.col.nulls, false)
	}
	b.col.n++
}

// AppendNull adds a NULL row.
func (b *Builder) AppendNull() {
	if b.col.nulls == nil {
		b.col.nulls = make([]bool, b.col.n, max(b.hint, b.col.n+1))
	}
	b.col.nulls = append(b.col.nulls, true)
	switch b.col.kind {
	case KindBool, KindInt64, KindDate, KindTimestamp:
		b.col.ints = append(b.col.ints, 0)
	case KindFloat64:
		b.col.flts = append(b.col.flts, 0)
	case KindString, KindBinary:
		b.col.strs = append(b.col.strs, "")
	}
	b.col.n++
}

// AppendColumn appends every row of src via bulk payload copies. Kinds must
// match for the fast path; mismatched kinds fall back to per-value appends
// (which cast numerics like Append).
func (b *Builder) AppendColumn(src *Column) {
	if src.kind != b.col.kind {
		for i := 0; i < src.n; i++ {
			b.Append(src.Value(i))
		}
		return
	}
	if src.nulls != nil {
		if b.col.nulls == nil {
			b.col.nulls = make([]bool, b.col.n, max(b.hint, b.col.n+src.n))
		}
		b.col.nulls = append(b.col.nulls, src.nulls...)
	} else if b.col.nulls != nil {
		b.col.nulls = append(b.col.nulls, make([]bool, src.n)...)
	}
	switch b.col.kind {
	case KindBool, KindInt64, KindDate, KindTimestamp:
		b.col.ints = append(b.col.ints, src.ints...)
	case KindFloat64:
		b.col.flts = append(b.col.flts, src.flts...)
	case KindString, KindBinary:
		b.col.strs = append(b.col.strs, src.strs...)
	}
	b.col.n += src.n
}

// AppendInt64 is a fast path for integer-payload kinds.
func (b *Builder) AppendInt64(v int64) {
	b.col.ints = append(b.col.ints, v)
	if b.col.nulls != nil {
		b.col.nulls = append(b.col.nulls, false)
	}
	b.col.n++
}

// AppendFloat64 is a fast path for DOUBLE columns.
func (b *Builder) AppendFloat64(v float64) {
	b.col.flts = append(b.col.flts, v)
	if b.col.nulls != nil {
		b.col.nulls = append(b.col.nulls, false)
	}
	b.col.n++
}

// AppendString is a fast path for STRING/BINARY columns.
func (b *Builder) AppendString(v string) {
	b.col.strs = append(b.col.strs, v)
	if b.col.nulls != nil {
		b.col.nulls = append(b.col.nulls, false)
	}
	b.col.n++
}

// Len returns the number of rows appended so far.
func (b *Builder) Len() int { return b.col.n }

// Kind returns the kind of the column being built.
func (b *Builder) Kind() Kind { return b.col.kind }

// Build finalizes and returns the column. The builder must not be reused,
// except through Reset.
func (b *Builder) Build() *Column { return &b.col }

// Reset empties the builder for another column of its kind with capacity
// hint n, keeping its payload buffer (a NULL mask is allocated afresh when
// needed). The column it built before shares the payload, so it must no
// longer be read.
func (b *Builder) Reset(n int) {
	c := &b.col
	c.nulls, c.n, b.hint = nil, 0, n
	switch {
	case c.ints != nil:
		c.ints = slices.Grow(c.ints[:0], n)
	case c.flts != nil:
		c.flts = slices.Grow(c.flts[:0], n)
	case c.strs != nil:
		c.strs = slices.Grow(c.strs[:0], n)
	}
}

// ColumnFromValues builds a column of the given kind from scalar values.
func ColumnFromValues(kind Kind, vals []Value) *Column {
	b := NewBuilder(kind, len(vals))
	for _, v := range vals {
		b.Append(v)
	}
	return b.Build()
}

// ConstColumn builds a column repeating v for n rows.
func ConstColumn(v Value, n int) *Column {
	b := NewBuilder(v.Kind, n)
	for i := 0; i < n; i++ {
		b.Append(v)
	}
	return b.Build()
}

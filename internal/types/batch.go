package types

import (
	"fmt"
	"strings"
)

// DefaultBatchSize is the row count operators target per batch.
const DefaultBatchSize = 1024

// Batch is a horizontal slice of a result set: a schema plus one column per
// field, all of equal length.
type Batch struct {
	Schema *Schema
	Cols   []*Column
}

// NewBatch pairs a schema with columns, validating the shape.
func NewBatch(schema *Schema, cols []*Column) (*Batch, error) {
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("batch has %d columns for schema of %d fields", len(cols), schema.Len())
	}
	n := -1
	for i, c := range cols {
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return nil, fmt.Errorf("batch column %d has %d rows, expected %d", i, c.Len(), n)
		}
	}
	return &Batch{Schema: schema, Cols: cols}, nil
}

// MustBatch is NewBatch that panics on shape errors (engine-internal bugs).
func MustBatch(schema *Schema, cols []*Column) *Batch {
	b, err := NewBatch(schema, cols)
	if err != nil {
		panic(err)
	}
	return b
}

// NumRows returns the row count.
func (b *Batch) NumRows() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// NumCols returns the column count.
func (b *Batch) NumCols() int { return len(b.Cols) }

// Row materializes row i as a slice of scalar values.
func (b *Batch) Row(i int) []Value {
	row := make([]Value, len(b.Cols))
	for c, col := range b.Cols {
		row[c] = col.Value(i)
	}
	return row
}

// Rows materializes the whole batch as rows of scalars (test/display use).
func (b *Batch) Rows() [][]Value {
	rows := make([][]Value, b.NumRows())
	for i := range rows {
		rows[i] = b.Row(i)
	}
	return rows
}

// Gather returns a new batch with only the rows at the given indices.
func (b *Batch) Gather(indices []int) *Batch {
	cols := make([]*Column, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = c.Gather(indices)
	}
	return &Batch{Schema: b.Schema, Cols: cols}
}

// Slice returns rows [from, to) as a new batch of column views (see
// Column.Slice).
func (b *Batch) Slice(from, to int) *Batch {
	cols := make([]*Column, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = c.Slice(from, to)
	}
	return &Batch{Schema: b.Schema, Cols: cols}
}

// String renders the batch as an aligned text table (used by Show and the
// SQL shell).
func (b *Batch) String() string { return FormatTable(b.Schema, b.Rows()) }

// FormatTable renders rows under a schema as an aligned text table.
func FormatTable(schema *Schema, rows [][]Value) string {
	headers := schema.Names()
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	cells := make([][]string, len(rows))
	for r, row := range rows {
		cells[r] = make([]string, len(row))
		for c, v := range row {
			s := v.String()
			cells[r][c] = s
			if c < len(widths) && len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	var sb strings.Builder
	writeSep := func() {
		for _, w := range widths {
			sb.WriteByte('+')
			sb.WriteString(strings.Repeat("-", w+2))
		}
		sb.WriteString("+\n")
	}
	writeRow := func(vals []string) {
		for i, v := range vals {
			fmt.Fprintf(&sb, "| %-*s ", widths[i], v)
		}
		sb.WriteString("|\n")
	}
	writeSep()
	writeRow(headers)
	writeSep()
	for _, row := range cells {
		writeRow(row)
	}
	writeSep()
	return sb.String()
}

// BatchBuilder accumulates rows into a batch.
type BatchBuilder struct {
	schema   *Schema
	builders []*Builder
}

// NewBatchBuilder creates a builder for the given schema with capacity hint n.
func NewBatchBuilder(schema *Schema, n int) *BatchBuilder {
	bb := &BatchBuilder{schema: schema, builders: make([]*Builder, schema.Len())}
	for i, f := range schema.Fields {
		bb.builders[i] = NewBuilder(f.Kind, n)
	}
	return bb
}

// AppendRow appends one row of scalar values.
func (bb *BatchBuilder) AppendRow(row []Value) {
	for i, v := range row {
		bb.builders[i].Append(v)
	}
}

// AppendBatch appends every row of b column-wise via bulk payload copies —
// much cheaper than AppendRow per row, which boxes every cell into a Value.
func (bb *BatchBuilder) AppendBatch(b *Batch) {
	for i, c := range b.Cols {
		bb.builders[i].AppendColumn(c)
	}
}

// Column returns the builder for field i (fast-path appends).
func (bb *BatchBuilder) Column(i int) *Builder { return bb.builders[i] }

// Len returns the number of rows appended so far.
func (bb *BatchBuilder) Len() int {
	if len(bb.builders) == 0 {
		return 0
	}
	return bb.builders[0].Len()
}

// Build finalizes the batch. The builder must not be reused.
func (bb *BatchBuilder) Build() *Batch {
	cols := make([]*Column, len(bb.builders))
	for i, b := range bb.builders {
		cols[i] = b.Build()
	}
	return MustBatch(bb.schema, cols)
}

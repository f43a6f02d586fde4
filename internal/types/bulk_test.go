package types

import (
	"fmt"
	"testing"
)

func intCol(t *testing.T, vals []int64, nullAt map[int]bool) *Column {
	t.Helper()
	b := NewBuilder(KindInt64, len(vals))
	for i, v := range vals {
		if nullAt[i] {
			b.AppendNull()
		} else {
			b.Append(Int64(v))
		}
	}
	return b.Build()
}

func TestAppendColumnBulk(t *testing.T) {
	a := intCol(t, []int64{1, 2, 3}, nil)
	b := intCol(t, []int64{4, 5, 6}, map[int]bool{1: true})

	dst := NewBuilder(KindInt64, 6)
	dst.AppendColumn(a)
	dst.AppendColumn(b)
	got := dst.Build()

	if got.Len() != 6 {
		t.Fatalf("len = %d, want 6", got.Len())
	}
	want := []Value{Int64(1), Int64(2), Int64(3), Int64(4), Null(KindInt64), Int64(6)}
	for i, w := range want {
		if v := got.Value(i); !v.Equal(w) || v.Null != w.Null {
			t.Errorf("row %d = %v, want %v", i, v, w)
		}
	}
}

func TestAppendColumnBackfillsNulls(t *testing.T) {
	// First source has no null mask; appending a nullable source must
	// backfill a correct mask for the earlier rows.
	noNulls := intCol(t, []int64{7, 8}, nil)
	withNulls := intCol(t, []int64{9, 10}, map[int]bool{0: true})
	dst := NewBuilder(KindInt64, 4)
	dst.AppendColumn(noNulls)
	dst.AppendColumn(withNulls)
	got := dst.Build()
	for i, wantNull := range []bool{false, false, true, false} {
		if got.IsNull(i) != wantNull {
			t.Errorf("row %d null = %v, want %v", i, got.IsNull(i), wantNull)
		}
	}
	// And the converse: nullable first, mask-less second.
	dst2 := NewBuilder(KindInt64, 4)
	dst2.AppendColumn(withNulls)
	dst2.AppendColumn(noNulls)
	got2 := dst2.Build()
	for i, wantNull := range []bool{true, false, false, false} {
		if got2.IsNull(i) != wantNull {
			t.Errorf("converse row %d null = %v, want %v", i, got2.IsNull(i), wantNull)
		}
	}
}

func TestAppendColumnKindMismatchCasts(t *testing.T) {
	ints := intCol(t, []int64{1, 2}, map[int]bool{1: true})
	dst := NewBuilder(KindFloat64, 2)
	dst.AppendColumn(ints)
	got := dst.Build()
	if got.Kind() != KindFloat64 || got.Float64(0) != 1.0 || !got.IsNull(1) {
		t.Errorf("cast append produced %v / null=%v", got.Value(0), got.IsNull(1))
	}
}

func TestAppendBatch(t *testing.T) {
	schema := NewSchema(
		Field{Name: "a", Kind: KindInt64, Nullable: true},
		Field{Name: "s", Kind: KindString},
	)
	src := NewBatchBuilder(schema, 2)
	src.AppendRow([]Value{Int64(1), String("x")})
	src.AppendRow([]Value{Null(KindInt64), String("y")})
	b := src.Build()

	dst := NewBatchBuilder(schema, 4)
	dst.AppendBatch(b)
	dst.AppendBatch(b)
	out := dst.Build()
	if out.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", out.NumRows())
	}
	if !out.Cols[0].IsNull(3) || out.Cols[1].StringAt(2) != "x" {
		t.Errorf("batch content wrong:\n%s", out.String())
	}
}

func TestGatherAndSlicePreserveNulls(t *testing.T) {
	c := intCol(t, []int64{10, 11, 12, 13, 14}, map[int]bool{1: true, 3: true})
	g := c.Gather([]int{4, 3, 0})
	if g.Len() != 3 || g.Int64(0) != 14 || !g.IsNull(1) || g.Int64(2) != 10 {
		t.Errorf("gather wrong: %v %v %v", g.Value(0), g.Value(1), g.Value(2))
	}
	s := c.Slice(1, 4)
	if s.Len() != 3 || !s.IsNull(0) || s.Int64(1) != 12 || !s.IsNull(2) {
		t.Errorf("slice wrong: %v %v %v", s.Value(0), s.Value(1), s.Value(2))
	}
}

func benchBatches(n, per int) (*Schema, []*Batch) {
	schema := NewSchema(
		Field{Name: "id", Kind: KindInt64},
		Field{Name: "score", Kind: KindFloat64, Nullable: true},
		Field{Name: "tag", Kind: KindString},
	)
	batches := make([]*Batch, n)
	for bi := range batches {
		bb := NewBatchBuilder(schema, per)
		for i := 0; i < per; i++ {
			row := []Value{Int64(int64(bi*per + i)), Float64(float64(i) * 0.5), String(fmt.Sprintf("t%d", i%16))}
			if i%11 == 0 {
				row[1] = Null(KindFloat64)
			}
			bb.AppendRow(row)
		}
		batches[bi] = bb.Build()
	}
	return schema, batches
}

// BenchmarkConcatRowWise is the old ExecuteToBatch concat path: every cell
// boxed into a Value and appended one row at a time.
func BenchmarkConcatRowWise(b *testing.B) {
	schema, batches := benchBatches(16, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bb := NewBatchBuilder(schema, 16*1024)
		for _, batch := range batches {
			for r := 0; r < batch.NumRows(); r++ {
				bb.AppendRow(batch.Row(r))
			}
		}
		_ = bb.Build()
	}
}

// BenchmarkConcatColumnWise is the bulk path: payload slices appended whole.
func BenchmarkConcatColumnWise(b *testing.B) {
	schema, batches := benchBatches(16, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bb := NewBatchBuilder(schema, 16*1024)
		for _, batch := range batches {
			bb.AppendBatch(batch)
		}
		_ = bb.Build()
	}
}

// Slice shares the payload without copying, and an append to a sliced
// payload reallocates instead of overwriting the source's next rows.
func TestSliceIsCappedView(t *testing.T) {
	c := intCol(t, []int64{10, 11, 12, 13, 14}, map[int]bool{4: true})
	s := c.Slice(1, 3)
	if &s.Int64s()[0] != &c.Int64s()[1] || &s.NullMask()[0] != &c.NullMask()[1] {
		t.Fatal("Slice copied the payload")
	}
	_ = append(s.Int64s(), 99)
	_ = append(s.NullMask(), true)
	if c.Int64(3) != 13 || c.IsNull(3) {
		t.Errorf("append through a slice wrote into the source: %v %v", c.Value(2), c.Value(3))
	}
}

// A builder reused through Reset builds each column from its own appends
// only: no row, and no NULL bit, of the column before survives.
func TestBuilderResetStartsClean(t *testing.T) {
	b := NewBuilder(KindInt64, 4)
	for i := 0; i < 6; i++ {
		if i%2 == 1 {
			b.AppendNull()
		} else {
			b.AppendInt64(int64(i))
		}
	}
	if c := b.Build(); c.Len() != 6 || !c.IsNull(5) {
		t.Fatalf("first column: %v", c.NullMask())
	}
	b.Reset(3)
	b.AppendInt64(7)
	b.AppendInt64(8)
	if c := b.Build(); c.Len() != 2 || c.HasNulls() || c.NullMask() != nil || c.Int64(1) != 8 {
		t.Fatalf("after Reset: len %d nulls %v", c.Len(), c.NullMask())
	}
	b.Reset(3)
	b.AppendInt64(1)
	b.AppendInt64(2)
	b.AppendNull()
	c := b.Build()
	if c.Len() != 3 || c.IsNull(0) || c.IsNull(1) || !c.IsNull(2) || c.Int64(1) != 2 {
		t.Fatalf("NULL after Reset: len %d nulls %v", c.Len(), c.NullMask())
	}
}

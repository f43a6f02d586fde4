package arrowipc

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lakeguard/internal/types"
)

func sampleSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "name", Kind: types.KindString, Nullable: true},
		types.Field{Name: "score", Kind: types.KindFloat64, Nullable: true},
		types.Field{Name: "ok", Kind: types.KindBool, Nullable: true},
		types.Field{Name: "day", Kind: types.KindDate, Nullable: true},
		types.Field{Name: "blob", Kind: types.KindBinary, Nullable: true},
	)
}

func sampleBatch(n int, seed int64) *types.Batch {
	rng := rand.New(rand.NewSource(seed))
	schema := sampleSchema()
	cols := make([]*types.Builder, schema.Len())
	for c, f := range schema.Fields {
		cols[c] = types.NewBuilder(f.Kind, n)
	}
	for i := 0; i < n; i++ {
		cols[0].AppendInt64(rng.Int63())
		name := types.String(string(rune('a' + i%26)))
		score := types.Float64(rng.NormFloat64())
		// Sprinkle NULLs into nullable columns.
		for c, v := range []types.Value{
			name, score, types.Bool(i%2 == 0), types.Date(int64(20000 + i)),
			types.Binary([]byte{byte(i), 0xff, 0x00}),
		} {
			if rng.Intn(5) == 0 {
				v = types.Null(schema.Fields[c+1].Kind)
			}
			cols[c+1].Append(v)
		}
	}
	return buildBatch(schema, cols)
}

func buildBatch(schema *types.Schema, builders []*types.Builder) *types.Batch {
	cols := make([]*types.Column, len(builders))
	for i, b := range builders {
		cols[i] = b.Build()
	}
	return types.MustBatch(schema, cols)
}

// batchesEqual compares schemas field by field and every cell column by
// column, NULLs by position and floats by bit pattern.
func batchesEqual(a, b *types.Batch) bool {
	if len(a.Schema.Fields) != len(b.Schema.Fields) || a.NumRows() != b.NumRows() || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i, f := range a.Schema.Fields {
		if f != b.Schema.Fields[i] {
			return false
		}
	}
	for c, ca := range a.Cols {
		cb := b.Cols[c]
		if ca.Kind() != cb.Kind() {
			return false
		}
		for i := 0; i < a.NumRows(); i++ {
			va, vb := ca.Value(i), cb.Value(i)
			if va.Null != vb.Null {
				return false
			}
			if va.Null {
				continue
			}
			if va.Kind == types.KindFloat64 {
				if math.Float64bits(va.F) != math.Float64bits(vb.F) {
					return false
				}
				continue
			}
			if !va.Equal(vb) {
				return false
			}
		}
	}
	return true
}

// nextAll reads the rest of a stream with Next, one batch per frame.
func nextAll(rd *Reader) ([]*types.Batch, error) {
	var out []*types.Batch
	for {
		b, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	schema := sampleSchema()
	w, err := NewWriter(&buf, schema)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := sampleBatch(100, 1), sampleBatch(3, 2)
	if err := w.WriteBatch(b1); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(b2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Schema().Equal(schema) {
		t.Fatalf("schema mismatch: %s", rd.Schema())
	}
	got, err := nextAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !batchesEqual(got[0], b1) || !batchesEqual(got[1], b2) {
		t.Fatal("round trip mismatch")
	}
	// Reading past EOF keeps returning EOF.
	if _, err := rd.Next(); err != io.EOF {
		t.Errorf("post-end read err = %v", err)
	}
}

func TestEmptyBatchAndEmptyStream(t *testing.T) {
	schema := sampleSchema()
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, schema)
	empty := types.NewBatchBuilder(schema, 0).Build()
	if err := w.WriteBatch(empty); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nextAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].NumRows() != 0 {
		t.Fatal("empty batch round trip failed")
	}
}

func TestWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, sampleSchema())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(sampleBatch(1, 3)); err != ErrClosed {
		t.Errorf("want ErrClosed, got %v", err)
	}
	// Double close is fine.
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestSchemaMismatchRejected(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, sampleSchema())
	other := types.NewBatchBuilder(types.NewSchema(types.Field{Name: "x", Kind: types.KindInt64}), 0).Build()
	if err := w.WriteBatch(other); err == nil {
		t.Error("expected schema mismatch error")
	}
}

func TestEncodeDecodeBatch(t *testing.T) {
	b := sampleBatch(57, 4)
	data, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if !batchesEqual(b, got) {
		t.Fatal("EncodeBatch/DecodeBatch mismatch")
	}
}

func TestCorruptInput(t *testing.T) {
	b := sampleBatch(10, 5)
	data, _ := EncodeBatch(b)
	// Truncations at every prefix must error, never panic.
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := DecodeBatch(data[:cut]); err == nil {
			t.Errorf("truncation at %d: expected error", cut)
		}
	}
	// Corrupt the length prefix.
	bad := append([]byte{}, data...)
	bad[0], bad[1], bad[2], bad[3] = 0xff, 0xff, 0xff, 0xff
	if _, err := DecodeBatch(bad); err == nil {
		t.Error("corrupt length accepted")
	}
}

func TestConcatBatches(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "n", Kind: types.KindInt64})
	mk := func(vals ...int64) *types.Batch {
		return types.MustBatch(schema, []*types.Column{types.NewInt64Column(types.KindInt64, vals, nil)})
	}
	got, err := ConcatBatches(schema, []*types.Batch{mk(1, 2), mk(3)})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 || got.Cols[0].Int64(2) != 3 {
		t.Fatal("concat wrong")
	}
	empty, err := ConcatBatches(schema, nil)
	if err != nil || empty.NumRows() != 0 {
		t.Fatal("empty concat wrong")
	}
}

// Property: round trip is identity for arbitrary int/string/null content.
func TestPropertyRoundTrip(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "a", Kind: types.KindInt64, Nullable: true},
		types.Field{Name: "b", Kind: types.KindString, Nullable: true},
	)
	f := func(ints []int64, strs []string, nullEvery uint8) bool {
		n := len(ints)
		if len(strs) < n {
			n = len(strs)
		}
		cols := []*types.Builder{types.NewBuilder(types.KindInt64, n), types.NewBuilder(types.KindString, n)}
		for i := 0; i < n; i++ {
			row := []types.Value{types.Int64(ints[i]), types.String(strs[i])}
			if nullEvery > 0 && i%(int(nullEvery)+1) == 0 {
				row[i%2] = types.Null(schema.Fields[i%2].Kind)
			}
			cols[0].Append(row[0])
			cols[1].Append(row[1])
		}
		b := buildBatch(schema, cols)
		data, err := EncodeBatch(b)
		if err != nil {
			return false
		}
		got, err := DecodeBatch(data)
		if err != nil {
			return false
		}
		return batchesEqual(b, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFloatSpecialsRoundTrip(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "f", Kind: types.KindFloat64, Nullable: true})
	b := types.MustBatch(schema, []*types.Column{types.NewFloat64Column(
		[]float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}, nil)})
	data, _ := EncodeBatch(b)
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Cols[0].Float64(0), 1) || !math.IsInf(got.Cols[0].Float64(1), -1) || !math.IsNaN(got.Cols[0].Float64(2)) {
		t.Fatal("float specials mangled")
	}
	if math.Signbit(got.Cols[0].Float64(3)) != true {
		t.Fatal("-0.0 sign lost")
	}
}

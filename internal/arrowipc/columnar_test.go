package arrowipc

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"

	"lakeguard/internal/types"
)

// goldenBatch is three rows over every payload kind, with NULLs and -0.0.
func goldenBatch() *types.Batch {
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "name", Kind: types.KindString, Nullable: true},
		types.Field{Name: "score", Kind: types.KindFloat64, Nullable: true},
		types.Field{Name: "ok", Kind: types.KindBool},
		types.Field{Name: "day", Kind: types.KindDate, Nullable: true},
		types.Field{Name: "blob", Kind: types.KindBinary, Nullable: true},
	)
	rows := [][]types.Value{
		{types.Int64(1), types.String("ab"), types.Float64(1.5), types.Bool(true), types.Date(19000), types.Binary([]byte{0, 1})},
		{types.Int64(2), types.Null(types.KindString), types.Null(types.KindFloat64), types.Bool(false), types.Null(types.KindDate), types.Null(types.KindBinary)},
		{types.Int64(-3), types.String(""), types.Float64(math.Copysign(0, -1)), types.Bool(true), types.Date(0), types.Binary([]byte("z"))},
	}
	bs := make([]*types.Builder, schema.Len())
	for i, f := range schema.Fields {
		bs[i] = types.NewBuilder(f.Kind, len(rows))
	}
	for _, r := range rows {
		for i, v := range r {
			bs[i].Append(v)
		}
	}
	return buildBatch(schema, bs)
}

// The wire bytes of goldenBatch, as a single-batch stream and as a Writer
// stream of the batch followed by its second row. Encoding must stay
// byte-identical: data files and sandbox frames already in the wild hold it.
const (
	goldenSingle = "2f00000000060002006964020004006e616d650401050073636f726503010200" +
		"6f6b0100030064617906010400626c6f62050194000000010300000000010000" +
		"00000000000200000000000000fdffffffffffffff0102000000000200000002" +
		"0000000200000061620102000000000000f83f00000000000000000000000000" +
		"000080000100000000000000000000000000000001000000000000000102384a" +
		"0000000000000000000000000000000000000000000001020000000002000000" +
		"020000000300000000017a0100000002"
	goldenStream = "2f00000000060002006964020004006e616d650401050073636f726503010200" +
		"6f6b0100030064617906010400626c6f62050194000000010300000000010000" +
		"00000000000200000000000000fdffffffffffffff0102000000000200000002" +
		"0000000200000061620102000000000000f83f00000000000000000000000000" +
		"000080000100000000000000000000000000000001000000000000000102384a" +
		"0000000000000000000000000000000000000000000001020000000002000000" +
		"020000000300000000017a3f0000000101000000000200000000000000010100" +
		"0000000000000001010000000000000000000000000000000000010100000000" +
		"00000000010100000000000000000100000002"
)

func TestWireBytesUnchanged(t *testing.T) {
	b := goldenBatch()
	data, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != goldenSingle {
		t.Fatalf("EncodeBatch bytes changed:\n got %s\nwant %s", got, goldenSingle)
	}
	if len(data) != EncodedLen(b) || cap(data) != len(data) {
		t.Fatalf("EncodeBatch len %d cap %d, EncodedLen %d: want one exact buffer", len(data), cap(data), EncodedLen(b))
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(b.Slice(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != goldenStream {
		t.Fatalf("Writer bytes changed:\n got %s\nwant %s", got, goldenStream)
	}
	got, err := DecodeBatch(data)
	if err != nil || !batchesEqual(b, got) {
		t.Fatalf("golden batch does not round-trip: %v", err)
	}
}

func TestAppendEncodedBehindPrefix(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	b := sampleBatch(100, 9)
	want, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	allocs := testing.AllocsPerRun(20, func() {
		out = make([]byte, 3, 3+EncodedLen(b))
		out, err = AppendEncoded(out, b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[3:], want) || len(out) != cap(out) {
		t.Fatalf("AppendEncoded wrote %d bytes into cap %d, want the %d EncodeBatch bytes", len(out)-3, cap(out), len(want))
	}
	if allocs != 1 {
		t.Fatalf("AppendEncoded into a presized buffer: %v allocations, want only the caller's", allocs)
	}
}

// EncodeBatch's buffer is exactly the stream, whatever its length: every
// length from one string column of 0 to 63 bytes — most of them not an
// allocator size class — gets one allocation of exactly EncodedLen bytes.
func TestEncodeBatchExactBufferAnyLength(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "s", Kind: types.KindString})
	for l := 0; l < 64; l++ {
		b := &types.Batch{Schema: schema, Cols: []*types.Column{
			types.NewStringColumn(types.KindString, []string{string(make([]byte, l))}, nil),
		}}
		data, err := EncodeBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != EncodedLen(b) || cap(data) != len(data) {
			t.Fatalf("%d-byte string: EncodeBatch len %d cap %d, EncodedLen %d", l, len(data), cap(data), EncodedLen(b))
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(10, func() { data, err = EncodeBatch(b) }); allocs != 1 {
			t.Fatalf("%d-byte string: EncodeBatch made %v allocations, want 1", l, allocs)
		}
	}
}

// hostileStream is a 22-byte stream — one BIGINT field, one batch frame
// holding only a column header — whose batch claims rows rows.
func hostileStream(rows uint32) []byte {
	schema := types.NewSchema(types.Field{Name: "a", Kind: types.KindInt64})
	data, _ := appendSchemaFrame(nil, schema)
	data = binary.LittleEndian.AppendUint32(data, 6)
	data = append(data, msgBatch)
	data = binary.LittleEndian.AppendUint32(data, rows)
	data = append(data, 0)
	return data
}

// allocatedBy returns the bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A row count the payload cannot hold is rejected before anything is
// reserved for it: every column spends at least 4 bytes per row.
func TestHostileRowCountRejectedBeforeAllocating(t *testing.T) {
	for _, rows := range []uint32{1 << 28, math.MaxUint32} {
		data := hostileStream(rows)
		if len(data) != 22 {
			t.Fatalf("hostile stream is %d bytes, want 22", len(data))
		}
		decoders := map[string]func() error{
			"DecodeBatch": func() error { _, err := DecodeBatch(data); return err },
			"Next": func() error {
				rd, err := NewReader(bytes.NewReader(data))
				if err == nil {
					_, err = rd.Next()
				}
				return err
			},
			"Drain": func() error {
				rd, err := NewReader(bytes.NewReader(data))
				if err == nil {
					_, _, err = rd.Drain()
				}
				return err
			},
		}
		for name, decode := range decoders {
			var err error
			n := allocatedBy(func() { err = decode() })
			if err == nil {
				t.Errorf("%s accepted a batch claiming %d rows in 22 bytes", name, rows)
			}
			if n >= 1<<20 {
				t.Errorf("%s allocated %d bytes rejecting %d claimed rows, want < 1 MiB", name, n, rows)
			}
		}
	}
}

// A corrupt frame length must not make the stream reader reserve the claimed
// size before the bytes arrive.
func TestHostileFrameLengthBoundedByBytesRead(t *testing.T) {
	data := hostileStream(0)[:12]
	data = binary.LittleEndian.AppendUint32(data, MaxFrameSize)
	data = append(data, msgBatch, 0, 0, 0, 0)
	var err error
	n := allocatedBy(func() {
		var rd *Reader
		if rd, err = NewReader(bytes.NewReader(data)); err == nil {
			_, err = rd.Next()
		}
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if n > 2*readChunk {
		t.Fatalf("allocated %d bytes for a 64 MiB claim backed by 5 bytes", n)
	}
}

// DecodeBatch reads frames in place; the batch it returns must not alias
// the input.
func TestDecodeBatchOwnsItsMemory(t *testing.T) {
	b := goldenBatch()
	data, _ := EncodeBatch(b)
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] ^= 0xff
	}
	if !batchesEqual(b, got) {
		t.Fatal("mutating the input bytes changed the decoded batch")
	}
}

// multiFrameStream writes frames batches of rows rows each.
func multiFrameStream(t testing.TB, frames, rows int) ([]byte, []*types.Batch) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	var batches []*types.Batch
	for i := 0; i < frames; i++ {
		b := sampleBatch(rows, int64(i))
		batches = append(batches, b)
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), batches
}

func TestDrainEqualsConcatOfNext(t *testing.T) {
	data, batches := multiFrameStream(t, 7, 50)
	want, err := ConcatBatches(sampleSchema(), batches)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, frames, err := rd.Drain()
	if err != nil || frames != 7 || !batchesEqual(want, got) {
		t.Fatalf("Drain = %d frames, err %v, equal %v", frames, err, err == nil && batchesEqual(want, got))
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("Next after Drain = %v, want io.EOF", err)
	}
	if got, err := DecodeBatch(data); err != nil || !batchesEqual(want, got) {
		t.Fatalf("DecodeBatch of a multi-frame stream: %v", err)
	}
}

// Cut anywhere, Drain returns exactly the frames received whole — the index
// a reattach resumes from — and an error, never a silently short result.
func TestDrainReportsFramesBeforeCut(t *testing.T) {
	data, batches := multiFrameStream(t, 5, 20)
	// Frame boundaries: after the schema frame, then after each batch frame.
	var ends []int
	for pos := 0; pos < len(data); {
		pos += 4 + int(binary.LittleEndian.Uint32(data[pos:]))
		ends = append(ends, pos)
	}
	for cut := ends[0]; cut < len(data); cut++ {
		whole := 0
		for whole < len(batches) && ends[whole+1] <= cut {
			whole++
		}
		rd, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		got, frames, err := rd.Drain()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
		want, _ := ConcatBatches(sampleSchema(), batches[:whole])
		if frames != whole || !batchesEqual(want, got) {
			t.Fatalf("cut at %d: %d frames / %d rows, want %d / %d", cut, frames, got.NumRows(), whole, want.NumRows())
		}
		if _, err := DecodeBatch(data[:cut]); err == nil {
			t.Fatalf("DecodeBatch accepted a stream cut at %d", cut)
		}
	}
}

func TestConcatBatchesLoneBatch(t *testing.T) {
	b := sampleBatch(10, 3)
	got, err := ConcatBatches(sampleSchema(), []*types.Batch{b})
	if err != nil || got != b {
		t.Fatalf("lone batch not passed through unchanged: %v", err)
	}
	other := types.NewSchema(types.Field{Name: "x", Kind: types.KindInt64})
	if _, err := ConcatBatches(other, []*types.Batch{b}); err == nil {
		t.Fatal("lone batch with a mismatched schema accepted")
	}
	if _, err := ConcatBatches(sampleSchema(), []*types.Batch{b, types.NewBatchBuilder(other, 0).Build()}); err == nil {
		t.Fatal("mismatched second batch accepted")
	}
}

// Decode and concat allocate per column (and per frame), never per row:
// the same shape costs the same number of allocations at 16 and at 1024
// rows a frame (give or take a stray runtime allocation).
func TestAllocationsScaleWithColumnsNotRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ncols := sampleSchema().Len()
	for _, tc := range []struct {
		name string
		run  func(rows int) func()
	}{
		{"DecodeBatch", func(rows int) func() {
			data, _ := EncodeBatch(sampleBatch(rows, 1))
			return func() {
				if _, err := DecodeBatch(data); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"Drain of 40 frames", func(rows int) func() {
			data, _ := multiFrameStream(t, 40, rows)
			return func() {
				rd, err := NewReader(bytes.NewReader(data))
				if err == nil {
					_, _, err = rd.Drain()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"ConcatBatches of 40 batches", func(rows int) func() {
			_, batches := multiFrameStream(t, 40, rows)
			return func() {
				if _, err := ConcatBatches(sampleSchema(), batches); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		small := testing.AllocsPerRun(10, tc.run(16))
		large := testing.AllocsPerRun(10, tc.run(1024))
		if large > small+2 {
			t.Errorf("%s: %v allocations at 1024 rows a frame vs %v at 16", tc.name, large, small)
		}
		// Per column: payload, NULL mask and Column; per frame: the body
		// and one slab per string column; plus a few fixed structs.
		if limit := float64(3*ncols + 3*40 + 32); large > limit {
			t.Errorf("%s: %v allocations for %d columns, want <= %v", tc.name, large, ncols, limit)
		}
	}
}

func TestNullTypedColumnRoundTrips(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "x", Kind: types.KindNull, Nullable: true})
	for _, n := range []int{0, 1, 9} {
		b := types.MustBatch(schema, []*types.Column{types.ConstColumn(types.Null(types.KindNull), n)})
		data, err := EncodeBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBatch(data)
		if err != nil || !batchesEqual(b, got) {
			t.Fatalf("%d NULL rows: %v", n, err)
		}
	}
}

// A Decoder reused across streams whose columns change kind, length and
// NULLs decodes each exactly as a fresh DecodeBatch does — payloads under
// NULL rows included — and an Assembly of partitions equals the decode of
// the whole.
func TestDecoderAndAssemblyMatchFreshDecode(t *testing.T) {
	col := func(kind types.Kind, n int, nullEvery int) *types.Column {
		var nulls []bool
		if nullEvery > 0 {
			nulls = make([]bool, n)
			for i := 1; i < n; i += nullEvery {
				nulls[i] = true
			}
		}
		switch kind {
		case types.KindFloat64:
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(i) + 0.5 // non-zero under NULL rows too
			}
			return types.NewFloat64Column(v, nulls)
		case types.KindString:
			v := make([]string, n)
			for i := range v {
				v[i] = "s" + string(rune('a'+i%26))
			}
			return types.NewStringColumn(kind, v, nulls)
		}
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i*7 + 1)
		}
		return types.NewInt64Column(kind, v, nulls)
	}
	batch := func(n int, cols ...struct {
		kind      types.Kind
		nullEvery int
	}) *types.Batch {
		schema := &types.Schema{}
		var cs []*types.Column
		for i, c := range cols {
			schema.Fields = append(schema.Fields, types.Field{Name: "c" + string(rune('0'+i)), Kind: c.kind, Nullable: true})
			cs = append(cs, col(c.kind, n, c.nullEvery))
		}
		return types.MustBatch(schema, cs)
	}
	type c = struct {
		kind      types.Kind
		nullEvery int
	}
	batches := []*types.Batch{
		batch(300, c{types.KindInt64, 0}, c{types.KindString, 0}),
		batch(40, c{types.KindFloat64, 3}, c{types.KindInt64, 2}),
		batch(10, c{types.KindString, 4}, c{types.KindFloat64, 0}, c{types.KindDate, 5}),
		batch(0, c{types.KindInt64, 0}),
		batch(25, c{types.KindInt64, 3}, c{types.KindString, 2}),
	}
	same := func(what string, got, want *types.Batch) {
		t.Helper()
		if !got.Schema.Equal(want.Schema) || got.NumRows() != want.NumRows() {
			t.Fatalf("%s: %s x %d, want %s x %d", what, got.Schema, got.NumRows(), want.Schema, want.NumRows())
		}
		for i := range got.Cols {
			g, w := got.Cols[i], want.Cols[i]
			if !equalSlices(g.Int64s(), w.Int64s()) || !equalSlices(g.Float64s(), w.Float64s()) ||
				!equalSlices(g.Strings(), w.Strings()) || !equalSlices(g.NullMask(), w.NullMask()) {
				t.Fatalf("%s: column %d differs from a fresh decode", what, i)
			}
		}
	}
	var d Decoder
	for bi, b := range batches {
		enc, err := EncodeBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeBatch(enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		same("Decoder batch "+string(rune('0'+bi)), got, want)

		// The same rows as three partitions, decoded in reverse order.
		n := b.NumRows()
		cuts := []int{0, n / 3, n / 2, n}
		sizes := []int{cuts[1] - cuts[0], cuts[2] - cuts[1], cuts[3] - cuts[2]}
		asm := NewAssembly(b.Schema, sizes)
		for p := 2; p >= 0; p-- {
			part, err := EncodeBatch(b.Slice(cuts[p], cuts[p+1]))
			if err != nil {
				t.Fatal(err)
			}
			if err := asm.DecodePart(p, part); err != nil {
				t.Fatal(err)
			}
		}
		same("Assembly batch "+string(rune('0'+bi)), asm.Batch(), want)
	}
	// A part with the wrong row count or schema is refused.
	asm := NewAssembly(batches[1].Schema, []int{5})
	enc, _ := EncodeBatch(batches[1].Slice(0, 4))
	if err := asm.DecodePart(0, enc); err == nil {
		t.Error("a part with 4 of 5 rows was accepted")
	}
	enc, _ = EncodeBatch(batches[4].Slice(0, 5))
	if err := asm.DecodePart(0, enc); err == nil {
		t.Error("a part of another schema was accepted")
	}
}

func equalSlices[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

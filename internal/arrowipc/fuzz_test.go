package arrowipc

import (
	"bytes"
	"io"
	"math"
	"testing"

	"lakeguard/internal/types"
)

// Allocation bounds for decoding n hostile bytes: at most k*n + allocSlack.
// Draining decodes into columns allocated once per field; frame-by-frame
// decoding also pays a Column per field per frame, so its k is larger. The
// slack covers the reader's read-ahead chunk.
const (
	allocPerByteDrain = 128
	allocPerByteNext  = 512
	allocSlack        = 2*readChunk + 64<<10
)

// seeds returns the package's test fixtures as fuzz seeds, whole and
// damaged.
func seeds(f *testing.F) [][]byte {
	floats := types.MustBatch(
		types.NewSchema(types.Field{Name: "f", Kind: types.KindFloat64, Nullable: true}),
		[]*types.Column{types.NewFloat64Column([]float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}, nil)})
	var out [][]byte
	for _, b := range []*types.Batch{
		sampleBatch(0, 1), sampleBatch(1, 2), sampleBatch(9, 4), goldenBatch(), floats,
		types.NewBatchBuilder(types.NewSchema(), 0).Build(),
	} {
		data, err := EncodeBatch(b)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, data, data[:len(data)/2])
	}
	stream, _ := multiFrameStream(f, 3, 2)
	out = append(out, stream)
	var empty bytes.Buffer
	w, _ := NewWriter(&empty, sampleSchema())
	_ = w.Close()
	return append(out, empty.Bytes(), hostileStream(1<<28))
}

func checkAllocated(t *testing.T, what string, allocated uint64, input, perByte int) {
	t.Helper()
	if limit := uint64(perByte*input + allocSlack); allocated > limit {
		t.Fatalf("%s allocated %d bytes for %d input bytes (limit %d)", what, allocated, input, limit)
	}
}

// checkRoundTrip asserts decode(encode(b)) == b and that encoding a decoded
// batch is a fixed point.
func checkRoundTrip(t *testing.T, b *types.Batch) {
	t.Helper()
	enc, err := EncodeBatch(b)
	if err != nil {
		t.Fatalf("re-encoding a decoded batch: %v", err)
	}
	got, err := DecodeBatch(enc)
	if err != nil {
		t.Fatalf("decoding a re-encoded batch: %v", err)
	}
	if !batchesEqual(b, got) {
		t.Fatal("decode(encode(b)) != b")
	}
	if again, _ := EncodeBatch(got); !bytes.Equal(again, enc) {
		t.Fatal("encoding a decoded batch is not a fixed point")
	}
}

// FuzzDecodeBatch drives the in-place []byte path: no panic, bounded
// allocation, and an exact round trip for whatever decodes.
func FuzzDecodeBatch(f *testing.F) {
	for _, data := range seeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b *types.Batch
		var err error
		allocated := allocatedBy(func() { b, err = DecodeBatch(data) })
		checkAllocated(t, "DecodeBatch", allocated, len(data), allocPerByteDrain)
		if err == nil {
			checkRoundTrip(t, b)
		}
	})
}

// drainWith drains data through a reader over buf and returns what Drain
// returns and the buffer to read the next stream into. When the schema
// frame fails, the batch is nil and buf comes back as it was.
func drainWith(data, buf []byte) (b *types.Batch, frames int, next []byte, err error) {
	rd, err := NewReaderBuffer(bytes.NewReader(data), buf)
	if err != nil {
		return nil, 0, buf, err
	}
	b, frames, err = rd.Drain()
	return b, frames, rd.Buffer(), err
}

// FuzzReader drives the io.Reader stream path twice — frame by frame with
// Next and all at once with Drain — and requires them to agree: Drain stops
// at the frame Next stops at and holds exactly what Next returned before it.
// It then drains a second stream through the first drain's buffer: that
// answer equals a drain through a fresh buffer, and the first answer is
// unchanged by it.
func FuzzReader(f *testing.F) {
	all := seeds(f)
	for i, data := range all {
		f.Add(data, all[(i+1)%len(all)])
	}
	f.Fuzz(func(t *testing.T, data, second []byte) {
		var schema *types.Schema
		var batches []*types.Batch
		var openErr, nextErr error
		allocated := allocatedBy(func() {
			rd, err := NewReader(bytes.NewReader(data))
			if err != nil {
				openErr = err
				return
			}
			schema = rd.Schema()
			for {
				b, err := rd.Next()
				if err != nil {
					nextErr = err
					return
				}
				batches = append(batches, b)
			}
		})
		checkAllocated(t, "Next", allocated, len(data), allocPerByteNext)

		var drained *types.Batch
		var frames int
		var buf []byte
		var drainErr error
		allocated = allocatedBy(func() { drained, frames, buf, drainErr = drainWith(data, nil) })
		checkAllocated(t, "Drain", allocated, len(data), allocPerByteDrain)

		want2, frames2, _, err2 := drainWith(second, nil)
		var got2 *types.Batch
		var reusedFrames int
		var reusedErr error
		allocated = allocatedBy(func() { got2, reusedFrames, _, reusedErr = drainWith(second, buf) })
		checkAllocated(t, "Drain through a reused buffer", allocated, len(second), allocPerByteDrain)
		if reusedFrames != frames2 || (reusedErr == nil) != (err2 == nil) || (got2 == nil) != (want2 == nil) ||
			(got2 != nil && !batchesEqual(want2, got2)) {
			t.Fatalf("Drain through a reused buffer: %d frames, err %v; through a fresh one: %d frames, err %v",
				reusedFrames, reusedErr, frames2, err2)
		}

		if openErr != nil {
			if drained != nil || drainErr == nil {
				t.Fatalf("NewReader disagrees with itself: %v vs %v", openErr, drainErr)
			}
			return
		}
		if drained == nil {
			t.Fatalf("NewReader disagrees with itself: <nil> vs %v", drainErr)
		}
		if frames != len(batches) || (drainErr == nil) != (nextErr == io.EOF) {
			t.Fatalf("Drain: %d frames, err %v; Next: %d batches, then %v", frames, drainErr, len(batches), nextErr)
		}
		want, err := ConcatBatches(schema, batches)
		if err != nil || !batchesEqual(want, drained) {
			t.Fatalf("Drain differs from the concat of Next's batches, after a second drain through its buffer (%v)", err)
		}
		checkRoundTrip(t, drained)

		// The batches survive a Writer stream round trip one by one.
		var stream bytes.Buffer
		w, err := NewWriter(&stream, schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if err := w.WriteBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rd, err := NewReader(&stream)
		if err != nil {
			t.Fatal(err)
		}
		got, err := nextAll(rd)
		if err != nil || len(got) != len(batches) {
			t.Fatalf("Writer round trip: %d of %d batches, %v", len(got), len(batches), err)
		}
		for i := range got {
			if !batchesEqual(batches[i], got[i]) {
				t.Fatalf("Writer round trip changed batch %d", i)
			}
		}
	})
}

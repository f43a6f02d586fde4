package connect

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"lakeguard/internal/types"
)

// answerBytes is the memory a decoded batch's cells take: 8 bytes a row
// for ints and floats, a string header a row plus the bytes its rows
// slice, and a NULL mask for a column that has NULLs.
func answerBytes(b *types.Batch) uint64 {
	n := b.NumRows()
	total := 0
	for _, col := range b.Cols {
		switch col.Kind() {
		case types.KindString, types.KindBinary:
			total += 16 * n
			for _, s := range col.Strings()[:n] {
				total += len(s)
			}
		default:
			total += 8 * n
		}
		if col.HasNulls() {
			total += n
		}
	}
	return uint64(total)
}

// Once a Client has drained one answer, collecting another of the same
// shape allocates the answer's columns and string slabs and a fixed cost
// for the round trip, not the answer's wire bytes: the client reads frames
// into the buffer it kept, and the server writes them through a pooled one.
func TestCollectAllocatesAnswerNotWireBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// The fixed cost: request and response headers, the session, admission
	// and operation bookkeeping, and the release round trip.
	const slack = 96 << 10
	schema, batches := mixedBatches(8, 4000)
	_, ts := newTestService(t, &fakeBackend{schema: schema, batches: batches})
	c := Dial(ts.URL, "tok")
	collect := func() *types.Batch {
		b, err := c.Sql("SELECT * FROM t").Collect()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	answer := answerBytes(collect())
	best := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b := collect()
		runtime.ReadMemStats(&after)
		if b.NumRows() != 8*4000 {
			t.Fatalf("collected %d rows, want %d", b.NumRows(), 8*4000)
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > answer+slack {
		t.Fatalf("collecting a %d-byte answer allocated %d bytes, want at most %d more", answer, best, slack)
	}
	t.Logf("answer %d bytes, allocated %d (+%d)", answer, best, best-answer)
}

// Drains on one Client from several goroutines at once each read into a
// buffer of their own: every answer is whole and cell-identical (run under
// -race).
func TestConcurrentCollectsOnOneClient(t *testing.T) {
	schema, batches := mixedBatches(4, 300)
	_, ts := newTestService(t, &fakeBackend{schema: schema, batches: batches})
	c := Dial(ts.URL, "tok")
	want, err := c.Sql("SELECT * FROM t").Collect()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got, err := c.Sql("SELECT * FROM t").Collect()
				if err != nil {
					t.Error(err)
					return
				}
				if !sameCells(want, got) {
					t.Error("a concurrent collect differs from the first answer")
					return
				}
			}
		}()
	}
	wg.Wait()
}

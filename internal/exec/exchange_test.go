package exec

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"
)

// drainExchange runs an int exchange over morsels 0..n-1 until it ends and
// returns how many results it emitted and the terminal error. The consumer
// starts pulling only once gate is closed.
func drainExchange(parent context.Context, workers, n int, gate <-chan struct{}, run func(context.Context, int) (int, error)) (int, error) {
	next := 0
	ex, err := newExchange(parent, workers,
		func() (int, bool, error) {
			if next == n {
				return 0, true, nil
			}
			next++
			return next - 1, false, nil
		},
		func() (func(context.Context, int) (int, error), error) { return run, nil },
		nil)
	if err != nil {
		return 0, err
	}
	defer ex.Close()
	<-gate
	got := 0
	for {
		_, err := ex.Next()
		if err != nil {
			return got, err
		}
		got++
	}
}

// TestExchangeNeverDropsWorkerFailure fails the first morsel that no longer
// fits in the futures queue while the consumer is still idle. An exchange
// that dispatched work before queueing its future would run that morsel,
// find the futures queue full when the cancellation arrives, drop the
// future, and end the stream cleanly on a partial result.
func TestExchangeNeverDropsWorkerFailure(t *testing.T) {
	const workers = 4
	fail := 3*workers + 1 // futures queue capacity: 2x workers deep + workers + 1
	boom := errors.New("boom")
	for i := 0; i < 5; i++ {
		failed := make(chan struct{})
		gate := make(chan struct{})
		go func() {
			select {
			case <-failed:
			case <-time.After(50 * time.Millisecond):
			}
			close(gate)
		}()
		got, err := drainExchange(context.Background(), workers, 64, gate, func(_ context.Context, m int) (int, error) {
			if m == fail {
				close(failed)
				return 0, boom
			}
			return m, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("run %d: got %d results and err %v, want the worker failure", i, got, err)
		}
	}
}

var closedGate = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// TestExchangeCancelledParentIsNotEOF cancels the caller's context before
// the stream ends: the consumer must see an error, never io.EOF.
func TestExchangeCancelledParentIsNotEOF(t *testing.T) {
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		got, err := drainExchange(ctx, 4, 1<<20, closedGate, func(_ context.Context, m int) (int, error) {
			if m == 5 {
				cancel()
			}
			return m, nil
		})
		cancel()
		if err == io.EOF || !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: got %d results and err %v, want context.Canceled", i, got, err)
		}
	}
}

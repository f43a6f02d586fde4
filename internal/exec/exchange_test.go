package exec

import (
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"lakeguard/internal/types"
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

// closeRecorder is a child operator that records its Close.
type closeRecorder struct{ closed int }

func (c *closeRecorder) Next() (*types.Batch, error) { return nil, io.EOF }
func (c *closeRecorder) Close() error                { c.closed++; return nil }

// settledGoroutines waits until at most want goroutines run and returns the
// last count it saw; a goroutine of an earlier test may take a moment to end.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestStreamLifecycle checks the stream contract on the inline path (one
// worker) and the exchange path (four): (a) nothing is pulled from the
// source before the first Next; (b) closing a stream that never started
// closes its child and leaves no goroutine behind, and so does closing one
// abandoned after its first result; (c) a source error surfaces at its input
// position, after every morsel before it.
func TestStreamLifecycle(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		// intStream yields morsels 0..n-1, then failAt's error if failAt < n;
		// every pull is reported on pulled.
		intStream := func(n, failAt int, pulled chan<- int, child operator) *stream[int, int] {
			next := 0
			return newStream(context.Background(), workers, child,
				func() (int, bool, error) {
					m := next
					next++
					select {
					case pulled <- m:
					default:
					}
					switch {
					case m == failAt:
						return 0, false, boom
					case m >= n:
						return 0, true, nil
					}
					return m, false, nil
				},
				func(_ context.Context, m int) (int, error) { return m, nil }, nil)
		}

		// (a) and (b): built and closed without a Next.
		before := runtime.NumGoroutine()
		pulled := make(chan int, 1)
		child := &closeRecorder{}
		s := intStream(100, -1, pulled, child)
		select {
		case m := <-pulled:
			t.Fatalf("workers=%d: the stream pulled morsel %d before its first Next", workers, m)
		case <-time.After(20 * time.Millisecond):
		}
		s.Close()
		if child.closed != 1 {
			t.Fatalf("workers=%d: closing an unstarted stream closed its child %d times, want 1", workers, child.closed)
		}
		if n := settledGoroutines(before); n > before {
			t.Fatalf("workers=%d: %d goroutines after closing an unstarted stream, %d before", workers, n, before)
		}

		// (b): abandoned after the first result.
		child = &closeRecorder{}
		s = intStream(1000, -1, pulled, child)
		if m, err := s.Next(); err != nil || m != 0 {
			t.Fatalf("workers=%d: first result %d, %v; want morsel 0", workers, m, err)
		}
		s.Close()
		if child.closed != 1 {
			t.Fatalf("workers=%d: closing a started stream closed its child %d times, want 1", workers, child.closed)
		}
		if n := settledGoroutines(before); n > before {
			t.Fatalf("workers=%d: %d goroutines after closing an abandoned stream, %d before", workers, n, before)
		}

		// (c): the source fails at position 5 of 10.
		s = intStream(10, 5, make(chan int), nil)
		for want := 0; ; want++ {
			m, err := s.Next()
			if err != nil {
				if want != 5 || !errors.Is(err, boom) {
					t.Fatalf("workers=%d: after %d results got %v, want the source error after 5", workers, want, err)
				}
				break
			}
			if m != want {
				t.Fatalf("workers=%d: result %d is morsel %d", workers, want, m)
			}
		}
		s.Close()
	}
}

package exec

import (
	"context"
	"errors"
	"io"
	"math"
	"sync"

	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// exchange is the morsel-driven parallelism primitive (paper §5 spirit:
// governance must not cost engine performance). A single producer goroutine
// claims morsels in input order; a fixed pool of workers executes them; the
// consumer gathers results strictly in claim order, so every downstream
// operator observes the exact batch sequence serial execution would produce.
//
// The ordered gather works through a futures pipeline: for each morsel the
// producer creates a future and pushes it to both the work queue (workers
// fill it) and the futures queue (the consumer awaits them in FIFO order).
// Both queues are bounded, which gives backpressure: at most ~4x workers
// morsels are in flight, independent of input size.
//
// Failure semantics: the first failing worker records its error and cancels
// the exchange context, which stops the producer and makes the remaining
// workers drain their queued morsels without executing them. The consumer
// surfaces exactly one wrapped error — the recorded root cause, not the
// cascade of context cancellations it triggered.
//
// The producer queues a morsel's future before dispatching its work, so a
// morsel a worker may run always has a future the consumer will await: a
// failure can never be dropped between dispatch and gather. A producer that
// stops on cancellation records why, so the consumer reports a truncated
// stream as an error instead of a clean end of results.
type exchange[M, T any] struct {
	cancel  context.CancelFunc
	futures chan *future[T]
	wg      sync.WaitGroup

	mu      sync.Mutex
	rootErr error

	stopped error // set by the producer before closing futures on cancellation
	failed  error
	isZero  func(T) bool // results to skip (nil = emit everything)
}

type future[T any] struct {
	done   chan struct{}
	result T
	err    error
}

type exJob[M, T any] struct {
	morsel M
	fut    *future[T]
}

// newExchange starts the producer and worker goroutines.
//   - source yields morsels in order; done=true ends the stream. It runs on
//     the single producer goroutine, so pulling from a child operator is safe.
//   - makeWorker builds one worker's morsel function; per-worker state (e.g.
//     a worker's telemetry span) lives in the closure.
func newExchange[M, T any](
	parent context.Context,
	workers int,
	source func() (M, bool, error),
	makeWorker func() (func(context.Context, M) (T, error), error),
	isZero func(T) bool,
) (*exchange[M, T], error) {
	ctx, cancel := context.WithCancel(parent)
	depth := workers * 2
	ex := &exchange[M, T]{
		cancel:  cancel,
		futures: make(chan *future[T], depth+workers+1),
		isZero:  isZero,
	}
	work := make(chan exJob[M, T], depth)

	runners := make([]func(context.Context, M) (T, error), workers)
	for w := range runners {
		fn, err := makeWorker()
		if err != nil {
			cancel()
			return nil, err
		}
		runners[w] = fn
	}

	for w := 0; w < workers; w++ {
		run := runners[w]
		ex.wg.Add(1)
		go func() {
			defer ex.wg.Done()
			for j := range work {
				if err := ctx.Err(); err != nil {
					// A sibling failed (or the caller cancelled): drain
					// without executing so queued futures resolve promptly.
					j.fut.err = err
					close(j.fut.done)
					continue
				}
				res, err := run(ctx, j.morsel)
				j.fut.result, j.fut.err = res, err
				if err != nil {
					ex.fail(err)
				}
				close(j.fut.done)
			}
		}()
	}

	ex.wg.Add(1)
	go func() {
		defer ex.wg.Done()
		defer close(ex.futures)
		defer close(work)
		for {
			if err := ctx.Err(); err != nil {
				ex.stopped = err
				return
			}
			m, done, err := source()
			if err != nil {
				// A source error surfaces at its input position, exactly
				// where serial execution would have hit it.
				f := &future[T]{done: make(chan struct{}), err: err}
				close(f.done)
				select {
				case ex.futures <- f:
				case <-ctx.Done():
					ex.stopped = ctx.Err()
				}
				return
			}
			if done {
				return
			}
			f := &future[T]{done: make(chan struct{})}
			select {
			case ex.futures <- f:
			case <-ctx.Done():
				ex.stopped = ctx.Err()
				return
			}
			select {
			case work <- exJob[M, T]{morsel: m, fut: f}:
			case <-ctx.Done():
				// Already queued for the consumer: resolve it here.
				f.err = ctx.Err()
				close(f.done)
				return
			}
		}
	}()

	return ex, nil
}

// fail records the first root-cause error and cancels siblings.
func (ex *exchange[M, T]) fail(err error) {
	ex.mu.Lock()
	if ex.rootErr == nil {
		ex.rootErr = err
	}
	ex.mu.Unlock()
	ex.cancel()
}

func (ex *exchange[M, T]) cause(err error) error {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.rootErr != nil {
		return ex.rootErr
	}
	return err
}

// Next returns the next result in morsel order. On failure it cancels the
// remaining work and keeps returning the same wrapped error.
func (ex *exchange[M, T]) Next() (T, error) {
	var zero T
	if ex.failed != nil {
		return zero, ex.failed
	}
	for {
		f, ok := <-ex.futures
		if !ok {
			if ex.stopped != nil {
				ex.failed = wrapWorkerErr(ex.cause(ex.stopped))
				return zero, ex.failed
			}
			return zero, io.EOF
		}
		<-f.done
		if f.err != nil {
			ex.cancel()
			ex.failed = wrapWorkerErr(ex.cause(f.err))
			return zero, ex.failed
		}
		if ex.isZero != nil && ex.isZero(f.result) {
			continue
		}
		return f.result, nil
	}
}

// workerError attributes a failure to a parallel worker.
type workerError struct{ err error }

func (e *workerError) Error() string { return "exec: parallel worker: " + e.err.Error() }
func (e *workerError) Unwrap() error { return e.err }

// wrapWorkerErr attributes err to a parallel worker unless an inner
// exchange already did: a failure that crosses nested exchanges (a UDF
// partition exchange inside a parallel scan) carries the prefix once.
func wrapWorkerErr(err error) error {
	var we *workerError
	if errors.As(err, &we) {
		return err
	}
	return &workerError{err: err}
}

// Close cancels outstanding work and waits for all goroutines; it is safe
// to call at any point, including after an abandoned (e.g. LIMIT-truncated)
// stream.
func (ex *exchange[M, T]) Close() error {
	ex.cancel()
	go func() {
		for range ex.futures { // unblock the producer's futures sends
		}
	}()
	ex.wg.Wait()
	return nil
}

// unknownMorsels is the morsel count of a stream over a child operator,
// whose length is known only when it ends.
const unknownMorsels = math.MaxInt

// streamWorkers is the engine's one worker-count rule for a morsel stream:
// Engine.Parallelism, except that the stream runs inline when exprs, the
// expression list its morsel function evaluates, has UDF waves (a sandbox
// crossing partitions a large batch across sandboxes itself, udfrun.go), or
// when its source holds at most one morsel (a scan with at most one file
// left after pruning).
func (e *Engine) streamWorkers(exprs *ExprProgs, morsels int) int {
	if e.Parallelism <= 1 || exprs != nil && exprs.udf != nil || morsels <= 1 {
		return 1
	}
	return e.Parallelism
}

// stream runs a per-morsel function over an ordered source and yields the
// results in source order, minus those the skip rule drops. It is the one
// operator the scan, filter and project run as, and the one input path of
// the aggregate and of the join build. With one worker it runs inline on
// the consumer's goroutine; with more it runs on an exchange, and a traced
// query gets one exec.worker span per worker. Either way nothing starts
// before the first Next, so a stream under a join's probe side reads
// nothing until the join's build finished and its runtime filters are
// installed.
type stream[M, T any] struct {
	ctx     context.Context
	workers int
	child   operator // closed last; nil when the source owns nothing
	source  func() (M, bool, error)
	run     func(context.Context, M) (T, error)
	skip    func(T) bool // nil = emit everything
	// also, when set, is the context of a further operator whose work the
	// morsels do (an aggregate's input step ending a pipeline): each worker
	// opens a span under it too.
	also context.Context

	started bool
	ex      *exchange[M, T] // nil while inline or not started
	wspans  []*telemetry.Span
}

// newStream is the one stream constructor. source runs on one goroutine at a
// time, so it may pull child (batchSource). run gets the context its morsel
// runs under, which on a traced exchange carries the worker's span.
func newStream[M, T any](ctx context.Context, workers int, child operator, source func() (M, bool, error), run func(context.Context, M) (T, error), skip func(T) bool) *stream[M, T] {
	return &stream[M, T]{ctx: ctx, workers: workers, child: child, source: source, run: run, skip: skip}
}

// batchSource adapts a child operator into a stream source.
func batchSource(child operator) func() (*types.Batch, bool, error) {
	return func() (*types.Batch, bool, error) {
		b, err := child.Next()
		if errors.Is(err, io.EOF) {
			return nil, true, nil
		}
		if err != nil {
			return nil, false, err
		}
		return b, false, nil
	}
}

func (s *stream[M, T]) Next() (T, error) {
	var zero T
	if !s.started {
		s.started = true
		if s.workers > 1 {
			// newExchange calls the worker factory sequentially before any
			// worker runs, so appending to wspans needs no lock.
			ex, err := newExchange(s.ctx, s.workers, s.source, s.worker, s.skip)
			if err != nil {
				return zero, err
			}
			s.ex = ex
		}
	}
	if s.ex != nil {
		return s.ex.Next()
	}
	for {
		m, done, err := s.source()
		if err != nil {
			return zero, err
		}
		if done {
			return zero, io.EOF
		}
		out, err := s.run(s.ctx, m)
		if err != nil {
			return zero, err
		}
		if s.skip == nil || !s.skip(out) {
			return out, nil
		}
	}
}

// worker builds one exchange worker's morsel function, under its own
// exec.worker span when the query is traced (and one under also).
func (s *stream[M, T]) worker() (func(context.Context, M) (T, error), error) {
	wctx, ws := telemetry.StartSpan(s.ctx, "exec.worker")
	if ws == nil {
		return s.run, nil
	}
	spans := []*telemetry.Span{ws}
	if s.also != nil {
		_, as := telemetry.StartSpan(s.also, "exec.worker")
		spans = append(spans, as)
	}
	w := int64(len(s.wspans) / len(spans))
	for _, sp := range spans {
		sp.SetInt("worker", w)
	}
	s.wspans = append(s.wspans, spans...)
	return func(_ context.Context, m M) (T, error) {
		out, err := s.run(wctx, m)
		for _, sp := range spans {
			sp.Count("morsels", 1)
			if err != nil {
				sp.Fail(err)
			}
		}
		return out, err
	}, nil
}

// Close closes a started exchange, then ends its worker spans (the
// exchange's join quiesced the workers), then closes the child.
func (s *stream[M, T]) Close() error {
	if s.ex != nil {
		s.ex.Close()
		endSpans(s.wspans)
	}
	if s.child == nil {
		return nil
	}
	return s.child.Close()
}

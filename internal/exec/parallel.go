// Morsel-driven operator wiring: how the engine decides which parts of a
// plan run across workers and how those parts keep serial semantics. The
// rules are:
//
//   - Parallelism changes operators, never plan shape: the optimizer and the
//     security verifier see the exact same plan regardless of worker count.
//   - Results are gathered in morsel order, so every operator emits the same
//     batch sequence serial execution would (byte-identical output).
//   - Expression stages with UDF calls stay on the serial path; sandbox
//     crossings already partition large batches across workers internally
//     (udfrun.go), and stacking the two would oversubscribe trust-domain
//     sandboxes.
package exec

import (
	"context"
	"errors"
	"io"
	"slices"

	"lakeguard/internal/plan"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// batchSource adapts a child operator into an exchange source. It runs on
// the exchange's single producer goroutine, so pulling the child (which may
// itself be parallel) needs no locking.
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

// batchMapFn transforms one input batch into one output batch on a worker.
type batchMapFn = func(context.Context, *types.Batch) (*types.Batch, error)

// mapExOp runs a batch→batch function over child batches on an exchange.
type mapExOp struct {
	child  operator
	ex     *exchange[*types.Batch, *types.Batch]
	wspans []*telemetry.Span
}

func (o *mapExOp) Next() (*types.Batch, error) { return o.ex.Next() }

func (o *mapExOp) Close() error {
	o.ex.Close()
	endSpans(o.wspans) // after the exchange join: workers are quiesced
	return o.child.Close()
}

// newParallelMap wires child batches through per-worker map functions,
// preserving batch order. When ctx carries a telemetry span, each worker
// gets a child span recording its morsel count; the spans end when the
// operator closes (after the exchange's WaitGroup join, so reads are safe).
func newParallelMap(ctx context.Context, child operator, workers int, makeWorker func() (batchMapFn, error), isZero func(*types.Batch) bool) (operator, error) {
	var wspans []*telemetry.Span
	mk := makeWorker
	if telemetry.SpanFrom(ctx) != nil {
		mk = func() (batchMapFn, error) {
			fn, err := makeWorker()
			if err != nil {
				return nil, err
			}
			_, ws := telemetry.StartSpan(ctx, "exec.worker")
			ws.SetInt("worker", int64(len(wspans)))
			wspans = append(wspans, ws)
			return func(c context.Context, b *types.Batch) (*types.Batch, error) {
				out, err := fn(c, b)
				ws.Count("morsels", 1)
				if err != nil {
					ws.Fail(err)
				}
				return out, err
			}, nil
		}
	}
	ex, err := newExchange(ctx, workers, batchSource(child), mk, isZero)
	if err != nil {
		endSpans(wspans)
		child.Close()
		return nil, err
	}
	return &mapExOp{child: child, ex: ex, wspans: wspans}, nil
}

// exprsHaveUDF reports whether any expression contains a UDF call.
func exprsHaveUDF(exprs []plan.Expr) bool {
	return slices.ContainsFunc(exprs, func(e plan.Expr) bool {
		return plan.ExprContains(e, func(x plan.Expr) bool {
			_, ok := x.(*plan.UDFCall)
			return ok
		})
	})
}

// buildFilter compiles a Filter node, parallelizing UDF-free predicates.
func (e *Engine) buildFilter(qc *QueryContext, t *plan.Filter, child operator) (operator, error) {
	cond, err := e.compileExprs(qc, []plan.Expr{t.Cond}, t.Child.Schema().Kinds(), []types.Kind{types.KindBool})
	if err != nil {
		child.Close()
		return nil, err
	}
	if w := e.workers(); w > 1 && cond.udf == nil {
		return newParallelMap(qc.GoContext(), child, w, func() (batchMapFn, error) {
			return func(_ context.Context, b *types.Batch) (*types.Batch, error) {
				return filterBatch(b, cond)
			}, nil
		}, skipEmptyBatch)
	}
	return &filterOp{child: child, cond: cond}, nil
}

// buildProject compiles a Project node, parallelizing UDF-free expressions.
func (e *Engine) buildProject(qc *QueryContext, t *plan.Project, child operator) (operator, error) {
	exprs, err := e.compileExprs(qc, t.Exprs, t.Child.Schema().Kinds(), t.OutSchema.Kinds())
	if err != nil {
		child.Close()
		return nil, err
	}
	if w := e.workers(); w > 1 && exprs.udf == nil {
		return newParallelMap(qc.GoContext(), child, w, func() (batchMapFn, error) {
			return func(_ context.Context, b *types.Batch) (*types.Batch, error) {
				return projectBatch(b, exprs, t.OutSchema)
			}, nil
		}, nil) // empty batches pass through, exactly like the serial path
	}
	return &projectOp{child: child, exprs: exprs, schema: t.OutSchema}, nil
}

// parallelScanOp pulls decoded-and-filtered file batches from a file-granular
// exchange. Every worker reads through the same credential-bound reader the
// TableProvider vended, so parallelism adds no new authority.
type parallelScanOp struct {
	ex     *exchange[int, *types.Batch]
	wspans []*telemetry.Span
}

func (o *parallelScanOp) Next() (*types.Batch, error) { return o.ex.Next() }

func (o *parallelScanOp) Close() error {
	err := o.ex.Close()
	endSpans(o.wspans) // after the exchange join: workers are quiesced
	return err
}

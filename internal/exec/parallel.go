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

	"lakeguard/internal/eval"
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
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if plan.ExprContains(e, func(x plan.Expr) bool {
			_, ok := x.(*plan.UDFCall)
			return ok
		}) {
			return true
		}
	}
	return false
}

func schemaKinds(s *types.Schema) []types.Kind {
	ks := make([]types.Kind, len(s.Fields))
	for i, f := range s.Fields {
		ks[i] = f.Kind
	}
	return ks
}

// compileVecExprs compiles each expression against the input schema,
// independently, with the statement's identity bound (qc.Eval): programs are
// per statement and never outlive it. Entries are nil for expressions
// outside the vectorizable subset or (when want != nil) whose result kind
// differs from want[i]; each such row-interpreter fallback counts on
// exec.vec.fallback.<node>, named for the first node the compiler rejected.
func (e *Engine) compileVecExprs(qc *QueryContext, exprs []plan.Expr, in *types.Schema, want []types.Kind) []*eval.VecProg {
	return e.compileVecKinds(qc, exprs, schemaKinds(in), want)
}

// compileVecKinds is compileVecExprs against explicit input column kinds.
func (e *Engine) compileVecKinds(qc *QueryContext, exprs []plan.Expr, kinds []types.Kind, want []types.Kind) []*eval.VecProg {
	progs := make([]*eval.VecProg, len(exprs))
	for i, x := range exprs {
		p, rejected := eval.CompileVecBound(x, kinds, qc.Eval)
		if p != nil && want != nil && p.Kind() != want[i] {
			p, rejected = nil, "ResultKind"
		}
		if p == nil {
			e.Metrics.Counter("exec.vec.fallback." + rejected).Inc()
			continue
		}
		progs[i] = p
	}
	return progs
}

func allCompiled(progs []*eval.VecProg) bool {
	for _, p := range progs {
		if p == nil {
			return false
		}
	}
	return true
}

// batchEval evaluates a fixed expression list over batches: through compiled
// vector programs when every expression is in the vectorizable subset,
// through the row-interpreting exprRunner otherwise. Programs are immutable
// and shared across workers; runners are per-worker.
type batchEval struct {
	progs  []*eval.VecProg // non-nil => vectorized path
	runner *exprRunner
	stats  *telemetry.OpStats // vectorized-vs-fallback accounting (nil ok)
}

func (be *batchEval) run(b *types.Batch) ([]*types.Column, error) {
	be.stats.CountEval(be.progs != nil)
	if be.progs != nil {
		n := b.NumRows()
		out := make([]*types.Column, len(be.progs))
		for i, p := range be.progs {
			out[i] = p.Run(b.Cols, n, nil)
		}
		return out, nil
	}
	return be.runner.run(b)
}

// worker returns the batchEval one exchange worker uses: the shared
// programs, or a runner of its own.
func (be *batchEval) worker() *batchEval {
	if be.progs != nil {
		return be
	}
	r := be.runner
	return &batchEval{runner: r.engine.newExprRunner(r.qc, r.exprs), stats: be.stats}
}

// newBatchEval builds a batchEval for exprs; vectorized when possible, with
// an exprRunner fallback otherwise.
func (e *Engine) newBatchEval(qc *QueryContext, exprs []plan.Expr, in *types.Schema, want []types.Kind) *batchEval {
	if progs := e.compileVecExprs(qc, exprs, in, want); allCompiled(progs) {
		return &batchEval{progs: progs, stats: qc.opParent}
	}
	return &batchEval{runner: e.newExprRunner(qc, exprs), stats: qc.opParent}
}

// buildFilter compiles a Filter node, parallelizing UDF-free predicates.
func (e *Engine) buildFilter(qc *QueryContext, t *plan.Filter, child operator) (operator, error) {
	exprs := []plan.Expr{t.Cond}
	be := e.newBatchEval(qc, exprs, t.Child.Schema(), []types.Kind{types.KindBool})
	if w := e.workers(); w > 1 && !exprsHaveUDF(exprs) {
		return newParallelMap(qc.GoContext(), child, w, func() (batchMapFn, error) {
			wbe := be.worker()
			return func(_ context.Context, b *types.Batch) (*types.Batch, error) {
				return filterBatch(b, wbe)
			}, nil
		}, skipEmptyBatch)
	}
	return &filterOp{child: child, eval: be}, nil
}

// buildProject compiles a Project node, parallelizing UDF-free expressions.
func (e *Engine) buildProject(qc *QueryContext, t *plan.Project, child operator) (operator, error) {
	be := e.newBatchEval(qc, t.Exprs, t.Child.Schema(), schemaKinds(t.OutSchema))
	if w := e.workers(); w > 1 && !exprsHaveUDF(t.Exprs) {
		return newParallelMap(qc.GoContext(), child, w, func() (batchMapFn, error) {
			wbe := be.worker()
			return func(_ context.Context, b *types.Batch) (*types.Batch, error) {
				return projectBatch(b, wbe, t.OutSchema)
			}, nil
		}, nil) // empty batches pass through, exactly like the serial path
	}
	return &projectOp{child: child, eval: be, schema: t.OutSchema}, nil
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

package exec

import (
	"fmt"
	"sync"

	"lakeguard/internal/arrowipc"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/sandbox"
	"lakeguard/internal/types"
	"lakeguard/internal/udf"
)

// exprRunner runs the sandbox waves of one expression list. UDF calls are
// lifted out by the fusion planner and executed through the sandbox
// dispatcher (one crossing per trust-domain group per wave); each result
// lands in the column its call was lifted to, where the residual
// expressions (an ExprProgs) read it. Arguments evaluate through ExprProgs
// too, compiled once per statement like every other expression.
type exprRunner struct {
	engine *Engine
	qc     *QueryContext
	plan   *optimizer.UDFPlan
	width  int        // input columns the plan was lifted over
	groups []udfGroup // per group, in plan order
	// vectorized is set when every argument compiled to a vector program.
	vectorized bool
}

// udfGroup is one fused crossing, prepared once per statement: its
// arguments' programs, the specs and argument schema every batch's request
// carries, and, for the unsafe baseline, its bound functions.
type udfGroup struct {
	optimizer.UDFGroup
	args      *ExprProgs // one expression per argument
	specs     []sandbox.UDFSpec
	argSchema *types.Schema
	// resultSchema is the schema every crossing's response must carry.
	resultSchema *types.Schema
	inProcess    *udf.Set // bound on the group's first batch
}

// newExprRunner lifts the UDF calls out of exprs over input kinds in and
// compiles each group's arguments. It returns the kinds of the columns the
// lifted expressions read: the input followed by every call's result.
func (e *Engine) newExprRunner(qc *QueryContext, exprs []plan.Expr, in []types.Kind) (*exprRunner, []types.Kind, error) {
	p, err := optimizer.PlanUDFs(exprs, len(in), e.FuseUDFs)
	if err != nil {
		return nil, nil, err
	}
	if e.Dispatcher == nil && !e.UnsafeInProcessUDFs {
		return nil, nil, fmt.Errorf("exec: plan contains user code but the engine has no sandbox dispatcher")
	}
	r := &exprRunner{engine: e, qc: qc, plan: p, width: len(in), vectorized: true}
	kinds := make([]types.Kind, p.Width)
	copy(kinds, in)
	for _, wave := range p.Waves {
		for _, group := range wave {
			g := udfGroup{UDFGroup: group, argSchema: &types.Schema{}, specs: make([]sandbox.UDFSpec, len(group.Calls))}
			var args []plan.Expr
			for ci, call := range group.Calls {
				g.specs[ci] = sandbox.UDFSpec{
					Name:       call.Call.Name,
					Body:       call.Call.Body,
					ArgNames:   call.Call.ArgNames,
					ResultKind: call.Call.ResultKind,
				}
				for ai, a := range call.Call.Args {
					g.specs[ci].ArgCols = append(g.specs[ci].ArgCols, len(args))
					g.argSchema.Fields = append(g.argSchema.Fields, types.Field{
						Name: fmt.Sprintf("a%d_%d", ci, ai), Kind: argKind(a), Nullable: true,
					})
					args = append(args, a)
				}
			}
			if len(args) == 0 {
				// Zero-argument UDFs still evaluate once per input row: carry
				// the row count with a constant column.
				g.argSchema.Fields = append(g.argSchema.Fields, types.Field{Name: "__rowid", Kind: types.KindInt64})
			}
			g.resultSchema = sandbox.ResultSchema(g.specs)
			g.args = e.compileProgs(qc.Eval, nil, args, kinds, g.argSchema.Kinds()[:len(args)])
			r.vectorized = r.vectorized && g.args.vectorized
			r.groups = append(r.groups, g)
		}
		for _, group := range wave {
			for _, call := range group.Calls {
				kinds[call.OutIndex] = call.Call.ResultKind
			}
		}
	}
	return r, kinds, nil
}

// run executes the waves over n rows of the input columns and returns the
// input columns followed by every UDF result column.
func (r *exprRunner) run(in []*types.Column, n int) ([]*types.Column, error) {
	cols := make([]*types.Column, r.plan.Width)
	copy(cols, in[:r.width])
	for i := range r.groups {
		if err := r.runGroup(&r.groups[i], cols, n); err != nil {
			return nil, err
		}
	}
	return cols, nil
}

// runGroup executes one fused sandbox crossing (or the unsafe in-process
// baseline) and stores each call's result column at its lifted index.
func (r *exprRunner) runGroup(g *udfGroup, cols []*types.Column, n int) error {
	argCols, err := g.args.Run(cols, n, nil)
	if err != nil {
		return err
	}
	if len(argCols) == 0 {
		argCols = append(argCols, types.ConstColumn(types.Int64(0), n))
	}
	argBatch := types.MustBatch(g.argSchema, argCols)

	var results []*types.Column
	if r.engine.UnsafeInProcessUDFs {
		results, err = g.runInProcess(argBatch)
	} else {
		results, err = r.executeSandboxed(g, argBatch)
	}
	if err != nil {
		return err
	}
	for ci, call := range g.Calls {
		cols[call.OutIndex] = results[ci]
	}
	return nil
}

// argKind is the column kind an argument crosses the boundary as: its
// static kind, with an untyped NULL sent as a STRING.
func argKind(arg plan.Expr) types.Kind {
	if k := arg.Type(); k != types.KindNull {
		return k
	}
	return types.KindString
}

// executeSandboxed runs one fused request through the dispatcher. With
// Engine.Parallelism > 1 and a large enough batch, the rows are split into
// partitions executed concurrently on separate sandboxes of the same trust
// domain — the executor-worker parallelism of a multi-node Spark cluster.
// Each partition's response decodes once, straight into its rows of one
// result batch.
func (r *exprRunner) executeSandboxed(g *udfGroup, argBatch *types.Batch) ([]*types.Column, error) {
	workers := r.engine.Parallelism
	n := argBatch.NumRows()
	const minRowsPerWorker = 256
	if workers <= 1 || n < 2*minRowsPerWorker {
		workers = 1
	} else if max := n / minRowsPerWorker; workers > max {
		workers = max
	}
	chunk := (n + workers - 1) / workers
	var sizes []int
	for lo := 0; lo < n || len(sizes) == 0; lo += chunk {
		sizes = append(sizes, min(chunk, n-lo))
	}
	result := arrowipc.NewAssembly(g.resultSchema, sizes)
	errs := make([]error, len(sizes))
	if len(sizes) == 1 {
		errs[0] = r.cross(g, argBatch, result, 0)
	} else {
		var wg sync.WaitGroup
		for w := range sizes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lo := w * chunk
				errs[w] = r.cross(g, argBatch.Slice(lo, lo+sizes[w]), result, w)
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return result.Batch().Cols, nil
}

// cross runs partition w's crossing on a sandbox of the group's trust
// domain and decodes its response into the partition's rows of result.
// The response crossed the boundary from user code's side and kernels
// compiled for each call's declared kind read it, so its column count,
// kinds and row count are checked first.
func (r *exprRunner) cross(g *udfGroup, args *types.Batch, result *arrowipc.Assembly, w int) error {
	ctx := r.qc.GoContext()
	sb, err := r.engine.Dispatcher.AcquireResources(ctx, r.qc.SessionID, g.TrustDomain, g.Resources)
	if err != nil {
		return err
	}
	defer r.engine.Dispatcher.Release(r.qc.SessionID, sb)
	req := &sandbox.Request{Specs: g.specs, Args: args, PlanFingerprint: r.qc.VerifiedPlan}
	return sb.ExecuteInto(ctx, req, func(stream []byte) error {
		if err := result.DecodePart(w, stream); err != nil {
			return fmt.Errorf("exec: sandbox returned a malformed result for UDFs %s: %w", g.resultSchema, err)
		}
		return nil
	})
}

// runInProcess is the pre-Lakeguard baseline: user code run directly in
// the engine process with ambient capabilities and no serialization
// boundary, through the same udf.Set row loop the sandbox runs. Benchmark
// use only.
func (g *udfGroup) runInProcess(args *types.Batch) ([]*types.Column, error) {
	if g.inProcess == nil {
		set, err := sandbox.BindSpecs(g.specs, nil)
		if err != nil {
			return nil, err
		}
		g.inProcess = set
	}
	n := args.NumRows()
	out := make([]*types.Builder, len(g.specs))
	for i, spec := range g.specs {
		out[i] = types.NewBuilder(spec.ResultKind, n)
	}
	if err := g.inProcess.Run(args.Cols, n, udf.DefaultFuel, out); err != nil {
		return nil, fmt.Errorf("exec: in-process %w", err)
	}
	cols := make([]*types.Column, len(out))
	for i, b := range out {
		cols[i] = b.Build()
	}
	return cols, nil
}

package exec

import (
	"fmt"
	"sync"

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
	width  int          // input columns the plan was lifted over
	args   []*ExprProgs // per group in plan order, one expression per argument
	// vectorized is set when every argument compiled to a vector program.
	vectorized bool
	// inProcessFuncs caches bound UDFs for the unsafe baseline.
	inProcessFuncs udf.Cache
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
			var args []plan.Expr
			var want []types.Kind
			for _, call := range group.Calls {
				for _, a := range call.Call.Args {
					args = append(args, a)
					want = append(want, argKind(a))
				}
			}
			a := e.compileProgs(qc.Eval, nil, args, kinds, want)
			r.args = append(r.args, a)
			r.vectorized = r.vectorized && a.vectorized
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
	gi := 0
	for _, wave := range r.plan.Waves {
		for _, group := range wave {
			if err := r.runGroup(r.args[gi], group, cols, n); err != nil {
				return nil, err
			}
			gi++
		}
	}
	return cols, nil
}

// runGroup executes one fused sandbox crossing (or the unsafe in-process
// baseline) and stores each call's result column at its lifted index.
func (r *exprRunner) runGroup(args *ExprProgs, group optimizer.UDFGroup, cols []*types.Column, n int) error {
	argCols, err := args.Run(cols, n)
	if err != nil {
		return err
	}
	argSchema := &types.Schema{}
	specs := make([]sandbox.UDFSpec, len(group.Calls))
	for ci, call := range group.Calls {
		spec := sandbox.UDFSpec{
			Name:       call.Call.Name,
			Body:       call.Call.Body,
			ArgNames:   call.Call.ArgNames,
			ResultKind: call.Call.ResultKind,
		}
		for ai := range call.Call.Args {
			spec.ArgCols = append(spec.ArgCols, len(argSchema.Fields))
			argSchema.Fields = append(argSchema.Fields, types.Field{
				Name:     fmt.Sprintf("a%d_%d", ci, ai),
				Kind:     args.kinds[len(argSchema.Fields)],
				Nullable: true,
			})
		}
		specs[ci] = spec
	}
	if len(argCols) == 0 {
		// Zero-argument UDFs still evaluate once per input row: carry the
		// row count with a constant column.
		argSchema.Fields = append(argSchema.Fields, types.Field{Name: "__rowid", Kind: types.KindInt64})
		argCols = append(argCols, types.ConstColumn(types.Int64(0), n))
	}
	argBatch := types.MustBatch(argSchema, argCols)

	var results []*types.Column
	if r.engine.UnsafeInProcessUDFs {
		results, err = r.runInProcess(specs, argBatch)
	} else {
		results, err = r.executeSandboxed(specs, argBatch, group.TrustDomain, group.Resources)
	}
	if err != nil {
		return err
	}
	for ci, call := range group.Calls {
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
func (r *exprRunner) executeSandboxed(specs []sandbox.UDFSpec, argBatch *types.Batch, trustDomain, resources string) ([]*types.Column, error) {
	workers := r.engine.Parallelism
	n := argBatch.NumRows()
	const minRowsPerWorker = 256
	if workers <= 1 || n < 2*minRowsPerWorker {
		return r.executeOnePartition(specs, argBatch, trustDomain, resources)
	}
	if max := n / minRowsPerWorker; workers > max {
		workers = max
	}

	type part struct {
		cols []*types.Column
		err  error
	}
	parts := make([]part, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			cols, err := r.executeOnePartition(specs, argBatch.Slice(lo, hi), trustDomain, resources)
			parts[w] = part{cols: cols, err: err}
		}(w, lo, hi)
	}
	wg.Wait()
	// Stitch partition results back together in order.
	builders := make([]*types.Builder, len(specs))
	for i, spec := range specs {
		builders[i] = types.NewBuilder(spec.ResultKind, n)
	}
	for w := range parts {
		if parts[w].err != nil {
			return nil, parts[w].err
		}
		if parts[w].cols == nil {
			continue
		}
		for ci, col := range parts[w].cols {
			builders[ci].AppendColumn(col)
		}
	}
	out := make([]*types.Column, len(builders))
	for i, b := range builders {
		out[i] = b.Build()
	}
	return out, nil
}

func (r *exprRunner) executeOnePartition(specs []sandbox.UDFSpec, args *types.Batch, trustDomain, resources string) ([]*types.Column, error) {
	ctx := r.qc.GoContext()
	sb, err := r.engine.Dispatcher.AcquireResources(ctx, r.qc.SessionID, trustDomain, resources)
	if err != nil {
		return nil, err
	}
	defer r.engine.Dispatcher.Release(r.qc.SessionID, sb)
	result, err := sb.Execute(ctx, &sandbox.Request{Specs: specs, Args: args, PlanFingerprint: r.qc.VerifiedPlan})
	if err != nil {
		return nil, err
	}
	// The result crossed the boundary from user code's side: kernels compiled
	// for each call's declared kind read it, so its shape is checked first.
	if len(result.Cols) != len(specs) {
		return nil, fmt.Errorf("exec: sandbox returned %d columns for %d UDFs", len(result.Cols), len(specs))
	}
	for i, c := range result.Cols {
		if c.Kind() != specs[i].ResultKind || c.Len() != args.NumRows() {
			return nil, fmt.Errorf("exec: sandbox returned %d %s rows for UDF %s, want %d %s rows",
				c.Len(), c.Kind(), specs[i].Name, args.NumRows(), specs[i].ResultKind)
		}
	}
	return result.Cols, nil
}

// runInProcess is the pre-Lakeguard baseline: user code run directly in
// the engine process with ambient capabilities and no serialization
// boundary, each spec over the whole batch on one reused frame. Benchmark
// use only.
func (r *exprRunner) runInProcess(specs []sandbox.UDFSpec, args *types.Batch) ([]*types.Column, error) {
	n := args.NumRows()
	out := make([]*types.Column, len(specs))
	for si, spec := range specs {
		f, err := r.inProcessFuncs.Func(spec.Body, spec.ArgNames)
		if err != nil {
			return nil, err
		}
		fr := f.NewFrame(nil)
		b := types.NewBuilder(spec.ResultKind, n)
		for i := 0; i < n; i++ {
			v, err := fr.CallRow(args.Cols, spec.ArgCols, i, udf.DefaultFuel)
			if err != nil {
				return nil, fmt.Errorf("exec: in-process udf %s: %w", spec.Name, err)
			}
			if v.Null {
				b.AppendNull()
				continue
			}
			cast, err := v.Cast(spec.ResultKind)
			if err != nil {
				return nil, err
			}
			b.Append(cast)
		}
		out[si] = b.Build()
	}
	return out, nil
}

package exec

import (
	"fmt"
	"sync"

	"lakeguard/internal/eval"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/sandbox"
	"lakeguard/internal/types"
	"lakeguard/internal/udf"
)

// exprRunner evaluates a fixed list of expressions over batches. UDF calls
// are lifted out by the fusion planner and executed through the sandbox
// dispatcher (one crossing per trust-domain group per wave); the residual
// expression tree is evaluated in-process.
type exprRunner struct {
	engine *Engine
	qc     *QueryContext
	// exprs are the original expressions; the UDF plan is built lazily on
	// the first batch, which fixes the input width.
	exprs []plan.Expr
	plan  *optimizer.UDFPlan
	// vecProgs are per-residual-expression vector kernels, compiled lazily
	// against the first batch's post-wave column kinds (nil entries use the
	// row interpreter).
	vecProgs []*eval.VecProg
	vecTried bool
	// argProgs holds, per UDF group in plan order, one vector kernel per
	// argument expression (nil entries use the row interpreter); compiled
	// on the group's first batch, a nil group is not compiled yet.
	argProgs [][]*eval.VecProg
	// inProcessFuncs caches bound UDFs for the unsafe baseline.
	inProcessFuncs udf.Cache
}

func (e *Engine) newExprRunner(qc *QueryContext, exprs []plan.Expr) *exprRunner {
	return &exprRunner{engine: e, qc: qc, exprs: exprs}
}

// ensurePlan builds the UDF extraction plan against the real batch width.
func (r *exprRunner) ensurePlan(inputWidth int) error {
	if r.plan != nil {
		return nil
	}
	p, err := optimizer.PlanUDFs(r.exprs, inputWidth, r.engine.FuseUDFs)
	if err != nil {
		return err
	}
	if p.HasUDFs() && r.engine.Dispatcher == nil && !r.engine.UnsafeInProcessUDFs {
		return fmt.Errorf("exec: plan contains user code but the engine has no sandbox dispatcher")
	}
	r.plan = p
	return nil
}

// run evaluates the expressions over one batch, returning one column per
// expression.
func (r *exprRunner) run(batch *types.Batch) ([]*types.Column, error) {
	if err := r.ensurePlan(batch.NumCols()); err != nil {
		return nil, err
	}
	cols := append([]*types.Column{}, batch.Cols...)
	n := batch.NumRows()

	gi := 0
	for _, wave := range r.plan.Waves {
		for _, group := range wave {
			var err error
			cols, err = r.runGroup(gi, group, cols, n)
			if err != nil {
				return nil, err
			}
			gi++
		}
	}

	if !r.vecTried {
		r.vecTried = true
		kinds := make([]types.Kind, len(cols))
		for i, c := range cols {
			kinds[i] = c.Kind()
		}
		r.vecProgs = make([]*eval.VecProg, len(r.plan.Exprs))
		for ei, ex := range r.plan.Exprs {
			if p, ok := eval.CompileVec(ex, kinds); ok && p.Kind() == ex.Type() {
				r.vecProgs[ei] = p
			}
		}
	}

	rowFn := func(i int) eval.RowFn {
		return func(c int) types.Value { return cols[c].Value(i) }
	}
	out := make([]*types.Column, len(r.plan.Exprs))
	for ei, ex := range r.plan.Exprs {
		if p := r.vecProgs[ei]; p != nil {
			out[ei] = p.Run(cols, n, nil)
			continue
		}
		b := types.NewBuilder(ex.Type(), n)
		for i := 0; i < n; i++ {
			v, err := eval.Eval(ex, rowFn(i), r.qc.Eval)
			if err != nil {
				return nil, err
			}
			if v.Null {
				b.AppendNull()
				continue
			}
			if v.Kind != ex.Type() && ex.Type() != types.KindNull {
				cast, cerr := v.Cast(ex.Type())
				if cerr != nil {
					return nil, cerr
				}
				v = cast
			}
			b.Append(v)
		}
		out[ei] = b.Build()
	}
	return out, nil
}

// runGroup executes one fused sandbox crossing (or the unsafe in-process
// baseline) and appends the result columns. gi numbers the group in plan
// order.
func (r *exprRunner) runGroup(gi int, group optimizer.UDFGroup, cols []*types.Column, n int) ([]*types.Column, error) {
	progs := r.groupArgProgs(gi, group, cols)
	argSchema := &types.Schema{}
	var argCols []*types.Column
	specs := make([]sandbox.UDFSpec, len(group.Calls))
	for ci, call := range group.Calls {
		spec := sandbox.UDFSpec{
			Name:       call.Call.Name,
			Body:       call.Call.Body,
			ArgNames:   call.Call.ArgNames,
			ResultKind: call.Call.ResultKind,
		}
		for ai, argExpr := range call.Call.Args {
			kind := argKind(argExpr)
			var col *types.Column
			if p := progs[len(argCols)]; p != nil {
				// A bare column reference comes back as that column, uncopied.
				col = p.Run(cols, n, nil)
			} else {
				var err error
				if col, err = r.evalRows(argExpr, kind, cols, n); err != nil {
					return nil, err
				}
			}
			spec.ArgCols = append(spec.ArgCols, len(argCols))
			argCols = append(argCols, col)
			argSchema.Fields = append(argSchema.Fields, types.Field{
				Name:     fmt.Sprintf("a%d_%d", ci, ai),
				Kind:     kind,
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

	if r.engine.UnsafeInProcessUDFs {
		results, err := r.runInProcess(specs, argBatch)
		if err != nil {
			return nil, err
		}
		return append(cols, results...), nil
	}

	result, err := r.executeSandboxed(specs, argBatch, group.TrustDomain, group.Resources)
	if err != nil {
		return nil, err
	}
	return append(cols, result...), nil
}

// argKind is the column kind an argument crosses the boundary as: its
// static kind, with an untyped NULL sent as a STRING.
func argKind(arg plan.Expr) types.Kind {
	if k := arg.Type(); k != types.KindNull {
		return k
	}
	return types.KindString
}

// groupArgProgs returns group gi's argument kernels, compiling them against
// the current column kinds on first use.
func (r *exprRunner) groupArgProgs(gi int, group optimizer.UDFGroup, cols []*types.Column) []*eval.VecProg {
	if r.argProgs == nil {
		groups := 0
		for _, wave := range r.plan.Waves {
			groups += len(wave)
		}
		r.argProgs = make([][]*eval.VecProg, groups)
	}
	if r.argProgs[gi] == nil {
		var exprs []plan.Expr
		var want []types.Kind
		for _, call := range group.Calls {
			for _, a := range call.Call.Args {
				exprs = append(exprs, a)
				want = append(want, argKind(a))
			}
		}
		kinds := make([]types.Kind, len(cols))
		for i, c := range cols {
			kinds[i] = c.Kind()
		}
		r.argProgs[gi] = r.engine.compileVecKinds(r.qc, exprs, kinds, want)
	}
	return r.argProgs[gi]
}

// evalRows evaluates e row by row into a column of kind.
func (r *exprRunner) evalRows(e plan.Expr, kind types.Kind, cols []*types.Column, n int) (*types.Column, error) {
	b := types.NewBuilder(kind, n)
	for i := 0; i < n; i++ {
		v, err := eval.Eval(e, func(c int) types.Value { return cols[c].Value(i) }, r.qc.Eval)
		if err != nil {
			return nil, err
		}
		b.Append(v)
	}
	return b.Build(), nil
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

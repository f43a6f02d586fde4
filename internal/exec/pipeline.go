package exec

import (
	"context"
	"errors"
	"io"
	"slices"
	"sync"
	"time"

	"lakeguard/internal/plan"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// A pipeline runs one maximal chain of Filter, Project, SecureView and
// SubqueryAlias nodes over one source as one stream. The source is a scan's
// files or another operator's batches. Its morsel is a view: the source's
// columns plus a selection of their rows.
//
//   - A scan hands on its projected, cached columns with the selection its
//     deletion vector, pushed filters and runtime filters left.
//   - A Filter narrows the selection into the worker's scratch and copies
//     nothing.
//   - A Project whose items are all bare column references re-labels
//     columns. Any other Project evaluates its items through the selection,
//     and its output is dense.
//   - SecureView and SubqueryAlias pass the view on.
//   - The chain's end gathers the surviving rows of the columns it outputs,
//     once. A chain under an aggregate ends in the aggregate's input step
//     instead (aggEnd): it gathers nothing, and hands the aggregate its key
//     and argument columns with the selection.
//
// A morsel's selection lives in the scratch it took from selScratches. The
// scratch goes back to the pool when the morsel's survivors are gathered;
// one whose selection an aggregate input holds travels with that input and
// goes back once the aggregate has consumed it.
//
// No expression reads a row an earlier step dropped. A Filter or Project
// whose expressions call UDFs ends the chain below it: it is the first step
// of the chain above, whose source is the chain below, so its sandbox waves
// run over a dense batch of rows every earlier step authorized. Such a
// chain runs inline (streamWorkers). Under an aggregate the chain stops
// below such a step instead, so the aggregate's evaluation keeps its own
// workers.
//
// Every node of the chain keeps its own EXPLAIN ANALYZE entry and span. A
// step's rows and batches count what its operator emitted when each node
// was a stream of its own: a Scan or Filter emits no empty batch, so a view
// it leaves empty ends the morsel there.
type pipeline struct {
	// steps run bottom-up. A scan source has a step of its own first, which
	// only accounts for what the scan emitted.
	steps []pipeStep
	// agg, when set, ends the chain in an aggregate's input step in place of
	// the gather.
	agg *aggEnd
	in  interface {
		Next() (*pipeOut, error)
		Close() error
	}
	timed bool // some step has a profile entry or a span
}

// pipeStep is one node of a chain with its compiled expressions.
type pipeStep struct {
	stats     *telemetry.OpStats
	span      *telemetry.Span
	dropEmpty bool       // Scan and Filter: an empty view ends the morsel
	cond      *ExprProgs // Filter
	exprs     *ExprProgs // Project
	// refs is, for a Project whose every item compiled to a bare column
	// reference, the input column of each output.
	refs   []int
	schema *types.Schema // Project: the output schema
}

// rowAt maps selection position j to its row (sel nil = all rows).
func rowAt(sel []int, j int) int {
	if sel != nil {
		return sel[j]
	}
	return j
}

// view is a morsel on its way up a chain: rows sel (nil = all n) of cols.
type view struct {
	schema *types.Schema
	cols   []*types.Column
	n      int
	sel    []int
}

func (v *view) rows() int {
	if v.sel != nil {
		return len(v.sel)
	}
	return v.n
}

// pipeOut is one morsel's result: the gathered batch, or the aggregate's
// input under an aggregate (both nil when a step left the morsel empty),
// and the rows each step emitted, bottom-up, for the steps the morsel got
// through.
type pipeOut struct {
	batch *types.Batch
	in    *aggInput
	rows  []int
}

// isChainNode reports whether p is a node a pipeline runs as a step.
func isChainNode(p plan.Node) bool {
	switch p.(type) {
	case *plan.Filter, *plan.Project, *plan.SecureView, *plan.SubqueryAlias:
		return true
	}
	return false
}

// buildPipeline compiles the chain from top down to its source. top is a
// chain node or a Scan, which is then a chain of no step above its files.
// Under an aggregate, agg is the aggregate's input step and top its child,
// which may be any node: a chain of no step then reads it as its source.
func (e *Engine) buildPipeline(qc *QueryContext, top plan.Node, agg *aggEnd) (*pipeline, error) {
	p := &pipeline{agg: agg}
	var down []pipeStep // top-down while building
	fail := func(err error) (*pipeline, error) {
		for i := len(down) - 1; i >= 0; i-- {
			down[i].span.EndErr(err)
		}
		return nil, err
	}
	// udf is the bottom step's expression list when it has UDF waves. An
	// aggregate's input step with UDF waves is a chain of its own, over a
	// dense source.
	var udf *ExprProgs
	if agg != nil && agg.exprs.udf != nil {
		udf = agg.exprs
	}
	n, sub := top, qc
	for isChainNode(n) && udf == nil && (agg == nil || !chainNodeHasUDF(n)) {
		var st pipeStep
		sub, st.stats, st.span = opScope(sub, n)
		var child plan.Node
		var err error
		switch t := n.(type) {
		case *plan.Filter:
			child, st.dropEmpty = t.Child, true
			st.cond, err = e.compileExprs(sub, []plan.Expr{t.Cond}, t.Child.Schema().Kinds(), []types.Kind{types.KindBool})
		case *plan.Project:
			child, st.schema = t.Child, t.OutSchema
			if st.exprs, err = e.compileExprs(sub, t.Exprs, t.Child.Schema().Kinds(), t.OutSchema.Kinds()); err == nil {
				st.refs = st.exprs.columnRefs()
			}
		case *plan.SecureView:
			child = t.Child
		case *plan.SubqueryAlias:
			child = t.Child
		}
		down = append(down, st)
		if err != nil {
			return fail(err)
		}
		for _, l := range [2]*ExprProgs{st.cond, st.exprs} {
			if l != nil && l.udf != nil {
				udf = l
			}
		}
		n = child
	}
	for i := len(down) - 1; i >= 0; i-- {
		p.steps = append(p.steps, down[i])
	}

	if scan, ok := n.(*plan.Scan); ok && udf == nil {
		var st pipeStep
		sub, st.stats, st.span = opScope(sub, scan)
		st.dropEmpty = true
		src, err := e.newScanSource(sub, scan)
		if err != nil {
			st.span.EndErr(err)
			return fail(err)
		}
		p.steps = append([]pipeStep{st}, p.steps...)
		p.timed = p.isTimed()
		workers := e.streamWorkers(src.filters, len(src.files))
		if agg != nil {
			workers = e.streamWorkers(agg.exprs, unknownMorsels)
		}
		// File-granular morsels: every worker reads through the one
		// credential-bound reader the TableProvider vended, so parallelism
		// adds no authority, and the ordered gather keeps file order.
		next := 0
		s := newStream(sub.GoContext(), workers, nil,
			func() (int, bool, error) {
				if next == len(src.files) {
					return 0, true, nil
				}
				next++
				return next - 1, false, nil
			}, pipeRun(p, src.scanFile), nil)
		s.also = p.aggSpanCtx(qc, sub)
		p.in = s
		return p, nil
	}

	child, err := e.build(sub, n)
	if err != nil {
		return fail(err)
	}
	p.timed = p.isTimed()
	// A chain that only passes batches on or re-labels their columns has no
	// work to spread over workers. An aggregate's input step keeps the
	// workers its own expressions allow, as the aggregate's input did when
	// it was a stream of its own.
	workers := 1
	if agg != nil || slices.ContainsFunc(p.steps, func(st pipeStep) bool { return st.cond != nil || st.exprs != nil && st.refs == nil }) {
		workers = e.streamWorkers(udf, unknownMorsels)
	}
	s := newStream(sub.GoContext(), workers, child, batchSource(child),
		pipeRun(p, func(_ context.Context, b *types.Batch, _ *SelScratch) (view, error) {
			return view{schema: b.Schema, cols: b.Cols, n: b.NumRows()}, nil
		}), nil)
	s.also = p.aggSpanCtx(qc, sub)
	p.in = s
	return p, nil
}

// aggSpanCtx returns, for a chain that ends in an aggregate's input step
// above its lowest node sub, the aggregate's context qc: the stream's
// workers open a span under it too, as the aggregate's own input stream
// did. Otherwise it returns nil.
func (p *pipeline) aggSpanCtx(qc, sub *QueryContext) context.Context {
	if p.agg == nil || sub == qc {
		return nil
	}
	return qc.GoContext()
}

// chainNodeHasUDF reports whether a chain node's expressions call UDFs.
func chainNodeHasUDF(n plan.Node) bool {
	switch t := n.(type) {
	case *plan.Filter:
		return exprsHaveUDF([]plan.Expr{t.Cond})
	case *plan.Project:
		return exprsHaveUDF(t.Exprs)
	}
	return false
}

// selScratches serves the scratch of each morsel a pipeline runs.
var selScratches = sync.Pool{New: func() any { return new(SelScratch) }}

// pipeRun turns a source's morsel-to-view function into p's morsel
// function: each morsel takes a scratch for its selections and returns it
// once its survivors are gathered, or, when an aggregate input holds its
// selection, leaves it to that input (aggInput.release).
func pipeRun[M any](p *pipeline, open func(context.Context, M, *SelScratch) (view, error)) func(context.Context, M) (*pipeOut, error) {
	return func(ctx context.Context, m M) (*pipeOut, error) {
		sc := selScratches.Get().(*SelScratch)
		v, err := open(ctx, m, sc)
		var out *pipeOut
		if err == nil {
			out, err = p.run(v, sc)
		}
		if err != nil || out.in == nil || out.in.sc == nil {
			selScratches.Put(sc)
		}
		return out, err
	}
}

// run takes one view up the chain and gathers its survivors, or hands the
// view to the aggregate's input step. The rows each step emitted are kept
// only when some step accounts for them.
func (p *pipeline) run(v view, sc *SelScratch) (*pipeOut, error) {
	out := &pipeOut{}
	if p.timed {
		out.rows = make([]int, 0, len(p.steps))
	}
	for i := range p.steps {
		if err := p.steps[i].apply(&v, sc); err != nil {
			return nil, err
		}
		rows := v.rows()
		if rows == 0 && p.steps[i].dropEmpty {
			return out, nil
		}
		if p.timed {
			out.rows = append(out.rows, rows)
		}
	}
	if p.agg != nil {
		in, err := p.agg.input(v, sc)
		if err != nil {
			return nil, err
		}
		out.in = in
		return out, nil
	}
	cols := v.cols
	if v.sel != nil && len(v.sel) < v.n {
		cols = make([]*types.Column, len(v.cols))
		for i, c := range v.cols {
			cols[i] = c.Gather(v.sel)
		}
	}
	out.batch = &types.Batch{Schema: v.schema, Cols: cols}
	return out, nil
}

// apply runs one step over a view.
func (st *pipeStep) apply(v *view, sc *SelScratch) error {
	switch {
	case st.cond != nil:
		sel, err := st.cond.Select(v.cols, v.n, v.sel, sc)
		if err != nil {
			return err
		}
		v.sel = sel
	case st.refs != nil:
		st.exprs.countEval()
		cols := make([]*types.Column, len(st.refs))
		for i, c := range st.refs {
			cols[i] = v.cols[c]
		}
		v.cols, v.schema = cols, st.schema
	case st.exprs != nil:
		cols, err := st.exprs.Run(v.cols, v.n, v.sel)
		if err != nil {
			return err
		}
		v.cols, v.n, v.sel, v.schema = cols, v.rows(), nil, st.schema
	}
	return nil
}

// isTimed reports whether the steps have profile entries or spans; opScope
// gives either all steps of a chain or none. An aggregate's input step has
// neither: it accounts to the aggregate's own entry.
func (p *pipeline) isTimed() bool {
	return len(p.steps) > 0 && (p.steps[0].stats != nil || p.steps[0].span != nil)
}

// Next returns the next gathered batch.
func (p *pipeline) Next() (*types.Batch, error) {
	o, err := p.pull()
	if err != nil {
		return nil, err
	}
	return o.batch, nil
}

// pull returns the next morsel with rows to emit. Traced or profiled, it
// accounts as each node's own operator did: every step gets the call's wall
// time, and fails its span on an error.
func (p *pipeline) pull() (*pipeOut, error) {
	if !p.timed {
		return p.next()
	}
	start := time.Now()
	o, err := p.next()
	d := time.Since(start)
	for _, st := range p.steps {
		st.stats.AddWall(d)
		if err != nil && !errors.Is(err, io.EOF) {
			st.span.Fail(err)
		}
	}
	return o, err
}

// next pulls morsels until one has rows to emit, accounting to each step
// the batch it emitted.
func (p *pipeline) next() (*pipeOut, error) {
	for {
		o, err := p.in.Next()
		if err != nil {
			return nil, err
		}
		for i, r := range o.rows {
			st := &p.steps[i]
			st.stats.AddBatch(r)
			st.span.Count("rows", int64(r))
			st.span.Count("batches", 1)
		}
		if o.batch != nil || o.in != nil {
			return o, nil
		}
	}
}

// Close stops the stream (its workers, then its child) and ends the steps'
// spans bottom-up, as nested operators ended theirs.
func (p *pipeline) Close() error {
	err := p.in.Close()
	for _, st := range p.steps {
		st.span.End()
	}
	return err
}

package exec

import (
	"lakeguard/internal/eval"
	"lakeguard/internal/plan"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// ExprProgs is one expression list compiled for one statement. Each
// expression compiles once, with the statement's identity bound, to a
// vector program, the one way the engine evaluates an expression. UDF calls
// are lifted into sandbox waves (exprRunner) whose results the expressions
// then read as columns. Programs are immutable: one ExprProgs without UDF
// calls serves every worker of the statement, and none outlives it.
type ExprProgs struct {
	// progs are evaluated over the input columns, plus the UDF result
	// columns when udf is set.
	progs []*eval.VecProg
	kinds []types.Kind       // per expression, the kind of the column Run returns
	stats *telemetry.OpStats // evaluated-batch accounting (nil ok)
	udf   *exprRunner        // sandbox waves run before progs; nil = no UDF call
}

// CompileExprs compiles a DML statement's expressions against its input
// schema, with the statement's identity ectx bound; Run casts expression i
// to want[i] (want nil: the expression's own kind). A UDF call is not
// lifted into the sandbox here: it compiles to a program that refuses it
// when a row is evaluated.
func (e *Engine) CompileExprs(ectx *eval.Context, exprs []plan.Expr, in *types.Schema, want []types.Kind) *ExprProgs {
	return compileProgs(ectx, nil, exprs, in.Kinds(), want)
}

// compileExprs compiles an operator's expression list against its input
// kinds for the statement qc runs; want is as for CompileExprs.
func (e *Engine) compileExprs(qc *QueryContext, exprs []plan.Expr, in, want []types.Kind) (*ExprProgs, error) {
	if !exprsHaveUDF(exprs) {
		return compileProgs(qc.Eval, qc.opParent, exprs, in, want), nil
	}
	r, kinds, err := e.newExprRunner(qc, exprs, in)
	if err != nil {
		return nil, err
	}
	p := compileProgs(qc.Eval, qc.opParent, r.plan.Exprs, kinds, want)
	p.udf = r
	return p, nil
}

// compileProgs compiles exprs without lifting UDF calls; scan filters, join
// keys and residuals, and DML use it. Each expression compiles on its own
// against the input kinds, binding ctx's identity. A program of another
// kind than want[i] is kept, and Run casts its column. It is the engine's
// only caller of eval.CompileVecBound.
func compileProgs(ctx *eval.Context, stats *telemetry.OpStats, exprs []plan.Expr, in, want []types.Kind) *ExprProgs {
	p := &ExprProgs{stats: stats, progs: make([]*eval.VecProg, len(exprs)), kinds: make([]types.Kind, len(exprs))}
	for i, x := range exprs {
		p.progs[i] = eval.CompileVecBound(x, in, ctx)
		p.kinds[i] = x.Type()
		if want != nil {
			p.kinds[i] = want[i]
		}
		if p.kinds[i] == types.KindNull {
			p.kinds[i] = p.progs[i].Kind()
		}
	}
	return p
}

// columnRefs returns the input column of every expression when each one
// compiled to a bare column reference of the kind the list wants, so the
// list only re-labels columns; otherwise nil.
func (p *ExprProgs) columnRefs() []int {
	if p.udf != nil {
		return nil
	}
	refs := make([]int, len(p.progs))
	for i, prog := range p.progs {
		if prog == nil || prog.Kind() != p.kinds[i] {
			return nil
		}
		c, ok := prog.Column()
		if !ok {
			return nil
		}
		refs[i] = c
	}
	return refs
}

// withUDFs returns cols followed by the UDF result columns the list's
// expressions read (cols itself when the list has no UDF call).
func (p *ExprProgs) withUDFs(cols []*types.Column, n int) ([]*types.Column, error) {
	if p.udf == nil {
		return cols, nil
	}
	return p.udf.run(cols, n)
}

// Run evaluates every expression over the rows sel selects of the n rows of
// cols (nil = all n), one column each, of the kinds the list was compiled
// for; row j of each result is input row sel[j]. No expression reads a row
// sel leaves out. UDF waves run over all n rows, so a list with UDF calls
// takes sel == nil only.
func (p *ExprProgs) Run(cols []*types.Column, n int, sel []int) ([]*types.Column, error) {
	cols, err := p.withUDFs(cols, n)
	if err != nil {
		return nil, err
	}
	p.countEval()
	out := make([]*types.Column, len(p.progs))
	for i, prog := range p.progs {
		if out[i], err = prog.Run(cols, n, sel); err != nil {
			return nil, err
		}
		if out[i], err = eval.CastColumn(out[i], p.kinds[i]); err != nil {
			return nil, &CastError{expr: i, err: err}
		}
	}
	return out, nil
}

// CastError reports that a value of one expression did not cast to the kind
// its list was compiled for.
type CastError struct {
	expr int
	err  error
}

// Expr is the index of the expression whose value did not cast.
func (e *CastError) Expr() int     { return e.expr }
func (e *CastError) Error() string { return e.err.Error() }
func (e *CastError) Unwrap() error { return e.err }

// countEval records one evaluated batch on the operator profile.
func (p *ExprProgs) countEval() {
	if len(p.progs) > 0 {
		p.stats.CountEval()
	}
}

// Select narrows sel (nil = all n rows of cols) through the expressions as
// conjuncts, in their order, keeping the rows where each is TRUE. Each
// conjunct runs only over the rows the earlier ones kept, so a conjunct that
// can fail (a throwing cast) never sees a row an earlier one rejected. UDF
// waves run over all n rows, so only sel == nil may reach a list with UDF
// calls: compileExprs (the filter step) lifts them, compileProgs (scan
// filters, join residuals, DML) compiles them to programs that refuse them.
//
// Conjuncts narrow into sc's buffers, so a warmed scratch makes Select
// allocate nothing; the result may alias sc (see SelScratch). A nil sc gets
// a scratch of its own, which the result then holds.
func (p *ExprProgs) Select(cols []*types.Column, n int, sel []int, sc *SelScratch) ([]int, error) {
	cols, err := p.withUDFs(cols, n)
	if err != nil {
		return nil, err
	}
	p.countEval()
	if sc == nil {
		sc = new(SelScratch)
	}
	for _, prog := range p.progs {
		if sel != nil && len(sel) == 0 {
			break
		}
		m := n
		if sel != nil {
			m = len(sel)
		}
		next, err := prog.Select(cols, n, sel, sc.next(m))
		if err != nil {
			return nil, err
		}
		sc.keep(next)
		sel = next
	}
	return sel, nil
}

// SelScratch is the scratch one worker narrows selections through: two
// buffers that narrowing steps take in turn, so a step's output never
// aliases the selection it reads, which is always the one handed out
// last. A selection in the scratch stays valid until the second narrowing
// after it; a caller that needs it longer copies it.
type SelScratch struct {
	bufs [2][]int
	last int
	// hashes is a row-hash buffer for runtime filters.
	hashes []uint64
}

// next hands out the buffer not handed out last, emptied, with capacity
// for at least m rows.
func (s *SelScratch) next(m int) []int {
	s.last ^= 1
	if cap(s.bufs[s.last]) < m {
		s.bufs[s.last] = make([]int, 0, m)
	}
	return s.bufs[s.last][:0]
}

// keep stores next's buffer back after appends, which may have grown it.
func (s *SelScratch) keep(b []int) { s.bufs[s.last] = b }

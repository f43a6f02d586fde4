package exec

import (
	"lakeguard/internal/eval"
	"lakeguard/internal/plan"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// ExprProgs is one expression list compiled for one statement, and the one
// place the engine decides how an expression is evaluated. Each expression
// compiles once, with the statement's identity bound, to a vector program;
// one outside the vectorizable subset runs on its own through the row
// interpreter, and that fallback counts on exec.vec.fallback.<node>, named
// for the first node the compiler rejected. UDF calls are lifted into
// sandbox waves (exprRunner) whose results the expressions then read as
// columns, so a sandbox crossing is never a fallback. Programs are
// immutable: one ExprProgs without UDF calls serves every worker of the
// statement, and none outlives it.
type ExprProgs struct {
	// exprs are evaluated over the input columns, plus the UDF result
	// columns when udf is set.
	exprs []plan.Expr
	progs []*eval.VecProg // per expression; nil runs in the row interpreter
	kinds []types.Kind    // per expression, the kind of the column Run returns
	ctx   *eval.Context
	stats *telemetry.OpStats // vectorized-vs-fallback accounting (nil ok)
	udf   *exprRunner        // sandbox waves run before exprs; nil = no UDF call
	// vectorized is set when no expression, UDF argument included, runs in
	// the row interpreter.
	vectorized bool
}

// CompileExprs compiles a DML statement's expressions against its input
// schema, with the statement's identity ectx bound; Run casts expression i
// to want[i] (want nil: the expression's own kind). A UDF call is not
// lifted into the sandbox here: it reaches the row interpreter, which
// refuses it when a row is evaluated.
func (e *Engine) CompileExprs(ectx *eval.Context, exprs []plan.Expr, in *types.Schema, want []types.Kind) *ExprProgs {
	return e.compileProgs(ectx, nil, exprs, in.Kinds(), want)
}

// compileExprs compiles an operator's expression list against its input
// kinds for the statement qc runs; want is as for CompileExprs.
func (e *Engine) compileExprs(qc *QueryContext, exprs []plan.Expr, in, want []types.Kind) (*ExprProgs, error) {
	if !exprsHaveUDF(exprs) {
		return e.compileProgs(qc.Eval, qc.opParent, exprs, in, want), nil
	}
	r, kinds, err := e.newExprRunner(qc, exprs, in)
	if err != nil {
		return nil, err
	}
	p := e.compileProgs(qc.Eval, qc.opParent, r.plan.Exprs, kinds, want)
	p.udf = r
	p.vectorized = p.vectorized && r.vectorized
	return p, nil
}

// compileProgs compiles exprs without lifting UDF calls; scan filters, join
// keys and residuals, and DML use it. Each expression compiles on its own
// against the input kinds, binding ctx's identity, and every expression left
// to the row interpreter is counted. A program of another kind than want[i]
// is kept and its column cast, except for a predicate (want BOOLEAN): Select
// reads truth only from a BOOLEAN program. It is the engine's only caller of
// eval.CompileVecBound.
func (e *Engine) compileProgs(ctx *eval.Context, stats *telemetry.OpStats, exprs []plan.Expr, in, want []types.Kind) *ExprProgs {
	p := &ExprProgs{exprs: exprs, ctx: ctx, stats: stats, vectorized: true,
		progs: make([]*eval.VecProg, len(exprs)), kinds: make([]types.Kind, len(exprs))}
	for i, x := range exprs {
		prog, rejected := eval.CompileVecBound(x, in, ctx)
		p.kinds[i] = x.Type()
		if want != nil {
			p.kinds[i] = want[i]
			if want[i] == types.KindBool && prog != nil && prog.Kind() != types.KindBool {
				prog, rejected = nil, "ResultKind"
			}
		}
		if prog != nil {
			p.progs[i] = prog
			if p.kinds[i] == types.KindNull {
				p.kinds[i] = prog.Kind()
			}
			continue
		}
		e.Metrics.Counter("exec.vec.fallback." + rejected).Inc()
		p.vectorized = false
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
	m := n
	if sel != nil {
		m = len(sel)
	}
	out := make([]*types.Column, len(p.exprs))
	for i, prog := range p.progs {
		var value func(int) types.Value
		if prog != nil {
			c := prog.Run(cols, n, sel)
			if c.Kind() == p.kinds[i] {
				out[i] = c
				continue
			}
			value = c.Value
		} else {
			vals, err := p.interpret(i, cols, n, sel)
			if err != nil {
				return nil, err
			}
			value = func(j int) types.Value { return vals[j] }
		}
		if out[i], err = castValues(p.kinds[i], m, value); err != nil {
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

// countEval records one evaluated batch on the operator profile: vectorized
// when no expression, UDF argument included, ran in the row interpreter.
func (p *ExprProgs) countEval() {
	if len(p.exprs) > 0 {
		p.stats.CountEval(p.vectorized)
	}
}

// Select narrows sel (nil = all n rows of cols) through the expressions as
// conjuncts, in their order, keeping the rows where each is TRUE. Each
// conjunct runs only over the rows the earlier ones kept, so a conjunct that
// can fail (a throwing cast) never sees a row an earlier one rejected. UDF
// waves run over all n rows, so only sel == nil may reach a list with UDF
// calls: compileExprs (the filter step) lifts them, compileProgs (scan
// filters, join residuals, DML) leaves them to the row interpreter.
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
	for i, prog := range p.progs {
		if sel != nil && len(sel) == 0 {
			break
		}
		m := n
		if sel != nil {
			m = len(sel)
		}
		next := sc.next(m)
		if prog != nil {
			next = prog.Select(cols, n, sel, next)
		} else {
			vals, err := p.interpret(i, cols, n, sel)
			if err != nil {
				return nil, err
			}
			for j, v := range vals {
				switch {
				case !v.IsTrue():
				case sel == nil:
					next = append(next, j)
				default:
					next = append(next, sel[j])
				}
			}
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

// interpret runs expression i through the row interpreter over the rows sel
// selects (nil = all n), returning one value per selected row. It is the
// engine's only call of eval.Eval.
func (p *ExprProgs) interpret(i int, cols []*types.Column, n int, sel []int) ([]types.Value, error) {
	m := n
	if sel != nil {
		m = len(sel)
	}
	vals := make([]types.Value, m)
	row := 0
	get := func(c int) types.Value { return cols[c].Value(row) }
	for j := range vals {
		row = j
		if sel != nil {
			row = sel[j]
		}
		v, err := eval.Eval(p.exprs[i], get, p.ctx)
		if err != nil {
			return nil, err
		}
		vals[j] = v
	}
	return vals, nil
}

// castValues builds a column of kind from n values, casting each one whose
// kind differs as Value.Cast does. An untyped interpreted expression (kind
// NULL: a NULL literal, or a DML expression no analyzer typed, compiled
// without a target kind) takes its first non-NULL value's kind.
func castValues(kind types.Kind, n int, value func(int) types.Value) (*types.Column, error) {
	for j := 0; kind == types.KindNull && j < n; j++ {
		if v := value(j); !v.Null {
			kind = v.Kind
		}
	}
	b := types.NewBuilder(kind, n)
	for j := 0; j < n; j++ {
		v := value(j)
		if !v.Null && v.Kind != kind {
			var err error
			if v, err = v.Cast(kind); err != nil {
				return nil, err
			}
		}
		b.Append(v)
	}
	return b.Build(), nil
}

// Package analyzer resolves unresolved logical plans against the catalog:
// name resolution, view expansion, type checking, star expansion, aggregate
// rewriting — and, critically for Lakeguard, governance policy injection.
// Row filters and column masks are woven into the plan under SecureView
// barriers during analysis, so by the time a plan executes there is no
// unguarded path to governed data. Relations whose policies cannot be
// enforced on the requesting compute resolve to RemoteScan leaves for
// external FGAC.
package analyzer

import (
	"context"
	"fmt"
	"strings"

	"lakeguard/internal/catalog"
	"lakeguard/internal/plan"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// TempFunc is a session-scoped (ephemeral) UDF definition.
type TempFunc struct {
	Params  []types.Field
	Returns types.Kind
	Body    string
	Owner   string
	// Resources names a specialized execution environment requirement.
	Resources string
}

// Analyzer resolves plans for one (user, compute) request context.
type Analyzer struct {
	Cat *catalog.Catalog
	Ctx catalog.RequestContext
	// TempViews maps lower-cased names to unresolved plans registered in the
	// session (invisible to other sessions).
	TempViews map[string]plan.Node
	// TempFuncs maps lower-cased names to session UDFs.
	TempFuncs map[string]TempFunc

	viewStack []string
}

// MaxViewDepth bounds nested view expansion (cycle guard).
const MaxViewDepth = 16

// New creates an analyzer.
func New(cat *catalog.Catalog, ctx catalog.RequestContext) *Analyzer {
	return &Analyzer{Cat: cat, Ctx: ctx}
}

// Analyze resolves a plan. The input is not mutated.
func (a *Analyzer) Analyze(n plan.Node) (plan.Node, error) {
	out, _, err := a.analyzeNode(n)
	return out, err
}

// AnalyzeCtx is Analyze under a telemetry span: name resolution and policy
// compilation are where grants are checked and row filters/column masks are
// attached, so the analysis phase is always visible in a query's trace.
func (a *Analyzer) AnalyzeCtx(ctx context.Context, n plan.Node) (plan.Node, error) {
	_, sp := telemetry.StartSpan(ctx, "analyzer.analyze")
	sp.SetAttr("user", a.Ctx.User)
	out, err := a.Analyze(n)
	sp.EndErr(err)
	return out, err
}

// AnalyzeExpr resolves a standalone expression against a schema (used for
// policy expressions and remote-scan filters).
func (a *Analyzer) AnalyzeExpr(e plan.Expr, schema *types.Schema) (plan.Expr, error) {
	return a.resolveExpr(e, scopeFromSchema("", schema, 0))
}

func (a *Analyzer) analyzeNode(n plan.Node) (plan.Node, *scope, error) {
	switch t := n.(type) {
	case *plan.UnresolvedRelation:
		return a.resolveRelation(t)

	case *plan.LocalRelation:
		return t, scopeFromSchema("", t.Data.Schema, 0), nil

	case *plan.Scan:
		return t, scopeFromSchema(lastPart(t.Table), t.Schema(), 0), nil

	case *plan.RemoteScan:
		return t, scopeFromSchema(lastPart(t.Relation), t.OutSchema, 0), nil

	case *plan.SubqueryAlias:
		child, cs, err := a.analyzeNode(t.Child)
		if err != nil {
			return nil, nil, err
		}
		return &plan.SubqueryAlias{Name: t.Name, Child: child}, cs.withQualifier(t.Name), nil

	case *plan.SecureView:
		child, cs, err := a.analyzeNode(t.Child)
		if err != nil {
			return nil, nil, err
		}
		return &plan.SecureView{Name: t.Name, PolicyKinds: t.PolicyKinds, Labels: t.Labels, Child: child}, cs, nil

	case *plan.Filter:
		if agg, ok := t.Child.(*plan.Aggregate); ok {
			// HAVING clause: resolve with aggregate machinery.
			return a.analyzeAggregate(agg, t.Cond)
		}
		child, cs, err := a.analyzeNode(t.Child)
		if err != nil {
			return nil, nil, err
		}
		cond, err := a.resolveExpr(t.Cond, cs)
		if err != nil {
			return nil, nil, err
		}
		if cond.Type() != types.KindBool {
			return nil, nil, fmt.Errorf("analyzer: WHERE condition must be boolean, got %s", cond.Type())
		}
		if containsAggCall(cond) {
			return nil, nil, fmt.Errorf("analyzer: aggregate functions are not allowed in WHERE; use HAVING")
		}
		return &plan.Filter{Cond: cond, Child: child}, cs, nil

	case *plan.Project:
		child, cs, err := a.analyzeNode(t.Child)
		if err != nil {
			return nil, nil, err
		}
		items, err := a.expandStars(t.Exprs, cs)
		if err != nil {
			return nil, nil, err
		}
		resolved := make([]plan.Expr, len(items))
		outSchema := &types.Schema{Fields: make([]types.Field, len(items))}
		for i, item := range items {
			r, err := a.resolveExpr(item, cs)
			if err != nil {
				return nil, nil, err
			}
			if containsAggCall(r) {
				return nil, nil, fmt.Errorf("analyzer: aggregate %s is not allowed without GROUP BY context", plan.RedactedString(r))
			}
			resolved[i] = r
			outSchema.Fields[i] = types.Field{Name: plan.OutputName(r), Kind: r.Type(), Nullable: true}
		}
		p := &plan.Project{Exprs: resolved, Child: child, OutSchema: outSchema}
		return p, scopeFromSchema("", outSchema, 0), nil

	case *plan.Aggregate:
		return a.analyzeAggregate(t, nil)

	case *plan.Join:
		return a.analyzeJoin(t)

	case *plan.Sort:
		return a.analyzeSort(t)

	case *plan.Limit:
		child, cs, err := a.analyzeNode(t.Child)
		if err != nil {
			return nil, nil, err
		}
		if t.N < 0 || t.Offset < 0 {
			return nil, nil, fmt.Errorf("analyzer: LIMIT/OFFSET must be non-negative")
		}
		return &plan.Limit{N: t.N, Offset: t.Offset, Child: child}, cs, nil

	case *plan.Distinct:
		child, cs, err := a.analyzeNode(t.Child)
		if err != nil {
			return nil, nil, err
		}
		return &plan.Distinct{Child: child}, cs, nil

	case *plan.Union:
		l, ls, err := a.analyzeNode(t.L)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := a.analyzeNode(t.R)
		if err != nil {
			return nil, nil, err
		}
		lsch, rsch := l.Schema(), r.Schema()
		if lsch.Len() != rsch.Len() {
			return nil, nil, fmt.Errorf("analyzer: UNION arity mismatch: %d vs %d", lsch.Len(), rsch.Len())
		}
		for i := range lsch.Fields {
			if lsch.Fields[i].Kind != rsch.Fields[i].Kind {
				return nil, nil, fmt.Errorf("analyzer: UNION column %d type mismatch: %s vs %s",
					i+1, lsch.Fields[i].Kind, rsch.Fields[i].Kind)
			}
		}
		return &plan.Union{L: l, R: r}, ls, nil
	}
	return nil, nil, fmt.Errorf("analyzer: unsupported plan node %T", n)
}

func (a *Analyzer) analyzeJoin(t *plan.Join) (plan.Node, *scope, error) {
	l, ls, err := a.analyzeNode(t.L)
	if err != nil {
		return nil, nil, err
	}
	r, rs, err := a.analyzeNode(t.R)
	if err != nil {
		return nil, nil, err
	}
	full := ls.concat(rs, l.Schema().Len())
	var cond plan.Expr
	if t.Cond != nil {
		cond, err = a.resolveExpr(t.Cond, full)
		if err != nil {
			return nil, nil, err
		}
		if cond.Type() != types.KindBool {
			return nil, nil, fmt.Errorf("analyzer: join condition must be boolean, got %s", cond.Type())
		}
	} else if t.Type != plan.JoinCross {
		return nil, nil, fmt.Errorf("analyzer: %s join requires an ON condition", t.Type)
	}
	j := &plan.Join{Type: t.Type, Cond: cond, L: l, R: r}
	switch t.Type {
	case plan.JoinLeftSemi, plan.JoinLeftAnti:
		return j, ls, nil
	}
	return j, full, nil
}

// expandStars replaces Star items with column references from the scope.
func (a *Analyzer) expandStars(items []plan.Expr, sc *scope) ([]plan.Expr, error) {
	var out []plan.Expr
	for _, item := range items {
		star, ok := item.(*plan.Star)
		if !ok {
			out = append(out, item)
			continue
		}
		cols := sc.columnsFor(star.Qualifier)
		if len(cols) == 0 {
			return nil, fmt.Errorf("analyzer: %s matches no columns", star.Qualifier+".*")
		}
		for _, c := range cols {
			out = append(out, &plan.BoundRef{Index: c.index, Name: c.name, Kind: c.kind})
		}
	}
	return out, nil
}

func lastPart(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

func containsAggCall(e plan.Expr) bool {
	return plan.ExprContains(e, func(x plan.Expr) bool {
		if _, ok := x.(*plan.AggFunc); ok {
			return true
		}
		if f, ok := x.(*plan.FuncCall); ok {
			return IsAggregateName(f.Name)
		}
		return false
	})
}

// Package optimizer implements the rule-based plan rewrites Lakeguard
// depends on: constant folding, filter pushdown (halting at SecureView
// barriers so policy-relative semantics are preserved; only copies of total
// predicates over unmasked columns enter a governed table's barrier, for its
// scan to prune by), column pruning into scans, pushdown of filters /
// projections / limits / partial aggregations into RemoteScan leaves (the
// eFGAC refinements of paper §3.4), and the grouping of UDF calls into fused
// sandbox requests with trust domains as fusion barriers (§3.3).
package optimizer

import (
	"context"
	"fmt"

	"lakeguard/internal/eval"
	"lakeguard/internal/plan"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// Options toggles individual rules (ablation benchmarks flip these).
type Options struct {
	// FoldConstants evaluates literal-only subexpressions at plan time.
	FoldConstants bool
	// PushFilters moves filter conjuncts toward scans.
	PushFilters bool
	// PruneColumns narrows scans to referenced columns.
	PruneColumns bool
	// PushIntoRemote refines RemoteScan leaves with filters, projections,
	// limits, and partial aggregations.
	PushIntoRemote bool
	// ExtraRules run after the built-in rules, in order. They exist so tests
	// can register deliberately broken rewrites and prove the sentinel
	// catches them; production configurations leave this nil.
	ExtraRules []Rule
}

// Rule is a whole-plan rewrite.
type Rule func(plan.Node) plan.Node

// DefaultOptions enables every rule.
func DefaultOptions() Options {
	return Options{
		FoldConstants:  true,
		PushFilters:    true,
		PruneColumns:   true,
		PushIntoRemote: true,
	}
}

// OptimizeCtx is Optimize under a telemetry span: the optimizer is the layer
// most likely to move policy operators around, so its phase is always
// distinguishable from analysis and verification in a trace.
func OptimizeCtx(ctx context.Context, n plan.Node, opts Options) plan.Node {
	_, sp := telemetry.StartSpan(ctx, "optimizer.optimize")
	out := Optimize(n, opts)
	sp.End()
	return out
}

// Optimize rewrites an analyzed plan. The input is not mutated.
func Optimize(n plan.Node, opts Options) plan.Node {
	n = stripAliases(n)
	if opts.FoldConstants {
		n = foldConstants(n)
	}
	if opts.PushFilters {
		n = pushFilters(n)
	}
	if opts.PushIntoRemote {
		n = pushIntoRemote(n)
	}
	if opts.PruneColumns {
		n = pruneColumns(n)
	}
	for _, r := range opts.ExtraRules {
		n = r(n)
	}
	return n
}

// stripAliases removes SubqueryAlias nodes; after analysis all references
// are bound by ordinal, so aliases are pure metadata.
func stripAliases(n plan.Node) plan.Node {
	return plan.Transform(n, func(x plan.Node) plan.Node {
		if sa, ok := x.(*plan.SubqueryAlias); ok {
			return sa.Child
		}
		return x
	})
}

// foldConstants replaces constant subexpressions with literals across all
// operator expressions.
func foldConstants(n plan.Node) plan.Node {
	return plan.Transform(n, func(x plan.Node) plan.Node {
		switch t := x.(type) {
		case *plan.Filter:
			return &plan.Filter{Cond: eval.Fold(t.Cond), Child: t.Child}
		case *plan.Project:
			exprs := make([]plan.Expr, len(t.Exprs))
			for i, e := range t.Exprs {
				exprs[i] = eval.Fold(e)
			}
			return &plan.Project{Exprs: exprs, Child: t.Child, OutSchema: t.OutSchema}
		case *plan.Join:
			if t.Cond == nil {
				return t
			}
			return &plan.Join{Type: t.Type, Cond: eval.Fold(t.Cond), L: t.L, R: t.R}
		}
		return x
	})
}

// joinConjuncts rebuilds an AND tree (nil for empty input).
func joinConjuncts(cs []plan.Expr) plan.Expr {
	if len(cs) == 0 {
		return nil
	}
	out := cs[0]
	for _, c := range cs[1:] {
		out = &plan.Binary{Op: plan.OpAnd, L: out, R: c, ResultKind: types.KindBool}
	}
	return out
}

// maxRefIndex returns the largest BoundRef ordinal in e, or -1.
func maxRefIndex(e plan.Expr) int {
	idx := -1
	plan.WalkExpr(e, func(x plan.Expr) bool {
		if b, ok := x.(*plan.BoundRef); ok && b.Index > idx {
			idx = b.Index
		}
		return true
	})
	return idx
}

// minRefIndex returns the smallest BoundRef ordinal in e, or -1 when none.
func minRefIndex(e plan.Expr) int {
	idx := -1
	plan.WalkExpr(e, func(x plan.Expr) bool {
		if b, ok := x.(*plan.BoundRef); ok && (idx == -1 || b.Index < idx) {
			idx = b.Index
		}
		return true
	})
	return idx
}

// shiftRefs returns e with every BoundRef ordinal shifted by delta.
func shiftRefs(e plan.Expr, delta int) plan.Expr {
	return plan.TransformExpr(e, func(x plan.Expr) plan.Expr {
		if b, ok := x.(*plan.BoundRef); ok {
			return &plan.BoundRef{Index: b.Index + delta, Name: b.Name, Kind: b.Kind}
		}
		return x
	})
}

// containsUDF reports whether an expression crosses the sandbox.
func containsUDF(e plan.Expr) bool {
	return plan.ExprContains(e, func(x plan.Expr) bool {
		_, ok := x.(*plan.UDFCall)
		return ok
	})
}

// pushFilters pushes filter conjuncts toward leaves. No conjunct moves
// through a SecureView: user predicates must evaluate on policy-transformed
// (masked) output. A governed table's barrier admits only copies of the
// conjuncts that cannot leak (see copyBelowBarrier); the originals stay above.
func pushFilters(n plan.Node) plan.Node {
	return plan.Transform(n, func(x plan.Node) plan.Node {
		f, ok := x.(*plan.Filter)
		if !ok {
			return x
		}
		return pushFilterOnce(f)
	})
}

func pushFilterOnce(f *plan.Filter) plan.Node {
	conjuncts := plan.SplitConjuncts(f.Cond)
	switch child := f.Child.(type) {
	case *plan.Filter:
		merged := joinConjuncts(append(conjuncts, plan.SplitConjuncts(child.Cond)...))
		return pushFilterOnce(&plan.Filter{Cond: merged, Child: child.Child})

	case *plan.Project:
		// Push conjuncts whose referenced projection items are pass-through
		// column refs (no recomputation, no UDF duplication).
		var pushed, kept []plan.Expr
		for _, c := range conjuncts {
			rewritten, ok := substituteThroughProject(c, child.Exprs)
			if ok {
				pushed = append(pushed, rewritten)
			} else {
				kept = append(kept, c)
			}
		}
		if len(pushed) == 0 {
			return f
		}
		inner := pushFilterOnce(&plan.Filter{Cond: joinConjuncts(pushed), Child: child.Child})
		newProj := &plan.Project{Exprs: child.Exprs, Child: inner, OutSchema: child.OutSchema}
		if len(kept) == 0 {
			return newProj
		}
		return &plan.Filter{Cond: joinConjuncts(kept), Child: newProj}

	case *plan.Join:
		if child.Type != plan.JoinInner && child.Type != plan.JoinCross {
			return f
		}
		leftLen := child.L.Schema().Len()
		var leftC, rightC, kept []plan.Expr
		for _, c := range conjuncts {
			lo, hi := minRefIndex(c), maxRefIndex(c)
			switch {
			case hi < leftLen && lo >= 0:
				leftC = append(leftC, c)
			case lo >= leftLen:
				rightC = append(rightC, shiftRefs(c, -leftLen))
			default:
				kept = append(kept, c)
			}
		}
		if len(leftC) == 0 && len(rightC) == 0 {
			return f
		}
		l, r := child.L, child.R
		if len(leftC) > 0 {
			l = pushFilterOnce(&plan.Filter{Cond: joinConjuncts(leftC), Child: l})
		}
		if len(rightC) > 0 {
			r = pushFilterOnce(&plan.Filter{Cond: joinConjuncts(rightC), Child: r})
		}
		j := &plan.Join{Type: child.Type, Cond: child.Cond, L: l, R: r}
		if len(kept) == 0 {
			return j
		}
		return &plan.Filter{Cond: joinConjuncts(kept), Child: j}

	case *plan.Union:
		l := pushFilterOnce(&plan.Filter{Cond: f.Cond, Child: child.L})
		r := pushFilterOnce(&plan.Filter{Cond: f.Cond, Child: child.R})
		return &plan.Union{L: l, R: r}

	case *plan.Scan:
		var pushable, kept []plan.Expr
		for _, c := range conjuncts {
			if containsUDF(c) {
				kept = append(kept, c)
			} else {
				pushable = append(pushable, c)
			}
		}
		if len(pushable) == 0 {
			return f
		}
		sc := *child
		sc.PushedFilters = append(append([]plan.Expr{}, sc.PushedFilters...), pushable...)
		if len(kept) == 0 {
			return &sc
		}
		return &plan.Filter{Cond: joinConjuncts(kept), Child: &sc}

	case *plan.SecureView:
		return copyBelowBarrier(f, conjuncts, child)
	}
	return f
}

// copyBelowBarrier copies each conjunct that cannot leak into the pushed
// filters of a governed table's scan, after the row filter's conjuncts, so
// zone maps can prune the scan; the filter itself stays above the barrier
// unchanged. A conjunct cannot leak when it is total (eval.Total: it cannot
// raise on a hidden row, has no side effect, runs no user code) and reads
// only unmasked columns (the bare column references of the mask projection),
// so it sees the same values below the barrier as above. View and
// materialized-view barriers, and governed barriers whose interior is not
// [mask Project] → Scan, admit nothing. A conjunct already among the scan's
// pushed filters is not copied again.
func copyBelowBarrier(f *plan.Filter, conjuncts []plan.Expr, sv *plan.SecureView) plan.Node {
	var mask *plan.Project
	inner := sv.Child
	switch {
	case hasPolicyKind(sv, "column_mask"):
		p, ok := inner.(*plan.Project)
		if !ok {
			return f
		}
		mask, inner = p, p.Child
	case !hasPolicyKind(sv, "row_filter"):
		return f
	}
	sc, ok := inner.(*plan.Scan)
	if !ok {
		return f
	}
	var copies []plan.Expr
	var pushed map[string]bool
	for _, c := range conjuncts {
		if !eval.Total(c) {
			continue
		}
		if mask != nil {
			if !passThroughOnly(c, mask.Exprs) {
				continue
			}
			c, _ = substituteThroughProject(c, mask.Exprs)
		}
		if pushed == nil {
			pushed = map[string]bool{}
			for _, pf := range sc.PushedFilters {
				pushed[pf.String()] = true
			}
		}
		if key := c.String(); !pushed[key] {
			pushed[key] = true
			copies = append(copies, c)
		}
	}
	if len(copies) == 0 {
		return f
	}
	nsc := *sc
	nsc.PushedFilters = append(append([]plan.Expr{}, sc.PushedFilters...), copies...)
	var interior plan.Node = &nsc
	if mask != nil {
		interior = &plan.Project{Exprs: mask.Exprs, Child: interior, OutSchema: mask.OutSchema}
	}
	return &plan.Filter{Cond: f.Cond, Child: sv.WithChildren([]plan.Node{interior})}
}

// passThroughOnly reports whether every column c reads is a bare column
// reference in items (a mask is an aliased expression, even when it is the
// raw column itself).
func passThroughOnly(c plan.Expr, items []plan.Expr) bool {
	return !plan.ExprContains(c, func(x plan.Expr) bool {
		b, ok := x.(*plan.BoundRef)
		if !ok {
			return false
		}
		if b.Index < 0 || b.Index >= len(items) {
			return true
		}
		_, bare := items[b.Index].(*plan.BoundRef)
		return !bare
	})
}

// substituteThroughProject rewrites a conjunct over a projection's output to
// one over its input, succeeding only when every referenced item is itself a
// plain column reference.
func substituteThroughProject(c plan.Expr, items []plan.Expr) (plan.Expr, bool) {
	ok := true
	out := plan.TransformExpr(c, func(x plan.Expr) plan.Expr {
		b, isRef := x.(*plan.BoundRef)
		if !isRef {
			return x
		}
		if b.Index >= len(items) {
			ok = false
			return x
		}
		item := items[b.Index]
		if a, isAlias := item.(*plan.Alias); isAlias {
			item = a.Child
		}
		if inner, isRef := item.(*plan.BoundRef); isRef {
			return inner
		}
		ok = false
		return x
	})
	return out, ok
}

// refToName converts a bound conjunct back to name-based form for remote
// re-resolution. Fails (ok=false) if any ref has an empty name.
func refToName(e plan.Expr) (plan.Expr, bool) {
	ok := true
	out := plan.TransformExpr(e, func(x plan.Expr) plan.Expr {
		if b, isRef := x.(*plan.BoundRef); isRef {
			if b.Name == "" {
				ok = false
				return x
			}
			return &plan.ColumnRef{Name: b.Name}
		}
		return x
	})
	return out, ok
}

// pushIntoRemote refines RemoteScan leaves: filters, then limits, then
// partial aggregations, exactly the refinements §3.4 pushes into the remote
// subquery.
func pushIntoRemote(n plan.Node) plan.Node {
	n = plan.Transform(n, func(x plan.Node) plan.Node {
		switch t := x.(type) {
		case *plan.Filter:
			rs, ok := t.Child.(*plan.RemoteScan)
			if !ok {
				return x
			}
			var pushed []plan.Expr
			var kept []plan.Expr
			for _, c := range plan.SplitConjuncts(t.Cond) {
				if containsUDF(c) {
					kept = append(kept, c)
					continue
				}
				named, ok := refToName(c)
				if !ok {
					kept = append(kept, c)
					continue
				}
				pushed = append(pushed, named)
			}
			if len(pushed) == 0 {
				return x
			}
			nrs := *rs
			nrs.PushedFilters = append(append([]plan.Expr{}, nrs.PushedFilters...), pushed...)
			if len(kept) == 0 {
				return &nrs
			}
			return &plan.Filter{Cond: joinConjuncts(kept), Child: &nrs}

		case *plan.Limit:
			rs, ok := t.Child.(*plan.RemoteScan)
			if !ok || t.Offset != 0 || rs.PushedAggregate != nil {
				return x
			}
			nrs := *rs
			nrs.PushedLimit = t.N
			// Keep the local limit for exactness; remote limit bounds transfer.
			return &plan.Limit{N: t.N, Offset: 0, Child: &nrs}

		case *plan.Aggregate:
			return pushPartialAggregate(t)
		}
		return x
	})
	return n
}

// pushPartialAggregate ships an aggregation into the RemoteScan and keeps a
// local re-aggregation over the partial results, so spilled/partitioned
// remote results still combine correctly:
//
//	SUM   -> remote SUM,  local SUM
//	COUNT -> remote COUNT, local SUM
//	MIN   -> remote MIN,  local MIN
//	MAX   -> remote MAX,  local MAX
//
// AVG and DISTINCT aggregates are not decomposable this way and stay local.
func pushPartialAggregate(agg *plan.Aggregate) plan.Node {
	rs, ok := agg.Child.(*plan.RemoteScan)
	if !ok || rs.PushedAggregate != nil || rs.PushedLimit >= 0 {
		return agg
	}
	var groupNames []string
	for _, g := range agg.GroupBy {
		b, ok := g.(*plan.BoundRef)
		if !ok || b.Name == "" {
			return agg
		}
		groupNames = append(groupNames, b.Name)
	}
	var remoteAggs []string
	var localAggs []plan.Expr
	newSchema := &types.Schema{}
	for i, g := range agg.GroupBy {
		newSchema.Fields = append(newSchema.Fields, types.Field{
			Name: groupNames[i], Kind: g.Type(), Nullable: true,
		})
	}
	for ai, e := range agg.Aggs {
		af, ok := e.(*plan.AggFunc)
		if !ok || af.Distinct || af.Name == "avg" {
			return agg
		}
		var argName string
		if af.Arg != nil {
			b, ok := af.Arg.(*plan.BoundRef)
			if !ok || b.Name == "" {
				return agg
			}
			argName = b.Name
		}
		outName := fmt.Sprintf("__partial%d", ai)
		switch af.Name {
		case "sum":
			remoteAggs = append(remoteAggs, fmt.Sprintf("SUM(%s) AS %s", argName, outName))
		case "count":
			if argName == "" {
				remoteAggs = append(remoteAggs, fmt.Sprintf("COUNT(*) AS %s", outName))
			} else {
				remoteAggs = append(remoteAggs, fmt.Sprintf("COUNT(%s) AS %s", argName, outName))
			}
		case "min":
			remoteAggs = append(remoteAggs, fmt.Sprintf("MIN(%s) AS %s", argName, outName))
		case "max":
			remoteAggs = append(remoteAggs, fmt.Sprintf("MAX(%s) AS %s", argName, outName))
		default:
			return agg
		}
		partialKind := af.ResultKind
		slot := len(agg.GroupBy) + ai
		ref := &plan.BoundRef{Index: slot, Name: outName, Kind: partialKind}
		combineName := af.Name
		if af.Name == "count" {
			combineName = "sum" // counts combine by summation
		}
		localAggs = append(localAggs, &plan.AggFunc{Name: combineName, Arg: ref, ResultKind: af.ResultKind})
		newSchema.Fields = append(newSchema.Fields, types.Field{Name: outName, Kind: partialKind, Nullable: true})
	}

	nrs := *rs
	nrs.PushedAggregate = &plan.RemoteAggregate{GroupBy: groupNames, Aggs: remoteAggs}
	nrs.OutSchema = newSchema

	// Local group-by over the remote group columns (same ordinals 0..k-1).
	localGroups := make([]plan.Expr, len(agg.GroupBy))
	for i, g := range agg.GroupBy {
		localGroups[i] = &plan.BoundRef{Index: i, Name: groupNames[i], Kind: g.Type()}
	}
	return &plan.Aggregate{
		GroupBy:   localGroups,
		Aggs:      localAggs,
		Child:     &nrs,
		OutSchema: agg.OutSchema,
	}
}

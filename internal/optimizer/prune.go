package optimizer

import (
	"sort"
	"strings"

	"lakeguard/internal/plan"
)

// pruneColumns narrows Scan and RemoteScan leaves to the columns actually
// referenced above them, descending through intervening filters and through
// the policy barriers of governed tables. For remote scans this becomes the
// pushed projection of the eFGAC subquery.
func pruneColumns(n plan.Node) plan.Node {
	return plan.Transform(n, func(x plan.Node) plan.Node {
		switch t := x.(type) {
		case *plan.Project:
			used := map[int]bool{}
			collectRefs(t.Exprs, used)
			child, remap := tryPrune(t.Child, used)
			if remap == nil {
				return x
			}
			return &plan.Project{Exprs: remapExprs(t.Exprs, remap), Child: child, OutSchema: t.OutSchema}
		case *plan.Aggregate:
			used := map[int]bool{}
			collectRefs(t.GroupBy, used)
			collectRefs(t.Aggs, used)
			child, remap := tryPrune(t.Child, used)
			if remap == nil {
				return x
			}
			return &plan.Aggregate{
				GroupBy:   remapExprs(t.GroupBy, remap),
				Aggs:      remapExprs(t.Aggs, remap),
				Child:     child,
				OutSchema: t.OutSchema,
			}
		}
		return x
	})
}

func collectRefs(exprs []plan.Expr, used map[int]bool) {
	for _, e := range exprs {
		plan.WalkExpr(e, func(x plan.Expr) bool {
			if b, ok := x.(*plan.BoundRef); ok {
				used[b.Index] = true
			}
			return true
		})
	}
}

func remapExprs(exprs []plan.Expr, remap map[int]int) []plan.Expr {
	out := make([]plan.Expr, len(exprs))
	for i, e := range exprs {
		out[i] = plan.TransformExpr(e, func(x plan.Expr) plan.Expr {
			if b, ok := x.(*plan.BoundRef); ok {
				if ni, ok := remap[b.Index]; ok {
					return &plan.BoundRef{Index: ni, Name: b.Name, Kind: b.Kind}
				}
			}
			return x
		})
	}
	return out
}

// tryPrune descends through Filter nodes and governed-table barriers to a
// Scan or RemoteScan leaf and narrows it to the used columns, returning the
// rewritten subtree and the old→new ordinal mapping. A nil map means "no
// change".
func tryPrune(n plan.Node, used map[int]bool) (plan.Node, map[int]int) {
	switch t := n.(type) {
	case *plan.Filter:
		inner := map[int]bool{}
		for k := range used {
			inner[k] = true
		}
		collectRefs([]plan.Expr{t.Cond}, inner)
		child, remap := tryPrune(t.Child, inner)
		if remap == nil {
			return n, nil
		}
		cond := remapExprs([]plan.Expr{t.Cond}, remap)[0]
		return &plan.Filter{Cond: cond, Child: child}, remap

	case *plan.SecureView:
		return pruneBarrier(t, used)

	case *plan.Join:
		return pruneJoin(t, used)

	case *plan.Scan:
		collectRefs(t.PushedFilters, used)
		total := t.Schema().Len()
		keep := sortedKeys(used, total)
		if len(keep) == total {
			return n, nil
		}
		remap := make(map[int]int, len(keep))
		cols := make([]int, len(keep))
		for ni, oi := range keep {
			remap[oi] = ni
			cols[ni] = oi
			if t.ProjectedCols != nil {
				// An inner projection already narrowed this scan: compose.
				cols[ni] = t.ProjectedCols[oi]
			}
		}
		sc := *t
		sc.ProjectedCols = cols
		sc.PushedFilters = remapExprs(sc.PushedFilters, remap)
		return &sc, remap

	case *plan.RemoteScan:
		if t.PushedAggregate != nil || t.PushedProjection != nil {
			return n, nil
		}
		total := t.OutSchema.Len()
		keep := sortedKeys(used, total)
		if len(keep) == total {
			return n, nil
		}
		remap := make(map[int]int, len(keep))
		names := make([]string, len(keep))
		for ni, oi := range keep {
			remap[oi] = ni
			names[ni] = t.OutSchema.Fields[oi].Name
		}
		rs := *t
		rs.PushedProjection = names
		rs.OutSchema = t.OutSchema.Project(keep)
		// PushedFilters are name-based and re-resolved remotely against the
		// full relation, so they survive projection unchanged.
		return &rs, remap
	}
	return n, nil
}

// pruneJoin narrows both sides of an inner or cross join to the columns used
// above it plus those its condition reads, and remaps the join's output
// ordinals. Each side prunes on its own, so a governed side goes through its
// barrier (pruneBarrier) exactly as it would under a projection. Outer,
// semi and anti joins are left as they are.
func pruneJoin(j *plan.Join, used map[int]bool) (plan.Node, map[int]int) {
	if j.Type != plan.JoinInner && j.Type != plan.JoinCross {
		return j, nil
	}
	nl, nr := j.L.Schema().Len(), j.R.Schema().Len()
	all := map[int]bool{}
	for k := range used {
		all[k] = true
	}
	if j.Cond != nil {
		collectRefs([]plan.Expr{j.Cond}, all)
	}
	left, right := map[int]bool{}, map[int]bool{}
	for k := range all {
		switch {
		case k >= 0 && k < nl:
			left[k] = true
		case k >= nl && k < nl+nr:
			right[k-nl] = true
		}
	}
	l, lremap := tryPrune(j.L, left)
	r, rremap := tryPrune(j.R, right)
	if lremap == nil && rremap == nil {
		return j, nil
	}
	remap := make(map[int]int, nl+nr)
	for _, s := range []struct {
		from, n, to int
		remap       map[int]int
	}{{0, nl, 0, lremap}, {nl, nr, l.Schema().Len(), rremap}} {
		for i := 0; i < s.n; i++ {
			if ni, ok := s.remap[i]; ok {
				remap[s.from+i] = s.to + ni
			} else if s.remap == nil {
				remap[s.from+i] = s.to + i
			}
		}
	}
	out := &plan.Join{Type: j.Type, L: l, R: r}
	if j.Cond != nil {
		out.Cond = remapExprs([]plan.Expr{j.Cond}, remap)[0]
	}
	return out, remap
}

// pruneBarrier narrows a governed table's SecureView to the outputs used
// above it. The barrier's interior is the analyzer-injected policy chain
// [Project masks] → [Filter rowFilter] → Scan, and the rewrite never changes
// what it evaluates, only what it carries: unused items are dropped from the
// mask projection (a query that does not select a masked column never
// computes its mask) and the scan below is narrowed to what the kept items,
// the row filter and its pushed form still read. A mask is dropped only
// when its raw column leaves the barrier entirely — when a kept item, the
// row filter or another mask still reads the raw column, its mask stays
// (the sentinel's mask-before-use invariant). View and materialized-view
// barriers are left as they are.
func pruneBarrier(sv *plan.SecureView, used map[int]bool) (plan.Node, map[int]int) {
	if !hasPolicyKind(sv, "column_mask") {
		if !hasPolicyKind(sv, "row_filter") {
			return sv, nil
		}
		child, remap := tryPrune(sv.Child, used)
		if remap == nil {
			return sv, nil
		}
		return sv.WithChildren([]plan.Node{child}), remap
	}
	proj, ok := sv.Child.(*plan.Project)
	if !ok {
		return sv, nil
	}
	keep := map[int]bool{}
	for k := range used {
		if k >= 0 && k < len(proj.Exprs) {
			keep[k] = true
		}
	}
	if len(keep) == 0 {
		// COUNT(*) and friends need rows, not values: carry one column,
		// preferring a pass-through one that computes no mask.
		keep[passThroughItem(proj.Exprs)] = true
	}
	var child plan.Node
	var remap map[int]int
	for {
		inner := map[int]bool{}
		for i := range keep {
			collectRefs(proj.Exprs[i:i+1], inner)
		}
		child, remap = tryPrune(proj.Child, inner)
		raw := map[string]bool{}
		for _, f := range child.Schema().Fields {
			raw[strings.ToLower(f.Name)] = true
		}
		grew := false
		for i, e := range proj.Exprs {
			if _, passThrough := e.(*plan.BoundRef); passThrough || keep[i] {
				continue
			}
			if raw[strings.ToLower(plan.OutputName(e))] {
				keep[i] = true // the raw column stays, so its mask does too
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	if len(keep) == len(proj.Exprs) && remap == nil {
		return sv, nil
	}
	idx := sortedKeys(keep, len(proj.Exprs))
	outRemap := make(map[int]int, len(idx))
	exprs := make([]plan.Expr, len(idx))
	for ni, oi := range idx {
		outRemap[oi] = ni
		exprs[ni] = proj.Exprs[oi]
	}
	if remap != nil {
		exprs = remapExprs(exprs, remap)
	}
	np := &plan.Project{Exprs: exprs, Child: child, OutSchema: proj.OutSchema.Project(idx)}
	return sv.WithChildren([]plan.Node{np}), outRemap
}

func hasPolicyKind(sv *plan.SecureView, kind string) bool {
	for _, k := range sv.PolicyKinds {
		if k == kind {
			return true
		}
	}
	return false
}

// passThroughItem returns the first projection item that is a plain column
// reference, or 0 when every item computes something.
func passThroughItem(exprs []plan.Expr) int {
	for i, e := range exprs {
		if _, ok := e.(*plan.BoundRef); ok {
			return i
		}
	}
	return 0
}

// sortedKeys returns the used ordinals sorted ascending, clamped to the
// schema and never empty (a scan must produce row counts even for COUNT(*)).
func sortedKeys(used map[int]bool, total int) []int {
	var keep []int
	for k := range used {
		if k >= 0 && k < total {
			keep = append(keep, k)
		}
	}
	if len(keep) == 0 {
		keep = []int{0}
	}
	sort.Ints(keep)
	return keep
}

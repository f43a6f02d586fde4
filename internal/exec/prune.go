package exec

import (
	"lakeguard/internal/delta"
	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// pruneFiles evaluates the scan's pushed filter conjuncts against each file's
// zone-map statistics and returns the indices of files that may contain
// matching rows, in snapshot order. Files without statistics (committed
// before stats existed) are always kept. Pruning is conservative: a file is
// skipped only when the statistics prove no row can satisfy every conjunct,
// under the engine's own comparison semantics (NULL-strict comparisons, NaN
// ordering equal to everything, numeric widening via types.Value.Compare).
// PruneFilesForPredicate returns the indices of files that may contain rows
// matching pred (a resolved predicate over the full table schema), using the
// same conservative zone-map logic scans use. The DML planner calls it so a
// selective DELETE/UPDATE never GETs files whose statistics prove no match.
func PruneFilesForPredicate(schema *types.Schema, pred plan.Expr, files []delta.AddFile) []int {
	scan := &plan.Scan{TableSchema: schema, PushedFilters: []plan.Expr{pred}}
	return pruneFiles(scan, files)
}

func pruneFiles(scan *plan.Scan, files []delta.AddFile) []int {
	keep := make([]int, 0, len(files))
	for i, f := range files {
		if fileMayMatch(scan, f.Stats) {
			keep = append(keep, i)
		}
	}
	return keep
}

func fileMayMatch(scan *plan.Scan, fs *delta.FileStats) bool {
	if fs == nil {
		return true
	}
	for _, conj := range scan.PushedFilters {
		if !exprMayMatch(conj, scan, fs) {
			return false
		}
	}
	return true
}

// exprMayMatch reports whether any row of a file with statistics fs can make
// e evaluate to true. Unknown expression shapes return true (never prune on
// guesswork). Filters run over the scan's output schema (post projection), so
// BoundRef ordinals resolve through scan.Schema().
func exprMayMatch(e plan.Expr, scan *plan.Scan, fs *delta.FileStats) bool {
	switch t := e.(type) {
	case *plan.Binary:
		switch t.Op {
		case plan.OpAnd:
			return exprMayMatch(t.L, scan, fs) && exprMayMatch(t.R, scan, fs)
		case plan.OpOr:
			return exprMayMatch(t.L, scan, fs) || exprMayMatch(t.R, scan, fs)
		}
		if !t.Op.IsComparison() {
			return true
		}
		if col, lit, ok := splitComparison(t.L, t.R); ok {
			return rangeMayMatch(t.Op, scan, fs, col, lit.Value)
		}
		if col, lit, ok := splitComparison(t.R, t.L); ok {
			return rangeMayMatch(flipCmp(t.Op), scan, fs, col, lit.Value)
		}
		return true

	case *plan.IsNull:
		col, ok := t.Child.(*plan.BoundRef)
		if !ok {
			return true
		}
		cs, ok := colStatsFor(scan, fs, col)
		if !ok {
			return true
		}
		if t.Negated {
			return fs.NumRecords-cs.NullCount > 0
		}
		return cs.NullCount > 0

	case *plan.InList:
		if t.Negated {
			return true
		}
		col, ok := t.Child.(*plan.BoundRef)
		if !ok {
			return true
		}
		for _, item := range t.List {
			lit, ok := item.(*plan.Literal)
			if !ok {
				return true // non-literal element: cannot bound, keep the file
			}
			if rangeMayMatch(plan.OpEq, scan, fs, col, lit.Value) {
				return true
			}
		}
		return false
	}
	return true
}

// splitComparison matches the `col op literal` shape.
func splitComparison(l, r plan.Expr) (*plan.BoundRef, *plan.Literal, bool) {
	col, ok := l.(*plan.BoundRef)
	if !ok {
		return nil, nil, false
	}
	lit, ok := r.(*plan.Literal)
	if !ok {
		return nil, nil, false
	}
	return col, lit, true
}

// flipCmp mirrors a comparison so `lit op col` becomes `col op' lit`.
func flipCmp(op plan.BinOp) plan.BinOp {
	switch op {
	case plan.OpLt:
		return plan.OpGt
	case plan.OpLte:
		return plan.OpGte
	case plan.OpGt:
		return plan.OpLt
	case plan.OpGte:
		return plan.OpLte
	}
	return op // Eq and Neq are symmetric
}

func colStatsFor(scan *plan.Scan, fs *delta.FileStats, col *plan.BoundRef) (delta.ColStats, bool) {
	name := col.Name
	if fields := scan.Schema().Fields; col.Index >= 0 && col.Index < len(fields) {
		name = fields[col.Index].Name
	}
	return fs.Col(name)
}

// rangeMayMatch decides `col op v` against the column's [min, max] range:
// missing statistics keep the file, NaN keeps it, an all-NULL column prunes
// it, and incomparable kinds keep it.
func rangeMayMatch(op plan.BinOp, scan *plan.Scan, fs *delta.FileStats, col *plan.BoundRef, v types.Value) bool {
	if v.Null {
		// Comparison with NULL is NULL for every row; the filter keeps none.
		return false
	}
	cs, ok := colStatsFor(scan, fs, col)
	if !ok {
		return true
	}
	if cs.HasNaN {
		// The engine orders NaN equal to everything, so NaN rows can satisfy
		// =, <=, >= regardless of the recorded range: never prune.
		return true
	}
	if cs.NullCount >= fs.NumRecords {
		// Every value is NULL; every comparison is NULL; no row passes.
		return false
	}
	min, max, ok := cs.Bounds()
	if !ok {
		return true // range not recorded (e.g. oversized strings)
	}
	cmpMin, okMin := min.Compare(v)
	cmpMax, okMax := max.Compare(v)
	if !okMin || !okMax {
		return true // incomparable kinds: leave the decision to row filtering
	}
	switch op {
	case plan.OpEq:
		return cmpMin <= 0 && cmpMax >= 0
	case plan.OpNeq:
		return !(cmpMin == 0 && cmpMax == 0)
	case plan.OpLt:
		return cmpMin < 0
	case plan.OpLte:
		return cmpMin <= 0
	case plan.OpGt:
		return cmpMax > 0
	case plan.OpGte:
		return cmpMax >= 0
	}
	return true
}

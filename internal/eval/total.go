package eval

import (
	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// Total reports whether e is total: evaluating it cannot raise an error, has
// no side effect, and gives the same value for the same row throughout one
// statement. The optimizer may copy only total predicates below a policy
// barrier, and the sentinel proves that nothing else runs there: a predicate
// that raises on a hidden row tells its caller the row exists (an error
// oracle), even though the row itself never leaves the barrier.
//
// Total is a whitelist of shapes whose Eval and vector kernels have no error
// path: column references, literals, AND/OR/NOT, IS [NOT] NULL, IN over
// literals, comparisons whose operands share a kind (or are both numeric,
// which Compare widens), and the statement's identity functions (Eval needs
// a Context for those; every statement has one). It rejects casts,
// arithmetic, scalar functions, LIKE, CASE, UDF calls and anything it does
// not know, whether or not a particular instance could fail.
func Total(e plan.Expr) bool {
	switch t := e.(type) {
	case *plan.Literal, *plan.BoundRef, *plan.CurrentUser, *plan.GroupMember:
		return true
	case *plan.Alias:
		return Total(t.Child)
	case *plan.Binary:
		switch {
		case t.Op == plan.OpAnd || t.Op == plan.OpOr:
		case t.Op.IsComparison():
			if !comparable(t.L.Type(), t.R.Type()) {
				return false
			}
		default:
			return false
		}
		return Total(t.L) && Total(t.R)
	case *plan.Unary:
		return t.Op == plan.OpNot && Total(t.Child)
	case *plan.IsNull:
		return Total(t.Child)
	case *plan.InList:
		for _, item := range t.List {
			if _, lit := item.(*plan.Literal); !lit {
				return false
			}
		}
		return Total(t.Child)
	}
	return false
}

// comparable reports whether Value.Compare succeeds for every pair of values
// of kinds l and r. A NULL-kinded side is always NULL, and a comparison with
// NULL is NULL, never an error.
func comparable(l, r types.Kind) bool {
	return (l == r && l.Valid()) || (l.Numeric() && r.Numeric()) || l == types.KindNull || r == types.KindNull
}

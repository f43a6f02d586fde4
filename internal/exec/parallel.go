// Morsel-driven operator wiring: how the engine decides which parts of a
// plan run across workers and how those parts keep serial semantics. The
// rules are:
//
//   - Parallelism changes operators, never plan shape: the optimizer and the
//     security verifier see the exact same plan regardless of worker count.
//   - Every fork between inline and parallel work is one stream (exchange.go)
//     whose worker count streamWorkers decides; results are gathered in
//     morsel order, so every operator emits the same batch sequence serial
//     execution would (byte-identical output).
//   - A scan and every chain of Filter, Project, SecureView and
//     SubqueryAlias nodes above one source are one stream (pipeline.go):
//     one exchange, one selection narrowed in place, one gather at the end.
//   - Expression stages with UDF calls stay inline; sandbox crossings
//     already partition large batches across workers internally
//     (udfrun.go), and stacking the two would oversubscribe trust-domain
//     sandboxes.
package exec

import (
	"slices"

	"lakeguard/internal/plan"
)

// exprsHaveUDF reports whether any expression contains a UDF call.
func exprsHaveUDF(exprs []plan.Expr) bool {
	return slices.ContainsFunc(exprs, func(e plan.Expr) bool {
		return plan.ExprContains(e, func(x plan.Expr) bool {
			_, ok := x.(*plan.UDFCall)
			return ok
		})
	})
}

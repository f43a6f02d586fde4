package optimizer

import (
	"fmt"

	"lakeguard/internal/plan"
)

// ExtractedCall is one UDF invocation lifted out of a projection: the call
// (with arguments rewritten over the current batch layout) and the batch
// column its result will occupy.
type ExtractedCall struct {
	Call     *plan.UDFCall
	OutIndex int
}

// UDFGroup is a set of UDF calls that execute in one sandbox crossing. All
// calls in a group share one trust domain and one resource class — trust
// domains and resource requirements are both fusion barriers.
type UDFGroup struct {
	TrustDomain string
	// Resources is the specialized pool the group must run in ("" =
	// standard executors).
	Resources string
	Calls     []ExtractedCall
}

// UDFPlan is the result of lifting UDF calls out of projection expressions.
type UDFPlan struct {
	// Exprs are the projection expressions with every UDFCall replaced by a
	// BoundRef to an appended result column.
	Exprs []plan.Expr
	// Waves are executed in order; within a wave, each group is one sandbox
	// crossing. Later waves may consume earlier waves' outputs (nested UDFs).
	Waves [][]UDFGroup
	// Width is the final batch width after all result columns are appended.
	Width int
	// TotalCalls counts extracted UDF invocations.
	TotalCalls int
}

// HasUDFs reports whether any call was extracted.
func (p *UDFPlan) HasUDFs() bool { return p.TotalCalls > 0 }

// PlanUDFs lifts UDF calls out of projection expressions. With fuse=true,
// calls of the same trust domain within a wave share a sandbox crossing;
// with fuse=false every call crosses separately (the ablation baseline).
func PlanUDFs(exprs []plan.Expr, inputWidth int, fuse bool) (*UDFPlan, error) {
	out := &UDFPlan{Exprs: append([]plan.Expr{}, exprs...), Width: inputWidth}
	const maxWaves = 64
	for wave := 0; ; wave++ {
		if wave >= maxWaves {
			return nil, fmt.Errorf("optimizer: UDF nesting exceeds %d levels", maxWaves)
		}
		var extracted []ExtractedCall
		for i, e := range out.Exprs {
			out.Exprs[i] = extractWave(e, out.Width, &extracted)
		}
		if len(extracted) == 0 {
			return out, nil
		}
		out.Width += len(extracted)
		out.TotalCalls += len(extracted)
		out.Waves = append(out.Waves, groupCalls(extracted, fuse))
	}
}

// extractWave replaces innermost UDF calls (those whose arguments contain no
// other UDF call) with BoundRefs to appended columns. Outer calls stay in
// place for a later wave, so a call's arguments only ever reference columns
// that already exist when its wave executes.
func extractWave(e plan.Expr, width int, extracted *[]ExtractedCall) plan.Expr {
	if call, ok := e.(*plan.UDFCall); ok {
		hasInner := false
		for _, a := range call.Args {
			if containsUDF(a) {
				hasInner = true
				break
			}
		}
		if !hasInner {
			idx := width + len(*extracted)
			*extracted = append(*extracted, ExtractedCall{Call: call, OutIndex: idx})
			return &plan.BoundRef{Index: idx, Name: call.Name, Kind: call.ResultKind}
		}
		newArgs := make([]plan.Expr, len(call.Args))
		for i, a := range call.Args {
			newArgs[i] = extractWave(a, width, extracted)
		}
		cp := *call
		cp.Args = newArgs
		return &cp
	}
	children := e.ChildExprs()
	if len(children) == 0 {
		return e
	}
	newChildren := make([]plan.Expr, len(children))
	changed := false
	for i, c := range children {
		newChildren[i] = extractWave(c, width, extracted)
		if newChildren[i] != c {
			changed = true
		}
	}
	if !changed {
		return e
	}
	return e.WithChildExprs(newChildren)
}

// groupCalls partitions extracted calls into sandbox crossings. Fusion never
// crosses trust-domain boundaries: a group holds one owner's code only.
func groupCalls(calls []ExtractedCall, fuse bool) []UDFGroup {
	if !fuse {
		groups := make([]UDFGroup, len(calls))
		for i, c := range calls {
			groups[i] = UDFGroup{TrustDomain: c.Call.Owner, Resources: c.Call.Resources, Calls: []ExtractedCall{c}}
		}
		return groups
	}
	var groups []UDFGroup
	byKey := map[string]int{}
	for _, c := range calls {
		key := c.Call.Owner + "\x00" + c.Call.Resources
		gi, ok := byKey[key]
		if !ok {
			gi = len(groups)
			byKey[key] = gi
			groups = append(groups, UDFGroup{TrustDomain: c.Call.Owner, Resources: c.Call.Resources})
		}
		groups[gi].Calls = append(groups[gi].Calls, c)
	}
	return groups
}

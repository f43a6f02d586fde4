package sentinel

import (
	"fmt"
	"strings"

	"lakeguard/internal/eval"
	"lakeguard/internal/plan"
)

// This file implements the sentinel's information-flow pass. The structural
// invariants in sentinel.go check that policy *operators* survive
// optimization; the dataflow pass checks that policy *data* cannot route
// around them. Every governed source column is tagged with the labels the
// analyzer seeded on its SecureView barrier (column_mask per masked column,
// row_filter/tenant_scope for the row policy), the labels propagate bottom-up
// through the optimized plan's projections, filters, joins, and aggregates in
// a powerset lattice (join = union), and each label must be discharged by the
// surviving policy operator that implements it — the mask expression for a
// column_mask, the complete set of policy conjuncts for a row_filter — before
// the flow crosses the barrier boundary. Whatever survives to a sink (the
// client-facing root, a sandboxed UDF argument) is a proven leak, reported
// with the violated label so the audit trail can attribute it.
//
// This closes the copy/alias gap in the name-based mask check: `seller AS cc`
// inside a barrier launders the raw column past any check that looks for the
// *name* "seller", but the label travels with the value, not the name.

// flow is the lattice value for one plan node: a label set per output column
// plus a row-level set for obligations that constrain which rows may be
// observed at all.
type flow struct {
	cols []plan.LabelSet
	rows plan.LabelSet
}

// dataflow carries the per-verification propagation state.
type dataflow struct {
	r *Report
	// ob maps each optimized barrier to its analyzed obligation (nil when
	// the barrier failed structural matching; flow then passes through).
	ob map[*plan.SecureView]*obligation
	// byTable finds the obligation governing a table, for labeling scans an
	// attacker injected outside any barrier.
	byTable map[string]*obligation
	// pending tracks, per row-obligation, the canonical policy conjuncts not
	// yet applied on the path from the scan.
	pending map[*obligation]map[string]bool
	// owner maps a seeded label back to its obligation (for discharge).
	owner map[plan.Label]*obligation
}

// verifyDataflow runs the information-flow pass over the optimized plan and
// records InvLabelFlow / InvLabelSink violations on the report.
func (r *Report) verifyDataflow(obligations []*obligation, optimized plan.Node) {
	d := &dataflow{
		r:       r,
		ob:      map[*plan.SecureView]*obligation{},
		byTable: map[string]*obligation{},
		pending: map[*obligation]map[string]bool{},
		owner:   map[plan.Label]*obligation{},
	}
	barriers := collectSecureViews(optimized)
	for i, sv := range barriers {
		if i < len(obligations) && obligations[i].name == sv.Name {
			d.ob[sv] = obligations[i]
		}
	}
	for _, o := range obligations {
		r.Labels += len(o.labels)
		if o.table != "" {
			if _, dup := d.byTable[o.table]; !dup {
				d.byTable[o.table] = o
			}
		}
		for _, l := range o.labels {
			d.owner[l] = o
		}
	}

	root := d.visit(optimized, nil)

	// Root sink: whatever is still labeled here would be returned to the
	// client raw. (Labels of matched barriers were checked and stripped at
	// their barrier boundary; anything left comes from injected scans or
	// structurally broken barriers.)
	schema := optimized.Schema()
	for i, ls := range root.cols {
		for _, l := range ls.Labels() {
			col := "?"
			if schema != nil && i < schema.Len() {
				col = schema.Fields[i].Name
			}
			r.violate(InvLabelSink, l.Securable, fmt.Sprintf(
				"labeled column %q reaches client output with obligation %s undischarged", col, l))
		}
	}
	for _, l := range root.rows.Labels() {
		r.violate(InvLabelSink, l.Securable, fmt.Sprintf(
			"rows reach client output with obligation %s undischarged", l))
	}
}

// visit propagates labels bottom-up. enclosing is the obligation of the
// innermost enclosing matched barrier (nil outside all barriers).
func (d *dataflow) visit(n plan.Node, enclosing *obligation) flow {
	switch t := n.(type) {
	case *plan.SecureView:
		ob := d.ob[t]
		inner := enclosing
		if ob != nil {
			inner = ob
		}
		f := d.visit(t.Child, inner)
		if ob == nil {
			return f
		}
		return d.exitBarrier(t, ob, f)

	case *plan.Scan:
		return d.scanFlow(t, enclosing)

	case *plan.Filter:
		f := d.visit(t.Child, enclosing)
		d.applyFilter(t, plan.SplitConjuncts(t.Cond), &f, enclosing)
		return f

	case *plan.Project:
		f := d.visit(t.Child, enclosing)
		out := flow{cols: make([]plan.LabelSet, len(t.Exprs)), rows: f.rows}
		for i, e := range t.Exprs {
			ls := labelsOf(e, f)
			if enclosing != nil {
				if discharged, ok := d.maskDischarge(e, enclosing, ls); ok {
					ls = discharged
					d.r.discharge(n, plan.Label{
						Kind: plan.LabelColumnMask, Securable: enclosing.name,
						Column: strings.ToLower(plan.OutputName(e)), Instance: enclosing.instance,
					})
				} else {
					d.checkUDFArgs(n, e, f, enclosing)
				}
			} else {
				d.checkUDFArgs(n, e, f, enclosing)
			}
			out.cols[i] = ls
		}
		return out

	case *plan.Aggregate:
		f := d.visit(t.Child, enclosing)
		out := flow{cols: make([]plan.LabelSet, 0, len(t.GroupBy)+len(t.Aggs)), rows: f.rows}
		// Aggregation does not discharge anything: SUM over unfiltered or
		// unmasked values still reveals them. Group keys additionally taint
		// the row dimension — partitioning by a raw value leaks it through
		// every output column's cardinality.
		for _, g := range t.GroupBy {
			gl := labelsOf(g, f)
			out.cols = append(out.cols, gl)
			out.rows = out.rows.Union(gl)
			d.checkUDFArgs(n, g, f, enclosing)
		}
		for _, e := range t.Aggs {
			out.cols = append(out.cols, labelsOf(e, f))
			d.checkUDFArgs(n, e, f, enclosing)
		}
		return out

	case *plan.Join:
		lf := d.visit(t.L, enclosing)
		rf := d.visit(t.R, enclosing)
		var out flow
		switch t.Type {
		case plan.JoinLeftSemi, plan.JoinLeftAnti:
			out = flow{cols: lf.cols, rows: lf.rows.Union(rf.rows)}
		default:
			out = flow{cols: append(append([]plan.LabelSet{}, lf.cols...), rf.cols...),
				rows: lf.rows.Union(rf.rows)}
		}
		if t.Cond != nil {
			combined := flow{cols: append(append([]plan.LabelSet{}, lf.cols...), rf.cols...),
				rows: lf.rows.Union(rf.rows)}
			d.observe(n, t.Cond, combined, enclosing, "join condition")
			d.checkUDFArgs(n, t.Cond, combined, enclosing)
		}
		return out

	case *plan.Sort:
		f := d.visit(t.Child, enclosing)
		for _, o := range t.Orders {
			d.observe(n, o.Expr, f, enclosing, "sort key")
			d.checkUDFArgs(n, o.Expr, f, enclosing)
		}
		return f

	case *plan.Union:
		lf := d.visit(t.L, enclosing)
		rf := d.visit(t.R, enclosing)
		cols := make([]plan.LabelSet, len(lf.cols))
		for i := range lf.cols {
			cols[i] = lf.cols[i]
			if i < len(rf.cols) {
				cols[i] = cols[i].Union(rf.cols[i])
			}
		}
		return flow{cols: cols, rows: lf.rows.Union(rf.rows)}

	case *plan.Limit:
		return d.visit(t.Child, enclosing)
	case *plan.Distinct:
		return d.visit(t.Child, enclosing)
	case *plan.SubqueryAlias:
		return d.visit(t.Child, enclosing)

	case *plan.RemoteScan, *plan.LocalRelation, *plan.SQLRelation:
		// RemoteScan output is policy-enforced remotely (and its pushdowns
		// are vetted by InvRemotePush); local data carries no obligations.
		return emptyFlow(n)

	default:
		// Unknown node injected by a rule: propagate the union of all child
		// labels to every output column (maximally conservative).
		var rows plan.LabelSet
		var all plan.LabelSet
		for _, c := range n.Children() {
			cf := d.visit(c, enclosing)
			rows = rows.Union(cf.rows)
			for _, ls := range cf.cols {
				all = all.Union(ls)
			}
		}
		out := emptyFlow(n)
		for i := range out.cols {
			out.cols[i] = all
		}
		out.rows = rows
		return out
	}
}

// scanFlow seeds labels at a table scan. Inside the scan's own barrier the
// obligation is enclosing; a governed scan outside any barrier (plan
// injection) is seeded from the table's obligation so the leak is reported
// with its label, on top of the structural escape violation.
func (d *dataflow) scanFlow(sc *plan.Scan, enclosing *obligation) flow {
	ob := enclosing
	if ob == nil || ob.table != sc.Table {
		ob = d.byTable[sc.Table]
	}
	f := emptyFlow(sc)
	if ob == nil {
		return f
	}
	schema := sc.Schema()
	for _, l := range ob.labels {
		if l.Kind != plan.LabelColumnMask {
			continue
		}
		for i := 0; i < schema.Len(); i++ {
			if strings.ToLower(schema.Fields[i].Name) == l.Column {
				f.cols[i] = f.cols[i].Add(l)
			}
		}
	}
	if ob.hasKind("row_filter") {
		remaining := map[string]bool{}
		for _, pc := range ob.policyConjuncts {
			if !isConstTrue(pc) {
				remaining[canonical(pc)] = true
			}
		}
		for _, pf := range sc.PushedFilters {
			delete(remaining, canonical(eval.Fold(pf)))
		}
		if len(remaining) == 0 {
			for _, l := range ob.rowLabels() {
				d.r.discharge(sc, l)
			}
		} else {
			d.pending[ob] = remaining
			for _, l := range ob.rowLabels() {
				f.rows = f.rows.Add(l)
			}
		}
	}
	// Non-policy pushed filters must not observe raw masked values.
	for _, pf := range sc.PushedFilters {
		if !ob.isPolicyConjunct(pf) {
			d.observeExpr(sc, pf, f.cols, "pushed scan filter")
			d.checkUDFArgs(sc, pf, f, enclosing)
		}
	}
	return f
}

// applyFilter handles a Filter's conjuncts: policy conjuncts discharge row
// obligations; anything else is an observer that may not see raw masked
// columns and may not feed UDFs labeled data.
func (d *dataflow) applyFilter(n plan.Node, conjuncts []plan.Expr, f *flow, enclosing *obligation) {
	for _, c := range conjuncts {
		cc := canonical(eval.Fold(c))
		matched := false
		for _, l := range f.rows.Labels() {
			ob := d.owner[l]
			if ob == nil || !d.pending[ob][cc] {
				continue
			}
			matched = true
			delete(d.pending[ob], cc)
			if len(d.pending[ob]) == 0 {
				for _, rl := range ob.rowLabels() {
					f.rows = f.rows.Without(rl)
					d.r.discharge(n, rl)
				}
			}
		}
		// A conjunct that textually matches the enclosing policy predicate
		// is policy machinery even when already discharged at the scan.
		if matched || (enclosing != nil && enclosing.isPolicyConjunct(c)) {
			continue
		}
		d.observeExpr(n, c, f.cols, "filter predicate")
		d.checkUDFArgs(n, c, *f, enclosing)
	}
}

// exitBarrier enforces the discharge contract at the barrier boundary: every
// label this obligation seeded must be gone from the outgoing flow. Surviving
// labels are violations, reported here (the most precise point) and stripped
// so the root sink does not double-report them.
func (d *dataflow) exitBarrier(sv *plan.SecureView, ob *obligation, f flow) flow {
	if len(ob.labels) == 0 {
		return f
	}
	mine := map[plan.Label]bool{}
	for _, l := range ob.labels {
		mine[l] = true
	}
	ok := true
	schema := sv.Schema()
	for i := range f.cols {
		for _, l := range f.cols[i].Labels() {
			if !mine[l] {
				continue
			}
			ok = false
			col := "?"
			if schema != nil && i < schema.Len() {
				col = schema.Fields[i].Name
			}
			d.r.violate(InvLabelFlow, ob.name, fmt.Sprintf(
				"obligation %s escapes the policy barrier through column %q without being discharged", l, col))
			f.cols[i] = f.cols[i].Without(l)
		}
	}
	for _, l := range f.rows.Labels() {
		if !mine[l] {
			continue
		}
		ok = false
		d.r.violate(InvLabelFlow, ob.name, fmt.Sprintf(
			"obligation %s escapes the policy barrier: rows leave without the full policy predicate applied", l))
		f.rows = f.rows.Without(l)
	}
	if ok {
		d.r.clear(sv, InvLabelFlow)
		// Annotate the barrier itself: its interior is redacted in
		// --explain-verified, so the boundary line carries the summary.
		for _, l := range ob.labels {
			d.r.discharge(sv, l)
		}
	}
	return f
}

// maskDischarge reports whether projection item e implements the enclosing
// obligation's mask for its output column; if so it returns the item's label
// set with that column's mask label removed.
func (d *dataflow) maskDischarge(e plan.Expr, ob *obligation, ls plan.LabelSet) (plan.LabelSet, bool) {
	col := strings.ToLower(plan.OutputName(e))
	want, masked := ob.masks[col]
	if !masked {
		return ls, false
	}
	if canonical(eval.Fold(e)) != canonical(want) {
		return ls, false
	}
	l := plan.Label{Kind: plan.LabelColumnMask, Securable: ob.name, Column: col, Instance: ob.instance}
	if !ls.Has(l) {
		return ls, false
	}
	return ls.Without(l), true
}

// observe flags an expression that inspects a raw masked value without being
// policy machinery (implicit flows: filtering, joining, or ordering on the
// raw value leaks it even if it is never projected).
func (d *dataflow) observe(n plan.Node, e plan.Expr, f flow, enclosing *obligation, what string) {
	if enclosing != nil && enclosing.isPolicyConjunct(e) {
		return
	}
	d.observeExpr(n, e, f.cols, what)
}

func (d *dataflow) observeExpr(n plan.Node, e plan.Expr, cols []plan.LabelSet, what string) {
	seen := map[plan.Label]bool{}
	plan.WalkExpr(e, func(x plan.Expr) bool {
		b, ok := x.(*plan.BoundRef)
		if !ok || b.Index < 0 || b.Index >= len(cols) {
			return true
		}
		for _, l := range cols[b.Index].Labels() {
			if l.Kind != plan.LabelColumnMask || seen[l] {
				continue
			}
			seen[l] = true
			d.r.violate(InvLabelFlow, l.Securable, fmt.Sprintf(
				"%s %s observes column %q while it still carries obligation %s",
				what, redacted(e), b.Name, l))
		}
		return true
	})
}

// checkUDFArgs enforces the UDF-argument sink: no labeled value, and no row
// of an un-discharged row obligation, may cross into sandboxed user code.
// The structural no-udf-below-barrier invariant rejects *moved* UDFs; this
// rejects labeled *data* flowing into any UDF, wherever it sits.
func (d *dataflow) checkUDFArgs(n plan.Node, e plan.Expr, f flow, enclosing *obligation) {
	plan.WalkExpr(e, func(x plan.Expr) bool {
		u, ok := x.(*plan.UDFCall)
		if !ok {
			return true
		}
		var leaked plan.LabelSet
		for _, a := range u.Args {
			leaked = leaked.Union(labelsOf(a, f))
		}
		leaked = leaked.Union(f.rows)
		for _, l := range leaked.Labels() {
			d.r.violate(InvLabelSink, l.Securable, fmt.Sprintf(
				"argument of UDF %s (trust domain %s) carries obligation %s into the sandbox",
				u.Name, u.Owner, l))
		}
		return true
	})
}

// labelsOf computes the label set of an expression over its child's flow:
// the union of the labels of every column it references.
func labelsOf(e plan.Expr, f flow) plan.LabelSet {
	var out plan.LabelSet
	plan.WalkExpr(e, func(x plan.Expr) bool {
		if b, ok := x.(*plan.BoundRef); ok && b.Index >= 0 && b.Index < len(f.cols) {
			out = out.Union(f.cols[b.Index])
		}
		return true
	})
	return out
}

func emptyFlow(n plan.Node) flow {
	ln := 0
	if s := n.Schema(); s != nil {
		ln = s.Len()
	}
	return flow{cols: make([]plan.LabelSet, ln)}
}

// rowLabels returns the obligation's row-level labels (row_filter and
// tenant_scope share a discharge: the policy predicate).
func (o *obligation) rowLabels() []plan.Label {
	var out []plan.Label
	for _, l := range o.labels {
		if l.Kind == plan.LabelRowFilter || l.Kind == plan.LabelTenantScope {
			out = append(out, l)
		}
	}
	return out
}

// isPolicyConjunct reports whether e canonically matches one of the
// obligation's row-filter conjuncts (policy machinery is allowed to see raw
// values; row filters evaluate before masks by design).
func (o *obligation) isPolicyConjunct(e plan.Expr) bool {
	if o == nil {
		return false
	}
	cc := canonical(eval.Fold(e))
	for _, pc := range o.policyConjuncts {
		if canonical(pc) == cc {
			return true
		}
	}
	return false
}

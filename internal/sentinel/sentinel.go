// Package sentinel is the static security verifier that sits between the
// optimizer and the execution engine. The analyzer injects governance
// policies (row filters, column masks, secure-view barriers) into the plan;
// the optimizer then rewrites the plan for performance — exactly the attack
// surface where a buggy or malicious rewrite rule can reorder user code
// above a security filter and leak raw rows. The sentinel closes that gap:
// it extracts the policy obligations from the analyzed plan and *proves*,
// without executing anything, that the optimized plan still satisfies them.
//
// Invariants (paper §3, "Break it, Fix it" threat model):
//
//	(a) row-filter-dominance   every scan of a row-filtered table is
//	                           dominated by filter conjuncts implying the
//	                           policy predicate
//	(b) mask-before-use        every masked column is rewritten by its mask
//	                           expression before any other operator can
//	                           observe the raw value
//	(c) no-udf-below-barrier   no user-owned UDF (foreign trust domain) is
//	                           moved under a secure-view boundary
//	(d) remote-pushdown-safe   eFGAC RemoteScan leaves ship only pushable
//	                           expressions (no user code, no stale ordinals)
//	(e) policy-columns-bound   column-prune remaps never drop or misbind a
//	                           policy-referenced column, and every reference
//	                           inside a barrier has its column's kind
//	(f) label-flow-discharged  every governance label seeded at a source
//	                           column is discharged by its policy operator
//	                           before the flow leaves the barrier
//	(g) no-labeled-sink        no labeled value reaches the client root or a
//	                           sandboxed UDF argument
//	(h) verified-plan-seal     the executed plan is byte-identical to the
//	                           verified one
//	(i) total-below-barrier    every expression evaluated at or below a
//	                           governed table's mask projection is total and
//	                           UDF-free (eval.Total) unless it is the policy's
//	                           own row-filter conjunct or mask, so no error
//	                           raised on a hidden row or raw value can reveal it
//
// The sentinel imports none of the optimizer's code: a verifier that shares
// the rewriter's code also shares its bugs. Its expression plumbing comes
// from below both of them — constant folding from eval.Fold (evaluation
// truth is the evaluator's) and conjunct splitting from plan.SplitConjuncts.
package sentinel

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"lakeguard/internal/eval"
	"lakeguard/internal/plan"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// Invariant names one verified property.
type Invariant string

// The verified invariants. InvBarrier is the structural precondition the
// others build on: policy barriers injected by the analyzer must survive
// optimization in order and in name.
const (
	InvRowFilter   Invariant = "row-filter-dominance" // (a)
	InvColumnMask  Invariant = "mask-before-use"      // (b)
	InvTrustDomain Invariant = "no-udf-below-barrier" // (c)
	InvRemotePush  Invariant = "remote-pushdown-safe" // (d)
	InvPolicyCols  Invariant = "policy-columns-bound" // (e)
	InvBarrier     Invariant = "barrier-integrity"    // precondition

	// InvLabelFlow is the information-flow invariant: every governance
	// label seeded at a source column is discharged by its surviving policy
	// operator before the flow leaves the policy barrier (see dataflow.go).
	InvLabelFlow Invariant = "label-flow-discharged" // (f)
	// InvLabelSink: no labeled value reaches an unguarded sink — the
	// client-facing plan root or a sandboxed UDF argument.
	InvLabelSink Invariant = "no-labeled-sink" // (g)
	// InvSeal is the TOCTOU invariant: the plan handed to the executor is
	// byte-identical to the plan that was verified (see seal.go).
	InvSeal Invariant = "verified-plan-seal" // (h)
	// InvTotal: inside a governed table's barrier only total, UDF-free
	// expressions run besides the policy's own, so none can fail on a
	// hidden row (the error oracle).
	InvTotal Invariant = "total-below-barrier" // (i)
)

// Violation is one disproved invariant.
type Violation struct {
	Invariant Invariant
	// Securable is the governed object the invariant protects (or "plan"
	// for plan-global checks).
	Securable string
	// Detail pinpoints the offending node or expression.
	Detail string
}

// String renders the violation for logs and error messages.
func (v Violation) String() string {
	return fmt.Sprintf("sentinel: invariant %s violated on %s: %s", v.Invariant, v.Securable, v.Detail)
}

// ViolationError is the structured error the core gate returns when a plan
// fails verification.
type ViolationError struct {
	Fingerprint string
	Violations  []Violation
}

// Error implements error.
func (e *ViolationError) Error() string {
	if len(e.Violations) == 1 {
		return e.Violations[0].String()
	}
	return fmt.Sprintf("%s (and %d more violations)", e.Violations[0].String(), len(e.Violations)-1)
}

// Report is the result of one verification pass.
type Report struct {
	// Fingerprint identifies the optimized plan (audit attribution).
	Fingerprint string
	// Barriers counts SecureView policy barriers verified.
	Barriers int
	// RemoteScans counts eFGAC leaves verified.
	RemoteScans int
	// Cleared maps plan nodes to the invariants that held for them
	// (EXPLAIN --explain-verified annotations).
	Cleared map[plan.Node][]Invariant
	// Labels counts the governance labels tracked by the dataflow pass.
	Labels int
	// Discharged maps plan nodes to the labels whose obligation they
	// discharged (EXPLAIN --explain-verified annotations).
	Discharged map[plan.Node][]string
	// Violations lists every disproved invariant.
	Violations []Violation
}

// Err returns nil for a clean report, or a *ViolationError.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return &ViolationError{Fingerprint: r.Fingerprint, Violations: r.Violations}
}

// ExplainVerified renders the optimized plan in the redacted form shown to
// users (SecureView interiors hidden), annotating each policy operator with
// the sentinel invariants that cleared it. Violated nodes are annotated too,
// so `--explain-verified` shows exactly where a plan failed.
func ExplainVerified(n plan.Node, r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- sentinel: plan %s: %d barrier(s), %d remote scan(s), %d label(s), %d violation(s)\n",
		r.Fingerprint, r.Barriers, r.RemoteScans, r.Labels, len(r.Violations))
	explainVerifiedInto(&b, n, 0, r)
	for _, v := range r.Violations {
		b.WriteString("-- ")
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func explainVerifiedInto(b *strings.Builder, n plan.Node, depth int, r *Report) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	if depth > 0 {
		b.WriteString("+- ")
	}
	b.WriteString(n.String())
	_, isBarrier := n.(*plan.SecureView)
	if isBarrier {
		b.WriteString(" <redacted>")
	}
	if cleared := r.Cleared[n]; len(cleared) > 0 {
		parts := make([]string, len(cleared))
		for i, inv := range cleared {
			parts[i] = string(inv)
		}
		fmt.Fprintf(b, " -- verified: %s", strings.Join(parts, ", "))
	}
	if discharged := r.Discharged[n]; len(discharged) > 0 {
		fmt.Fprintf(b, " -- discharged: %s", strings.Join(discharged, ", "))
	}
	b.WriteByte('\n')
	if isBarrier {
		return // redact the barrier interior, as ExplainRedacted does
	}
	for _, c := range n.Children() {
		explainVerifiedInto(b, c, depth+1, r)
	}
}

// Fingerprint hashes a plan's full rendering (FNV-64a) for audit
// attribution.
func Fingerprint(n plan.Node) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(plan.Explain(n)))
	return fmt.Sprintf("%016x", h.Sum64())
}

// obligation is the policy contract one analyzer-injected SecureView
// barrier carries, extracted before the optimizer runs.
type obligation struct {
	name  string
	kinds []string
	// labels are the governance obligations the analyzer seeded on this
	// barrier, instance-stamped for self-join disambiguation.
	labels []plan.Label
	// instance numbers this barrier among same-named barriers in the plan.
	instance int
	// table is the governed table scanned inside the barrier ("" for view
	// bodies, whose nested tables carry their own barriers).
	table string
	// policyConjuncts are the row-filter conjuncts (constant-folded).
	policyConjuncts []plan.Expr
	// masks maps masked column name (lower) to its mask expression.
	masks map[string]plan.Expr
	// udfKeys are the trust-domain keys of UDF calls legitimately present
	// inside the barrier at analysis time (normally empty).
	udfKeys map[string]bool
}

func (o *obligation) hasKind(k string) bool {
	for _, x := range o.kinds {
		if x == k {
			return true
		}
	}
	return false
}

// VerifyCtx is Verify under a telemetry span. Governance decisions are
// always spanned: a verification failure is recorded as an error-status span
// (never hidden), so every blocked plan is attributable from the trace.
func VerifyCtx(ctx context.Context, analyzed, optimized plan.Node) *Report {
	_, sp := telemetry.StartSpan(ctx, "sentinel.verify")
	r := Verify(analyzed, optimized)
	sp.SetAttr("fingerprint", r.Fingerprint)
	sp.EndErr(r.Err())
	return r
}

// Verify proves the optimized plan still satisfies every policy obligation
// present in the analyzed plan. Both plans must come from the same query:
// analyzed is the analyzer's output, optimized the optimizer's.
func Verify(analyzed, optimized plan.Node) *Report {
	r := &Report{
		Fingerprint: Fingerprint(optimized),
		Cleared:     map[plan.Node][]Invariant{},
		Discharged:  map[plan.Node][]string{},
	}
	obligations := extractObligations(analyzed)
	barriers := collectSecureViews(optimized)
	r.Barriers = len(barriers)

	// Structural precondition: barriers survive optimization one-for-one.
	if len(barriers) != len(obligations) {
		r.violate(InvBarrier, "plan", fmt.Sprintf(
			"analyzed plan has %d policy barriers, optimized plan has %d",
			len(obligations), len(barriers)))
		r.reportVanished(obligations, barriers)
	}
	n := len(barriers)
	if len(obligations) < n {
		n = len(obligations)
	}
	for i := 0; i < n; i++ {
		if barriers[i].Name != obligations[i].name {
			r.violate(InvBarrier, obligations[i].name, fmt.Sprintf(
				"barrier %d renamed to %q after optimization", i, barriers[i].Name))
			continue
		}
		r.verifyBarrier(obligations[i], barriers[i])
	}

	// Scans of governed tables may never escape their barrier.
	governed := map[string]bool{}
	for _, o := range obligations {
		if o.table != "" && (o.hasKind("row_filter") || o.hasKind("column_mask")) {
			governed[o.table] = true
		}
	}
	for _, sc := range scansOutsideBarriers(optimized) {
		if governed[sc.Table] {
			r.violate(InvBarrier, sc.Table, "scan of policy-governed table escaped its SecureView barrier")
		}
	}

	r.verifyRemoteScans(optimized)

	// (f)/(g) information flow: labels seeded on the analyzed plan must be
	// discharged in the optimized plan before reaching any sink.
	r.verifyDataflow(obligations, optimized)
	return r
}

// reportVanished names every label of each analyzed barrier that has no
// same-named barrier left in the optimized plan. A vanished barrier's
// obligations are undischarged whatever the rest of the plan now reads, so
// the attribution must not depend on which raw columns a forged replacement
// happens to expose at which ordinals.
func (r *Report) reportVanished(obligations []*obligation, barriers []*plan.SecureView) {
	left := map[string]int{}
	for _, sv := range barriers {
		left[sv.Name]++
	}
	for _, o := range obligations {
		if left[o.name] > 0 {
			left[o.name]--
			continue
		}
		labels := make([]string, len(o.labels))
		for i, l := range o.labels {
			labels[i] = l.String()
		}
		if len(labels) == 0 {
			labels = []string{"none"}
		}
		r.violate(InvBarrier, o.name, fmt.Sprintf(
			"policy barrier vanished from the optimized plan; its obligations are undischarged: %s",
			strings.Join(labels, ", ")))
	}
}

func (r *Report) violate(inv Invariant, securable, detail string) {
	r.Violations = append(r.Violations, Violation{Invariant: inv, Securable: securable, Detail: detail})
}

func (r *Report) clear(n plan.Node, inv Invariant) {
	r.Cleared[n] = append(r.Cleared[n], inv)
}

func (r *Report) discharge(n plan.Node, l plan.Label) {
	r.Discharged[n] = append(r.Discharged[n], l.String())
}

// extractObligations reads the policy contracts out of the analyzed plan in
// pre-order. The analyzer builds table barriers as
// SecureView → [Project masks] → [Filter rowFilter] → Scan.
func extractObligations(analyzed plan.Node) []*obligation {
	var out []*obligation
	seen := map[string]int{}
	plan.Walk(analyzed, func(x plan.Node) bool {
		sv, ok := x.(*plan.SecureView)
		if !ok {
			return true
		}
		o := &obligation{
			name:     sv.Name,
			kinds:    sv.PolicyKinds,
			instance: seen[sv.Name],
			masks:    map[string]plan.Expr{},
			udfKeys:  map[string]bool{},
		}
		seen[sv.Name]++
		// Stamp the analyzer's labels with this barrier's instance so each
		// occurrence of a self-joined table tracks its own discharge.
		for _, l := range sv.Labels {
			l.Instance = o.instance
			o.labels = append(o.labels, l)
		}
		node := sv.Child
		if o.hasKind("column_mask") {
			if proj, ok := node.(*plan.Project); ok {
				for _, e := range proj.Exprs {
					if _, plainRef := e.(*plan.BoundRef); !plainRef {
						o.masks[strings.ToLower(plan.OutputName(e))] = eval.Fold(e)
					}
				}
				node = proj.Child
			}
		}
		if o.hasKind("row_filter") {
			if f, ok := node.(*plan.Filter); ok {
				for _, c := range plan.SplitConjuncts(f.Cond) {
					o.policyConjuncts = append(o.policyConjuncts, eval.Fold(c))
				}
				node = f.Child
			}
		}
		if sc, ok := node.(*plan.Scan); ok {
			o.table = sc.Table
		}
		// A hostile analyzed plan can interpose extra operators between the
		// policy operators and the scan, defeating the structured walk
		// above. For governed-table barriers fall back to the unique scan in
		// the subtree, so labels are still seeded on it (view barriers skip
		// this: their nested tables carry their own barriers).
		if o.table == "" && (o.hasKind("row_filter") || o.hasKind("column_mask")) {
			if scans := allScans(sv.Child); len(scans) == 1 {
				o.table = scans[0].Table
			}
		}
		collectUDFKeys(sv.Child, o.udfKeys)
		out = append(out, o)
		return true // descend: nested views carry their own barriers
	})
	return out
}

// verifyBarrier proves invariants (a), (b), (c), and (e) for one matched
// barrier of the optimized plan.
func (r *Report) verifyBarrier(o *obligation, sv *plan.SecureView) {
	before := len(r.Violations)

	// (c) trust domains: no UDF may be moved under the barrier.
	udfs := map[string]bool{}
	collectUDFKeys(sv.Child, udfs)
	okTrust := true
	for key := range udfs {
		if !o.udfKeys[key] {
			okTrust = false
			r.violate(InvTrustDomain, o.name, fmt.Sprintf(
				"user code %s was moved below the secure-view boundary", strings.ReplaceAll(key, "\x00", " owned by ")))
		}
	}
	if okTrust {
		r.clear(sv, InvTrustDomain)
	}

	// (a) row-filter dominance.
	if o.hasKind("row_filter") && o.table != "" {
		ok := true
		scans := scansOf(sv.Child, o.table)
		if len(scans) == 0 {
			ok = false
			r.violate(InvBarrier, o.name, "scan of the governed table vanished from its barrier")
		}
		for _, sc := range scans {
			doms := dominatingConjuncts(sv.Child, sc)
			canon := map[string]bool{}
			for _, d := range doms {
				canon[canonical(eval.Fold(d))] = true
			}
			for _, pc := range o.policyConjuncts {
				if isConstTrue(pc) {
					continue
				}
				if !canon[canonical(pc)] {
					ok = false
					r.violate(InvRowFilter, o.name, fmt.Sprintf(
						"policy predicate %s no longer dominates the scan (dominating conjuncts: %s)",
						redacted(pc), redactedList(doms)))
				}
			}
		}
		if ok {
			r.clear(sv, InvRowFilter)
		}
	}

	// (b) masks rewrite raw values before anything else observes them.
	if o.hasKind("column_mask") {
		if r.verifyMasks(o, sv) {
			r.clear(sv, InvColumnMask)
		}
	}

	// (e) every expression inside a policy barrier still binds: ordinals in
	// range and names matching the child schema (catches prune remap bugs).
	if o.hasKind("row_filter") || o.hasKind("column_mask") {
		okBind := r.verifyBindings(o.name, sv.Child)
		if okBind {
			r.clear(sv, InvPolicyCols)
		}
		// (i) nothing below the policy can fail on the rows or values it hides.
		if r.verifyTotal(o, sv) {
			r.clear(sv, InvTotal)
		}
	}

	if len(r.Violations) == before {
		r.clear(sv, InvBarrier)
	}
}

// verifyMasks proves invariant (b) for one barrier. Every masked column the
// barrier outputs, under any name, is its mask expression; every masked
// column read at or below the mask projection is read only by that mask or
// by the policy's own row-filter conjuncts (row filters see unmasked values
// by design). A mask may be absent only when its raw column is absent from
// the barrier entirely — column pruning drops the masks of columns a query
// never reads, and a column that is neither carried nor read cannot leak.
// Every violation names the mask label it leaves undischarged.
func (r *Report) verifyMasks(o *obligation, sv *plan.SecureView) bool {
	proj, isProj := sv.Child.(*plan.Project)
	if !isProj {
		r.violate(InvColumnMask, o.name, fmt.Sprintf(
			"mask projection is no longer the barrier's first operator (found %T)", sv.Child))
		return false
	}
	ok := true
	fail := func(col, detail string) {
		ok = false
		r.violate(InvColumnMask, o.name, fmt.Sprintf("%s (obligation %s undischarged)", detail, o.maskLabel(col)))
	}
	output := map[string]bool{}
	for _, e := range proj.Exprs {
		name := strings.ToLower(plan.OutputName(e))
		if want, masked := o.masks[name]; masked {
			output[name] = true
			if canonical(eval.Fold(e)) != canonical(want) {
				fail(name, fmt.Sprintf("mask for column %q altered: have %s, policy requires %s",
					name, redacted(eval.Fold(e)), redacted(want)))
			}
			continue
		}
		for _, col := range maskedRefs(e, o.masks) {
			fail(col, fmt.Sprintf("projection item %s outputs raw masked column %q as %q",
				redacted(eval.Fold(e)), col, name))
		}
	}
	below := exprsBelow(proj.Child)
	raw := map[string]bool{}
	plan.Walk(proj.Child, func(x plan.Node) bool {
		for _, f := range x.Schema().Fields {
			raw[strings.ToLower(f.Name)] = true
		}
		return true
	})
	allowed := map[string]bool{}
	for _, pc := range o.policyConjuncts {
		allowed[canonical(pc)] = true
	}
	for _, e := range below {
		cols := maskedRefs(e, o.masks)
		for _, col := range cols {
			raw[col] = true
		}
		if len(cols) == 0 || allowed[canonical(eval.Fold(e))] {
			continue
		}
		for _, col := range cols {
			fail(col, fmt.Sprintf("expression %s observes masked column %q below the mask projection",
				redacted(eval.Fold(e)), col))
		}
	}
	for col := range o.masks {
		if !output[col] && raw[col] {
			fail(col, fmt.Sprintf("mask for column %q dropped while the raw column is still carried or read inside the barrier", col))
		}
	}
	return ok
}

// verifyTotal proves invariant (i) for one governed-table barrier. Every
// expression evaluated at or below the mask projection must be total and
// UDF-free (eval.Total), unless it is the obligation's own policy machinery:
// one of its row-filter conjuncts or one of its mask expressions. A predicate
// that can raise — a cast, a division, a UDF — and sees rows before the row
// filter has dropped them answers, by failing or not, whether a hidden row
// holds some value; a mask input it can fail on leaks the raw value the same
// way. The violation names the row_filter label (the mask labels on a
// mask-only barrier): that is the obligation an error oracle defeats.
func (r *Report) verifyTotal(o *obligation, sv *plan.SecureView) bool {
	below := sv.Child
	var exprs []plan.Expr
	if proj, isProj := below.(*plan.Project); isProj && o.hasKind("column_mask") {
		// A mask projection item named after a masked column is that
		// column's mask, or (b) reports it; the other items are checked.
		below = proj.Child
		for _, e := range proj.Exprs {
			if _, masked := o.masks[strings.ToLower(plan.OutputName(e))]; !masked {
				exprs = append(exprs, e)
			}
		}
	}
	exprs = append(exprs, exprsBelow(below)...)
	ok := true
	for _, e := range exprs {
		if eval.Total(e) || o.isPolicyConjunct(e) {
			continue
		}
		ok = false
		r.violate(InvTotal, o.name, fmt.Sprintf(
			"expression %s below the policy barrier is not total and could fail on a hidden row (obligation %s undischarged)",
			redacted(eval.Fold(e)), o.errorOracleLabels()))
	}
	return ok
}

// errorOracleLabels names the obligations a failing expression inside the
// barrier defeats: the row-level labels, or every label of a mask-only
// barrier.
func (o *obligation) errorOracleLabels() string {
	labels := o.rowLabels()
	if len(labels) == 0 {
		labels = o.labels
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.String()
	}
	return strings.Join(parts, ", ")
}

// maskLabel is the column_mask label this barrier seeded for one column.
func (o *obligation) maskLabel(col string) plan.Label {
	return plan.Label{Kind: plan.LabelColumnMask, Securable: o.name, Column: col, Instance: o.instance}
}

// verifyBindings walks a barrier subtree checking every BoundRef against the
// schema it will actually be evaluated over: ordinal, name and kind. The
// kind matters to invariant (i): eval.Total trusts declared kinds, and a
// comparison whose operand lies about its kind raises at run time.
func (r *Report) verifyBindings(securable string, n plan.Node) bool {
	ok := true
	check := func(e plan.Expr, schema *types.Schema, where string) {
		plan.WalkExpr(e, func(x plan.Expr) bool {
			b, isRef := x.(*plan.BoundRef)
			if !isRef {
				return true
			}
			if b.Index < 0 || b.Index >= schema.Len() {
				ok = false
				r.violate(InvPolicyCols, securable, fmt.Sprintf(
					"%s references column %s#%d but only %d columns survive pruning",
					where, b.Name, b.Index, schema.Len()))
				return true
			}
			if !strings.EqualFold(schema.Fields[b.Index].Name, b.Name) {
				ok = false
				r.violate(InvPolicyCols, securable, fmt.Sprintf(
					"%s references %s#%d but the pruned schema has %q at that ordinal",
					where, b.Name, b.Index, schema.Fields[b.Index].Name))
			} else if k := schema.Fields[b.Index].Kind; k != b.Kind {
				ok = false
				r.violate(InvPolicyCols, securable, fmt.Sprintf(
					"%s references %s#%d as %s but the column is %s",
					where, b.Name, b.Index, b.Kind, k))
			}
			return true
		})
	}
	plan.Walk(n, func(x plan.Node) bool {
		switch t := x.(type) {
		case *plan.Filter:
			check(t.Cond, t.Child.Schema(), "filter")
		case *plan.Project:
			for _, e := range t.Exprs {
				check(e, t.Child.Schema(), "projection")
			}
		case *plan.Scan:
			for _, f := range t.PushedFilters {
				check(f, t.Schema(), "pushed scan filter")
			}
		}
		return true
	})
	return ok
}

// verifyRemoteScans proves invariant (d) for every eFGAC leaf: only
// name-resolved, user-code-free expressions may ship to the remote executor.
func (r *Report) verifyRemoteScans(optimized plan.Node) {
	plan.Walk(optimized, func(x plan.Node) bool {
		rs, ok := x.(*plan.RemoteScan)
		if !ok {
			return true
		}
		r.RemoteScans++
		okPush := true
		for _, f := range rs.PushedFilters {
			if why := unpushable(f); why != "" {
				okPush = false
				r.violate(InvRemotePush, rs.Relation, fmt.Sprintf(
					"pushed filter %s may not ship to the eFGAC executor: %s", plan.RedactedString(f), why))
			}
		}
		if rs.PushedAggregate != nil {
			for _, a := range rs.PushedAggregate.Aggs {
				if strings.Contains(a, "UDF:") {
					okPush = false
					r.violate(InvRemotePush, rs.Relation, fmt.Sprintf(
						"pushed aggregate %q contains user code", a))
				}
			}
		}
		if okPush {
			r.clear(rs, InvRemotePush)
		}
		return true
	})
}

// unpushable reports why an expression may not be shipped to the remote
// (eFGAC) executor; "" means it is safe. The whitelist mirrors what the
// remote side can re-resolve: named columns, literals, builtins, and the
// session functions it re-evaluates under the same identity.
func unpushable(e plan.Expr) string {
	why := ""
	plan.WalkExpr(e, func(x plan.Expr) bool {
		switch t := x.(type) {
		case *plan.UDFCall:
			why = fmt.Sprintf("user-owned UDF %s (trust domain %s)", t.Name, t.Owner)
		case *plan.BoundRef:
			why = fmt.Sprintf("ordinal-bound reference %s#%d (remote filters must be name-resolved)", t.Name, t.Index)
		case *plan.AggFunc:
			why = fmt.Sprintf("raw aggregate %s outside a rendered partial aggregate", plan.RedactedString(t))
		case *plan.FuncCall:
			why = fmt.Sprintf("unresolved function call %s", plan.RedactedString(t))
		case *plan.Star:
			why = "unexpanded * projection"
		case *plan.Literal, *plan.ColumnRef, *plan.Binary, *plan.Unary, *plan.IsNull,
			*plan.InList, *plan.Like, *plan.Case, *plan.Cast, *plan.ScalarFunc,
			*plan.Alias, *plan.CurrentUser, *plan.GroupMember:
			// pushable
		default:
			why = fmt.Sprintf("unrecognized expression %T", x)
		}
		return why == ""
	})
	return why
}

// ---- plan / expression plumbing -----------------------------------------

// collectSecureViews gathers barriers in pre-order.
func collectSecureViews(n plan.Node) []*plan.SecureView {
	var out []*plan.SecureView
	plan.Walk(n, func(x plan.Node) bool {
		if sv, ok := x.(*plan.SecureView); ok {
			out = append(out, sv)
		}
		return true
	})
	return out
}

// allScans lists every scan in a subtree.
func allScans(n plan.Node) []*plan.Scan {
	var out []*plan.Scan
	plan.Walk(n, func(x plan.Node) bool {
		if sc, ok := x.(*plan.Scan); ok {
			out = append(out, sc)
		}
		return true
	})
	return out
}

// scansOf finds scans of one table within a subtree.
func scansOf(n plan.Node, table string) []*plan.Scan {
	var out []*plan.Scan
	plan.Walk(n, func(x plan.Node) bool {
		if sc, ok := x.(*plan.Scan); ok && sc.Table == table {
			out = append(out, sc)
		}
		return true
	})
	return out
}

// scansOutsideBarriers lists scans not protected by any SecureView.
func scansOutsideBarriers(n plan.Node) []*plan.Scan {
	var out []*plan.Scan
	var walk func(plan.Node)
	walk = func(x plan.Node) {
		if x == nil {
			return
		}
		if _, ok := x.(*plan.SecureView); ok {
			return // everything below is barrier-protected
		}
		if sc, ok := x.(*plan.Scan); ok {
			out = append(out, sc)
		}
		for _, c := range x.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// dominatingConjuncts collects every filter conjunct on the path from root
// down to the target scan, plus the scan's own pushed filters. A conjunct on
// that path filters every row the scan emits before anything above can
// observe it — the definition of dominance the row-filter invariant needs.
func dominatingConjuncts(root plan.Node, target *plan.Scan) []plan.Expr {
	var path []plan.Expr
	var found bool
	var walk func(n plan.Node, acc []plan.Expr)
	walk = func(n plan.Node, acc []plan.Expr) {
		if found || n == nil {
			return
		}
		switch t := n.(type) {
		case *plan.Filter:
			acc = append(acc, plan.SplitConjuncts(t.Cond)...)
		case *plan.Scan:
			if t == target {
				path = append(acc, t.PushedFilters...)
				found = true
			}
			return
		}
		for _, c := range n.Children() {
			walk(c, acc)
		}
	}
	walk(root, nil)
	return path
}

// exprsBelow gathers every predicate / projection expression evaluated in a
// subtree (used for the below-mask observation check).
func exprsBelow(n plan.Node) []plan.Expr {
	var out []plan.Expr
	plan.Walk(n, func(x plan.Node) bool {
		switch t := x.(type) {
		case *plan.Filter:
			out = append(out, plan.SplitConjuncts(t.Cond)...)
		case *plan.Project:
			out = append(out, t.Exprs...)
		case *plan.Join:
			if t.Cond != nil {
				out = append(out, t.Cond)
			}
		case *plan.Sort:
			for _, o := range t.Orders {
				out = append(out, o.Expr)
			}
		case *plan.Aggregate:
			out = append(out, t.GroupBy...)
			out = append(out, t.Aggs...)
		case *plan.Scan:
			out = append(out, t.PushedFilters...)
		}
		return true
	})
	return out
}

// maskedRefs lists, sorted and without repeats, the masked columns e
// references by name.
func maskedRefs(e plan.Expr, masked map[string]plan.Expr) []string {
	seen := map[string]bool{}
	plan.WalkExpr(e, func(x plan.Expr) bool {
		var name string
		switch t := x.(type) {
		case *plan.BoundRef:
			name = t.Name
		case *plan.ColumnRef:
			name = t.Name
		}
		if _, ok := masked[strings.ToLower(name)]; ok {
			seen[strings.ToLower(name)] = true
		}
		return true
	})
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// collectUDFKeys records the trust-domain keys of every UDF call in a
// subtree's expressions.
func collectUDFKeys(n plan.Node, keys map[string]bool) {
	for _, e := range exprsBelow(n) {
		plan.WalkExpr(e, func(x plan.Expr) bool {
			if u, ok := x.(*plan.UDFCall); ok {
				keys[u.Name+"\x00"+u.Owner] = true
			}
			return true
		})
	}
}

// canonExpr erases ordinals (BoundRef → bare column name), so prune-remapped
// plans compare equal to their pre-prune policy form.
func canonExpr(e plan.Expr) plan.Expr {
	return plan.TransformExpr(e, func(x plan.Expr) plan.Expr {
		if b, ok := x.(*plan.BoundRef); ok {
			return &plan.ColumnRef{Name: b.Name}
		}
		return x
	})
}

// canonical is the canonical rendering used for expression equality. It is
// never put into error messages — literals in policy predicates are a side
// channel; messages use redacted instead.
func canonical(e plan.Expr) string { return canonExpr(e).String() }

// redacted renders an expression for violation messages: canonical shape,
// column names kept, literal values hidden.
func redacted(e plan.Expr) string { return plan.RedactedString(canonExpr(e)) }

func redactedList(exprs []plan.Expr) string {
	if len(exprs) == 0 {
		return "none"
	}
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = redacted(eval.Fold(e))
	}
	return strings.Join(parts, " AND ")
}

// isConstTrue reports a policy conjunct that folds to literal TRUE (it
// dominates trivially).
func isConstTrue(e plan.Expr) bool {
	l, ok := e.(*plan.Literal)
	return ok && l.Value.IsTrue()
}

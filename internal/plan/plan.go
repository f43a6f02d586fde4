package plan

import (
	"fmt"
	"strings"

	"lakeguard/internal/types"
)

// MaxNestingDepth bounds how deeply a statement may nest at the front doors:
// parenthesized or prefix-operator expressions, CASE, function arguments and
// subqueries in the SQL parser, and relations and expressions in the Connect
// plan decoder. A deeper input fails as a parse or decode error, so no client
// can make the server's recursive passes grow without bound. Spark Connect's
// default plan recursion limit is the same.
const MaxNestingDepth = 1024

// Node is a logical plan operator.
type Node interface {
	// Schema returns the output schema. It is only meaningful after
	// analysis; unresolved nodes return an empty schema.
	Schema() *types.Schema
	// Children returns the input operators.
	Children() []Node
	// WithChildren returns a copy with the inputs replaced.
	WithChildren(children []Node) Node
	// String is a one-line description used by EXPLAIN.
	String() string
}

// UnresolvedRelation names a table, view, or function-backed relation before
// catalog resolution. Parts holds the identifier components, e.g.
// ["main", "clinical", "sales"] or just ["sales"].
type UnresolvedRelation struct {
	Parts []string
	// AsOfVersion requests time travel when >= 0.
	AsOfVersion int64
}

// NewUnresolvedRelation builds a relation reference from identifier parts.
func NewUnresolvedRelation(parts ...string) *UnresolvedRelation {
	return &UnresolvedRelation{Parts: parts, AsOfVersion: -1}
}

// Schema implements Node.
func (r *UnresolvedRelation) Schema() *types.Schema { return &types.Schema{} }

// Children implements Node.
func (r *UnresolvedRelation) Children() []Node { return nil }

// WithChildren implements Node.
func (r *UnresolvedRelation) WithChildren([]Node) Node { return r }

// String implements Node.
func (r *UnresolvedRelation) String() string {
	s := "UnresolvedRelation " + strings.Join(r.Parts, ".")
	if r.AsOfVersion >= 0 {
		s += fmt.Sprintf(" VERSION AS OF %d", r.AsOfVersion)
	}
	return s
}

// Name returns the dotted identifier.
func (r *UnresolvedRelation) Name() string { return strings.Join(r.Parts, ".") }

// Scan is a resolved read of a stored table. PushedFilters and
// ProjectedCols are filled by the optimizer for scan pushdown.
type Scan struct {
	// Table is the fully qualified name (catalog.schema.table).
	Table string
	// TableSchema is the full stored schema.
	TableSchema *types.Schema
	// Version is the table version to read (-1 = latest).
	Version int64
	// PushedFilters are conjuncts evaluated during the scan.
	PushedFilters []Expr
	// ProjectedCols are indices into TableSchema kept by the scan
	// (nil = all).
	ProjectedCols []int
	// RunAsUser is the identity storage credentials are vended under. The
	// analyzer sets it to the resolving identity, which inside a view body
	// is the view owner (definer rights); empty means the session user.
	RunAsUser string
}

// Schema implements Node.
func (s *Scan) Schema() *types.Schema {
	if s.ProjectedCols == nil {
		return s.TableSchema
	}
	return s.TableSchema.Project(s.ProjectedCols)
}

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// WithChildren implements Node.
func (s *Scan) WithChildren([]Node) Node { return s }

// String implements Node.
func (s *Scan) String() string {
	out := "Scan " + s.Table
	if s.Version >= 0 {
		out += fmt.Sprintf("@v%d", s.Version)
	}
	if s.ProjectedCols != nil {
		out += " cols=" + strings.Join(s.Schema().Names(), ",")
	}
	if len(s.PushedFilters) > 0 {
		fs := make([]string, len(s.PushedFilters))
		for i, f := range s.PushedFilters {
			fs[i] = f.String()
		}
		out += " pushed=[" + strings.Join(fs, " AND ") + "]"
	}
	return out
}

// LocalRelation is literal in-memory data (DataFrame.CreateDataFrame, remote
// result stitching, VALUES lists).
type LocalRelation struct {
	Data *types.Batch
}

// Schema implements Node.
func (l *LocalRelation) Schema() *types.Schema { return l.Data.Schema }

// Children implements Node.
func (l *LocalRelation) Children() []Node { return nil }

// WithChildren implements Node.
func (l *LocalRelation) WithChildren([]Node) Node { return l }

// String implements Node.
func (l *LocalRelation) String() string {
	return fmt.Sprintf("LocalRelation %s rows=%d", l.Data.Schema.String(), l.Data.NumRows())
}

// Filter keeps rows satisfying Cond.
type Filter struct {
	Cond  Expr
	Child Node
}

// Schema implements Node.
func (f *Filter) Schema() *types.Schema { return f.Child.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// WithChildren implements Node.
func (f *Filter) WithChildren(ch []Node) Node { return &Filter{Cond: f.Cond, Child: ch[0]} }

// String implements Node.
func (f *Filter) String() string { return "Filter " + f.Cond.String() }

// Project computes a new row from each input row.
type Project struct {
	Exprs []Expr
	Child Node
	// schema is computed by the analyzer.
	OutSchema *types.Schema
}

// Schema implements Node.
func (p *Project) Schema() *types.Schema {
	if p.OutSchema != nil {
		return p.OutSchema
	}
	return &types.Schema{}
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// WithChildren implements Node.
func (p *Project) WithChildren(ch []Node) Node {
	return &Project{Exprs: p.Exprs, Child: ch[0], OutSchema: p.OutSchema}
}

// String implements Node.
func (p *Project) String() string {
	items := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		items[i] = e.String()
	}
	return "Project [" + strings.Join(items, ", ") + "]"
}

// Aggregate groups rows and computes aggregates. After analysis, Aggs
// contains only *Alias-wrapped expressions whose leaves over the child are
// BoundRefs and whose aggregate calls are AggFunc nodes.
type Aggregate struct {
	GroupBy []Expr
	Aggs    []Expr
	Child   Node
	// OutSchema is computed by the analyzer.
	OutSchema *types.Schema
}

// Schema implements Node.
func (a *Aggregate) Schema() *types.Schema {
	if a.OutSchema != nil {
		return a.OutSchema
	}
	return &types.Schema{}
}

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// WithChildren implements Node.
func (a *Aggregate) WithChildren(ch []Node) Node {
	return &Aggregate{GroupBy: a.GroupBy, Aggs: a.Aggs, Child: ch[0], OutSchema: a.OutSchema}
}

// String implements Node.
func (a *Aggregate) String() string {
	gs := make([]string, len(a.GroupBy))
	for i, g := range a.GroupBy {
		gs[i] = g.String()
	}
	as := make([]string, len(a.Aggs))
	for i, e := range a.Aggs {
		as[i] = e.String()
	}
	return "Aggregate group=[" + strings.Join(gs, ", ") + "] aggs=[" + strings.Join(as, ", ") + "]"
}

// JoinType enumerates supported join types.
type JoinType uint8

// Join types.
const (
	JoinInner JoinType = iota
	JoinLeft
	JoinRight
	JoinFull
	JoinCross
	JoinLeftSemi
	JoinLeftAnti
)

var joinNames = [...]string{
	JoinInner: "INNER", JoinLeft: "LEFT", JoinRight: "RIGHT",
	JoinFull: "FULL", JoinCross: "CROSS", JoinLeftSemi: "LEFT SEMI", JoinLeftAnti: "LEFT ANTI",
}

// String returns the SQL name of the join type.
func (t JoinType) String() string { return joinNames[t] }

// Valid reports whether t is a defined join type.
func (t JoinType) Valid() bool { return int(t) < len(joinNames) }

// Join combines two inputs.
type Join struct {
	Type JoinType
	Cond Expr // nil for CROSS
	L, R Node
}

// Schema implements Node.
func (j *Join) Schema() *types.Schema {
	switch j.Type {
	case JoinLeftSemi, JoinLeftAnti:
		return j.L.Schema()
	}
	s := j.L.Schema().Concat(j.R.Schema())
	// Outer joins make the non-preserved side nullable.
	if j.Type == JoinLeft || j.Type == JoinFull {
		for i := j.L.Schema().Len(); i < s.Len(); i++ {
			s.Fields[i].Nullable = true
		}
	}
	if j.Type == JoinRight || j.Type == JoinFull {
		for i := 0; i < j.L.Schema().Len(); i++ {
			s.Fields[i].Nullable = true
		}
	}
	return s
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

// WithChildren implements Node.
func (j *Join) WithChildren(ch []Node) Node {
	return &Join{Type: j.Type, Cond: j.Cond, L: ch[0], R: ch[1]}
}

// String implements Node.
func (j *Join) String() string {
	s := j.Type.String() + " Join"
	if j.Cond != nil {
		s += " ON " + j.Cond.String()
	}
	return s
}

// SortOrder is one ORDER BY term.
type SortOrder struct {
	Expr Expr
	Desc bool
}

// Sort orders the input.
type Sort struct {
	Orders []SortOrder
	Child  Node
}

// Schema implements Node.
func (s *Sort) Schema() *types.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// WithChildren implements Node.
func (s *Sort) WithChildren(ch []Node) Node { return &Sort{Orders: s.Orders, Child: ch[0]} }

// String implements Node.
func (s *Sort) String() string {
	items := make([]string, len(s.Orders))
	for i, o := range s.Orders {
		items[i] = o.Expr.String()
		if o.Desc {
			items[i] += " DESC"
		}
	}
	return "Sort [" + strings.Join(items, ", ") + "]"
}

// Limit truncates the input to N rows after skipping Offset.
type Limit struct {
	N      int64
	Offset int64
	Child  Node
}

// Schema implements Node.
func (l *Limit) Schema() *types.Schema { return l.Child.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// WithChildren implements Node.
func (l *Limit) WithChildren(ch []Node) Node {
	return &Limit{N: l.N, Offset: l.Offset, Child: ch[0]}
}

// String implements Node.
func (l *Limit) String() string {
	if l.Offset > 0 {
		return fmt.Sprintf("Limit %d OFFSET %d", l.N, l.Offset)
	}
	return fmt.Sprintf("Limit %d", l.N)
}

// Distinct removes duplicate rows.
type Distinct struct {
	Child Node
}

// Schema implements Node.
func (d *Distinct) Schema() *types.Schema { return d.Child.Schema() }

// Children implements Node.
func (d *Distinct) Children() []Node { return []Node{d.Child} }

// WithChildren implements Node.
func (d *Distinct) WithChildren(ch []Node) Node { return &Distinct{Child: ch[0]} }

// String implements Node.
func (d *Distinct) String() string { return "Distinct" }

// Union concatenates two inputs with compatible schemas (UNION ALL; wrap in
// Distinct for UNION).
type Union struct {
	L, R Node
}

// Schema implements Node.
func (u *Union) Schema() *types.Schema { return u.L.Schema() }

// Children implements Node.
func (u *Union) Children() []Node { return []Node{u.L, u.R} }

// WithChildren implements Node.
func (u *Union) WithChildren(ch []Node) Node { return &Union{L: ch[0], R: ch[1]} }

// String implements Node.
func (u *Union) String() string { return "Union" }

// SubqueryAlias names a subtree so columns can be qualified ("FROM (...) t").
type SubqueryAlias struct {
	Name  string
	Child Node
}

// Schema implements Node.
func (s *SubqueryAlias) Schema() *types.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *SubqueryAlias) Children() []Node { return []Node{s.Child} }

// WithChildren implements Node.
func (s *SubqueryAlias) WithChildren(ch []Node) Node {
	return &SubqueryAlias{Name: s.Name, Child: ch[0]}
}

// String implements Node.
func (s *SubqueryAlias) String() string { return "SubqueryAlias " + s.Name }

// SecureView is the policy barrier the analyzer injects when expanding a
// governed view, row filter, or column mask. Expressions inside the barrier
// (the policy predicates and mask expressions) must never propagate outside
// it: the optimizer will not pull filters or projections up through a
// SecureView, EXPLAIN redacts its interior for non-owners, and eFGAC rewrites
// replace the entire subtree with a RemoteScan.
type SecureView struct {
	// Name is the securable the barrier protects, e.g. "main.sales.sales".
	Name string
	// PolicyKinds documents which policies were injected ("row_filter",
	// "column_mask", "view").
	PolicyKinds []string
	// Labels are the governance obligations the analyzer seeded for this
	// barrier, one per policy instance (a column_mask label per masked
	// column, a row_filter and/or tenant_scope label for the row policy).
	// The sentinel's dataflow pass reads them from the analyzed plan — the
	// optimized plan cannot launder an obligation away by dropping them.
	Labels []Label
	Child  Node
}

// Schema implements Node.
func (s *SecureView) Schema() *types.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *SecureView) Children() []Node { return []Node{s.Child} }

// WithChildren implements Node.
func (s *SecureView) WithChildren(ch []Node) Node {
	return &SecureView{Name: s.Name, PolicyKinds: s.PolicyKinds, Labels: s.Labels, Child: ch[0]}
}

// String implements Node.
func (s *SecureView) String() string {
	return "SecureView " + s.Name + " [" + strings.Join(s.PolicyKinds, ",") + "]"
}

// RemoteScan is the eFGAC leaf: the named relation (and any pushed-down
// refinements) is executed remotely on serverless compute, which re-resolves
// it against the catalog and re-applies governance policies there. The local
// (dedicated) cluster never sees policy internals.
type RemoteScan struct {
	// Relation is the fully qualified governed relation.
	Relation string
	// OutSchema is the (masked) schema visible to the caller.
	OutSchema *types.Schema
	// PushedFilters, PushedProjection and PushedAggregate are refinements
	// the optimizer pushed into the remote subquery. They reference the
	// relation's visible schema by name.
	PushedFilters    []Expr
	PushedProjection []string
	// PushedAggregate, when non-nil, ships a partial aggregation remote-side.
	PushedAggregate *RemoteAggregate
	// PushedLimit truncates remotely when >= 0.
	PushedLimit int64
}

// RemoteAggregate describes a partial aggregation pushed into a RemoteScan.
type RemoteAggregate struct {
	GroupBy []string
	Aggs    []string // rendered agg expressions, e.g. "SUM(amount)"
}

// Schema implements Node.
func (r *RemoteScan) Schema() *types.Schema { return r.OutSchema }

// Children implements Node.
func (r *RemoteScan) Children() []Node { return nil }

// WithChildren implements Node.
func (r *RemoteScan) WithChildren([]Node) Node { return r }

// String implements Node.
func (r *RemoteScan) String() string {
	out := "RemoteScan " + r.Relation
	if len(r.PushedProjection) > 0 {
		out += " project=[" + strings.Join(r.PushedProjection, ", ") + "]"
	}
	if len(r.PushedFilters) > 0 {
		fs := make([]string, len(r.PushedFilters))
		for i, f := range r.PushedFilters {
			fs[i] = f.String()
		}
		out += " filters=[" + strings.Join(fs, " AND ") + "]"
	}
	if r.PushedAggregate != nil {
		out += " partialAgg=[group: " + strings.Join(r.PushedAggregate.GroupBy, ", ") +
			"; aggs: " + strings.Join(r.PushedAggregate.Aggs, ", ") + "]"
	}
	if r.PushedLimit >= 0 {
		out += fmt.Sprintf(" limit=%d", r.PushedLimit)
	}
	return out
}

// SQLRelation embeds a SQL query text as a composable relation (the Connect
// client's sql() entry point). The server substitutes it with the parsed
// query before analysis.
type SQLRelation struct {
	Query string
}

// Schema implements Node.
func (s *SQLRelation) Schema() *types.Schema { return &types.Schema{} }

// Children implements Node.
func (s *SQLRelation) Children() []Node { return nil }

// WithChildren implements Node.
func (s *SQLRelation) WithChildren([]Node) Node { return s }

// String implements Node.
func (s *SQLRelation) String() string { return "SQL " + s.Query }

// Transform rewrites a plan bottom-up.
func Transform(n Node, f func(Node) Node) Node {
	if n == nil {
		return nil
	}
	children := n.Children()
	if len(children) > 0 {
		newChildren := make([]Node, len(children))
		changed := false
		for i, c := range children {
			newChildren[i] = Transform(c, f)
			if newChildren[i] != c {
				changed = true
			}
		}
		if changed {
			n = n.WithChildren(newChildren)
		}
	}
	return f(n)
}

// Walk visits every plan node pre-order, stopping early if the visitor
// returns false.
func Walk(n Node, visit func(Node) bool) bool {
	if n == nil {
		return true
	}
	if !visit(n) {
		return false
	}
	for _, c := range n.Children() {
		if !Walk(c, visit) {
			return false
		}
	}
	return true
}

// Contains reports whether any node in the plan satisfies pred.
func Contains(n Node, pred func(Node) bool) bool {
	found := false
	Walk(n, func(x Node) bool {
		if pred(x) {
			found = true
			return false
		}
		return true
	})
	return found
}

// Explain renders the plan as an indented tree.
func Explain(n Node) string {
	var b strings.Builder
	explainInto(&b, n, 0)
	return b.String()
}

func explainInto(b *strings.Builder, n Node, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	if depth > 0 {
		b.WriteString("+- ")
	}
	b.WriteString(n.String())
	b.WriteByte('\n')
	for _, c := range n.Children() {
		explainInto(b, c, depth+1)
	}
}

// ExplainRedacted renders the plan hiding the interior of SecureView
// barriers — the form shown to users who do not own the underlying policies.
func ExplainRedacted(n Node) string {
	var b strings.Builder
	explainRedactedInto(&b, n, 0)
	return b.String()
}

func explainRedactedInto(b *strings.Builder, n Node, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	if depth > 0 {
		b.WriteString("+- ")
	}
	if sv, ok := n.(*SecureView); ok {
		b.WriteString(sv.String())
		b.WriteString(" <redacted>\n")
		return
	}
	b.WriteString(n.String())
	b.WriteByte('\n')
	for _, c := range n.Children() {
		explainRedactedInto(b, c, depth+1)
	}
}

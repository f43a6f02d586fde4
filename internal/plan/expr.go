// Package plan defines the logical query plan: relational operator nodes and
// the expression tree. Both the SQL frontend and the Connect DataFrame path
// lower into this representation; the analyzer resolves it against the
// catalog; the optimizer rewrites it; the executor compiles it to physical
// operators.
package plan

import (
	"fmt"
	"strings"

	"lakeguard/internal/types"
)

// Expr is a node in the expression tree.
type Expr interface {
	// Type returns the result kind. Unresolved expressions return KindNull.
	Type() types.Kind
	// String renders the expression for EXPLAIN output and error messages.
	String() string
	// ChildExprs returns the direct sub-expressions.
	ChildExprs() []Expr
	// WithChildExprs returns a copy with the sub-expressions replaced.
	WithChildExprs(children []Expr) Expr
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNeq
	OpLt
	OpLte
	OpGt
	OpGte
	OpAnd
	OpOr
	OpConcat
)

var binOpNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNeq: "<>", OpLt: "<", OpLte: "<=", OpGt: ">", OpGte: ">=",
	OpAnd: "AND", OpOr: "OR", OpConcat: "||",
}

// String returns the SQL spelling of the operator.
func (op BinOp) String() string { return binOpNames[op] }

// Valid reports whether op is a defined operator.
func (op BinOp) Valid() bool { return int(op) < len(binOpNames) }

// IsComparison reports whether the operator yields a boolean from two
// comparable operands.
func (op BinOp) IsComparison() bool { return op >= OpEq && op <= OpGte }

// IsArithmetic reports whether the operator is numeric arithmetic.
func (op BinOp) IsArithmetic() bool { return op <= OpMod }

// Literal is a constant value.
type Literal struct {
	Value types.Value
}

// Lit builds a literal expression.
func Lit(v types.Value) *Literal { return &Literal{Value: v} }

// Type implements Expr.
func (l *Literal) Type() types.Kind { return l.Value.Kind }

// String implements Expr.
func (l *Literal) String() string { return l.Value.SQLLiteral() }

// ChildExprs implements Expr.
func (l *Literal) ChildExprs() []Expr { return nil }

// WithChildExprs implements Expr.
func (l *Literal) WithChildExprs([]Expr) Expr { return l }

// ColumnRef is an unresolved column reference, optionally qualified
// ("t.amount" has Qualifier "t").
type ColumnRef struct {
	Qualifier string
	Name      string
}

// Col builds an unresolved column reference.
func Col(name string) *ColumnRef {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return &ColumnRef{Qualifier: name[:i], Name: name[i+1:]}
	}
	return &ColumnRef{Name: name}
}

// Type implements Expr.
func (c *ColumnRef) Type() types.Kind { return types.KindNull }

// String implements Expr.
func (c *ColumnRef) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

// ChildExprs implements Expr.
func (c *ColumnRef) ChildExprs() []Expr { return nil }

// WithChildExprs implements Expr.
func (c *ColumnRef) WithChildExprs([]Expr) Expr { return c }

// BoundRef is a column reference resolved to an ordinal in the child's
// output schema.
type BoundRef struct {
	Index int
	Name  string
	Kind  types.Kind
}

// Type implements Expr.
func (b *BoundRef) Type() types.Kind { return b.Kind }

// String implements Expr.
func (b *BoundRef) String() string { return fmt.Sprintf("%s#%d", b.Name, b.Index) }

// ChildExprs implements Expr.
func (b *BoundRef) ChildExprs() []Expr { return nil }

// WithChildExprs implements Expr.
func (b *BoundRef) WithChildExprs([]Expr) Expr { return b }

// Star is the `*` or `t.*` projection item, expanded by the analyzer.
type Star struct {
	Qualifier string
}

// Type implements Expr.
func (s *Star) Type() types.Kind { return types.KindNull }

// String implements Expr.
func (s *Star) String() string {
	if s.Qualifier != "" {
		return s.Qualifier + ".*"
	}
	return "*"
}

// ChildExprs implements Expr.
func (s *Star) ChildExprs() []Expr { return nil }

// WithChildExprs implements Expr.
func (s *Star) WithChildExprs([]Expr) Expr { return s }

// Alias names an expression in a projection.
type Alias struct {
	Child Expr
	Name  string
}

// As wraps an expression with an output name.
func As(e Expr, name string) *Alias { return &Alias{Child: e, Name: name} }

// Type implements Expr.
func (a *Alias) Type() types.Kind { return a.Child.Type() }

// String implements Expr.
func (a *Alias) String() string { return a.Child.String() + " AS " + a.Name }

// ChildExprs implements Expr.
func (a *Alias) ChildExprs() []Expr { return []Expr{a.Child} }

// WithChildExprs implements Expr.
func (a *Alias) WithChildExprs(ch []Expr) Expr { return &Alias{Child: ch[0], Name: a.Name} }

// Binary is a binary operation.
type Binary struct {
	Op   BinOp
	L, R Expr
	// ResultKind is set by the analyzer.
	ResultKind types.Kind
}

// NewBinary builds a binary expression.
func NewBinary(op BinOp, l, r Expr) *Binary { return &Binary{Op: op, L: l, R: r} }

// Eq builds l = r.
func Eq(l, r Expr) *Binary { return NewBinary(OpEq, l, r) }

// And builds l AND r.
func And(l, r Expr) *Binary { return NewBinary(OpAnd, l, r) }

// Type implements Expr.
func (b *Binary) Type() types.Kind {
	if b.Op.IsComparison() || b.Op == OpAnd || b.Op == OpOr {
		return types.KindBool
	}
	return b.ResultKind
}

// String implements Expr.
func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// ChildExprs implements Expr.
func (b *Binary) ChildExprs() []Expr { return []Expr{b.L, b.R} }

// WithChildExprs implements Expr.
func (b *Binary) WithChildExprs(ch []Expr) Expr {
	return &Binary{Op: b.Op, L: ch[0], R: ch[1], ResultKind: b.ResultKind}
}

// Unary is NOT or numeric negation.
type Unary struct {
	Op    UnaryOp
	Child Expr
	// ResultKind is set by the analyzer for negation.
	ResultKind types.Kind
}

// UnaryOp enumerates unary operators.
type UnaryOp uint8

// Unary operators.
const (
	OpNot UnaryOp = iota
	OpNeg
)

// Type implements Expr.
func (u *Unary) Type() types.Kind {
	if u.Op == OpNot {
		return types.KindBool
	}
	return u.ResultKind
}

// String implements Expr.
func (u *Unary) String() string {
	if u.Op == OpNot {
		return "(NOT " + u.Child.String() + ")"
	}
	return "(-" + u.Child.String() + ")"
}

// ChildExprs implements Expr.
func (u *Unary) ChildExprs() []Expr { return []Expr{u.Child} }

// WithChildExprs implements Expr.
func (u *Unary) WithChildExprs(ch []Expr) Expr {
	return &Unary{Op: u.Op, Child: ch[0], ResultKind: u.ResultKind}
}

// IsNull tests nullness.
type IsNull struct {
	Child   Expr
	Negated bool
}

// Type implements Expr.
func (e *IsNull) Type() types.Kind { return types.KindBool }

// String implements Expr.
func (e *IsNull) String() string {
	if e.Negated {
		return "(" + e.Child.String() + " IS NOT NULL)"
	}
	return "(" + e.Child.String() + " IS NULL)"
}

// ChildExprs implements Expr.
func (e *IsNull) ChildExprs() []Expr { return []Expr{e.Child} }

// WithChildExprs implements Expr.
func (e *IsNull) WithChildExprs(ch []Expr) Expr {
	return &IsNull{Child: ch[0], Negated: e.Negated}
}

// InList is `expr [NOT] IN (v1, v2, ...)`.
type InList struct {
	Child   Expr
	List    []Expr
	Negated bool
}

// Type implements Expr.
func (e *InList) Type() types.Kind { return types.KindBool }

// String implements Expr.
func (e *InList) String() string {
	items := make([]string, len(e.List))
	for i, it := range e.List {
		items[i] = it.String()
	}
	op := " IN ("
	if e.Negated {
		op = " NOT IN ("
	}
	return "(" + e.Child.String() + op + strings.Join(items, ", ") + "))"
}

// ChildExprs implements Expr.
func (e *InList) ChildExprs() []Expr {
	return append([]Expr{e.Child}, e.List...)
}

// WithChildExprs implements Expr.
func (e *InList) WithChildExprs(ch []Expr) Expr {
	return &InList{Child: ch[0], List: ch[1:], Negated: e.Negated}
}

// Like is `expr [NOT] LIKE pattern` with % and _ wildcards.
type Like struct {
	Child   Expr
	Pattern Expr
	Negated bool
}

// Type implements Expr.
func (e *Like) Type() types.Kind { return types.KindBool }

// String implements Expr.
func (e *Like) String() string {
	op := " LIKE "
	if e.Negated {
		op = " NOT LIKE "
	}
	return "(" + e.Child.String() + op + e.Pattern.String() + ")"
}

// ChildExprs implements Expr.
func (e *Like) ChildExprs() []Expr { return []Expr{e.Child, e.Pattern} }

// WithChildExprs implements Expr.
func (e *Like) WithChildExprs(ch []Expr) Expr {
	return &Like{Child: ch[0], Pattern: ch[1], Negated: e.Negated}
}

// WhenClause is one WHEN...THEN arm of a CASE expression.
type WhenClause struct {
	Cond Expr
	Then Expr
}

// Case is a searched CASE expression (the analyzer rewrites the simple form
// into the searched form).
type Case struct {
	Whens []WhenClause
	Else  Expr // may be nil (NULL)
	// ResultKind is set by the analyzer.
	ResultKind types.Kind
}

// Type implements Expr.
func (e *Case) Type() types.Kind { return e.ResultKind }

// String implements Expr.
func (e *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range e.Whens {
		b.WriteString(" WHEN " + w.Cond.String() + " THEN " + w.Then.String())
	}
	if e.Else != nil {
		b.WriteString(" ELSE " + e.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// ChildExprs implements Expr.
func (e *Case) ChildExprs() []Expr {
	out := make([]Expr, 0, len(e.Whens)*2+1)
	for _, w := range e.Whens {
		out = append(out, w.Cond, w.Then)
	}
	if e.Else != nil {
		out = append(out, e.Else)
	}
	return out
}

// WithChildExprs implements Expr.
func (e *Case) WithChildExprs(ch []Expr) Expr {
	out := &Case{Whens: make([]WhenClause, len(e.Whens)), ResultKind: e.ResultKind}
	for i := range e.Whens {
		out.Whens[i] = WhenClause{Cond: ch[2*i], Then: ch[2*i+1]}
	}
	if e.Else != nil {
		out.Else = ch[len(e.Whens)*2]
	}
	return out
}

// Cast converts an expression to a target kind.
type Cast struct {
	Child Expr
	To    types.Kind
}

// Type implements Expr.
func (e *Cast) Type() types.Kind { return e.To }

// String implements Expr.
func (e *Cast) String() string {
	return "CAST(" + e.Child.String() + " AS " + e.To.String() + ")"
}

// ChildExprs implements Expr.
func (e *Cast) ChildExprs() []Expr { return []Expr{e.Child} }

// WithChildExprs implements Expr.
func (e *Cast) WithChildExprs(ch []Expr) Expr { return &Cast{Child: ch[0], To: e.To} }

// FuncCall is an unresolved function invocation: a scalar builtin, an
// aggregate, or a cataloged UDF — the analyzer decides which.
type FuncCall struct {
	Name     string
	Args     []Expr
	Distinct bool
}

// Type implements Expr.
func (e *FuncCall) Type() types.Kind { return types.KindNull }

// String implements Expr.
func (e *FuncCall) String() string {
	if len(e.Args) == 0 && strings.EqualFold(e.Name, "count") {
		return "COUNT(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return strings.ToUpper(e.Name) + "(" + d + strings.Join(args, ", ") + ")"
}

// ChildExprs implements Expr.
func (e *FuncCall) ChildExprs() []Expr { return e.Args }

// WithChildExprs implements Expr.
func (e *FuncCall) WithChildExprs(ch []Expr) Expr {
	return &FuncCall{Name: e.Name, Args: ch, Distinct: e.Distinct}
}

// ScalarFunc is a resolved builtin scalar function.
type ScalarFunc struct {
	Name       string
	Args       []Expr
	ResultKind types.Kind
}

// Type implements Expr.
func (e *ScalarFunc) Type() types.Kind { return e.ResultKind }

// String implements Expr.
func (e *ScalarFunc) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return strings.ToUpper(e.Name) + "(" + strings.Join(args, ", ") + ")"
}

// ChildExprs implements Expr.
func (e *ScalarFunc) ChildExprs() []Expr { return e.Args }

// WithChildExprs implements Expr.
func (e *ScalarFunc) WithChildExprs(ch []Expr) Expr {
	return &ScalarFunc{Name: e.Name, Args: ch, ResultKind: e.ResultKind}
}

// AggFunc is a resolved aggregate function.
type AggFunc struct {
	Name       string // sum, count, min, max, avg
	Arg        Expr   // nil for COUNT(*)
	Distinct   bool
	ResultKind types.Kind
}

// Type implements Expr.
func (e *AggFunc) Type() types.Kind { return e.ResultKind }

// String implements Expr.
func (e *AggFunc) String() string {
	arg := "*"
	if e.Arg != nil {
		arg = e.Arg.String()
	}
	if e.Distinct {
		arg = "DISTINCT " + arg
	}
	return strings.ToUpper(e.Name) + "(" + arg + ")"
}

// ChildExprs implements Expr.
func (e *AggFunc) ChildExprs() []Expr {
	if e.Arg == nil {
		return nil
	}
	return []Expr{e.Arg}
}

// WithChildExprs implements Expr.
func (e *AggFunc) WithChildExprs(ch []Expr) Expr {
	out := &AggFunc{Name: e.Name, Distinct: e.Distinct, ResultKind: e.ResultKind}
	if len(ch) > 0 {
		out.Arg = ch[0]
	}
	return out
}

// UDFCall is a resolved call of user code. Body is PyLite source text; Owner
// identifies the trust domain the code executes in. Ephemeral session UDFs
// have Cataloged=false.
type UDFCall struct {
	Name       string
	Owner      string
	Body       string
	ArgNames   []string
	Args       []Expr
	ResultKind types.Kind
	Cataloged  bool
	// Resources names the specialized execution environment this code
	// requires ("gpu", ...); empty runs on standard executors.
	Resources string
}

// Type implements Expr.
func (e *UDFCall) Type() types.Kind { return e.ResultKind }

// String implements Expr.
func (e *UDFCall) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return "UDF:" + e.Name + "(" + strings.Join(args, ", ") + ")"
}

// ChildExprs implements Expr.
func (e *UDFCall) ChildExprs() []Expr { return e.Args }

// WithChildExprs implements Expr.
func (e *UDFCall) WithChildExprs(ch []Expr) Expr {
	cp := *e
	cp.Args = ch
	return &cp
}

// CurrentUser evaluates to the session user at execution time. It is the
// backbone of dynamic views and row filters.
type CurrentUser struct{}

// Type implements Expr.
func (e *CurrentUser) Type() types.Kind { return types.KindString }

// String implements Expr.
func (e *CurrentUser) String() string { return "CURRENT_USER()" }

// ChildExprs implements Expr.
func (e *CurrentUser) ChildExprs() []Expr { return nil }

// WithChildExprs implements Expr.
func (e *CurrentUser) WithChildExprs([]Expr) Expr { return e }

// GroupMember evaluates to true when the session user belongs to the named
// account group (IS_ACCOUNT_GROUP_MEMBER in Unity Catalog).
type GroupMember struct {
	Group string
}

// Type implements Expr.
func (e *GroupMember) Type() types.Kind { return types.KindBool }

// String implements Expr.
func (e *GroupMember) String() string {
	return "IS_ACCOUNT_GROUP_MEMBER('" + e.Group + "')"
}

// ChildExprs implements Expr.
func (e *GroupMember) ChildExprs() []Expr { return nil }

// WithChildExprs implements Expr.
func (e *GroupMember) WithChildExprs([]Expr) Expr { return e }

// TransformExpr rewrites an expression bottom-up, replacing each node with
// f(node) after its children have been transformed.
func TransformExpr(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	children := e.ChildExprs()
	if len(children) > 0 {
		newChildren := make([]Expr, len(children))
		changed := false
		for i, c := range children {
			newChildren[i] = TransformExpr(c, f)
			if newChildren[i] != c {
				changed = true
			}
		}
		if changed {
			e = e.WithChildExprs(newChildren)
		}
	}
	return f(e)
}

// WalkExpr visits every node of an expression tree, stopping early if the
// visitor returns false.
func WalkExpr(e Expr, visit func(Expr) bool) bool {
	if e == nil {
		return true
	}
	if !visit(e) {
		return false
	}
	for _, c := range e.ChildExprs() {
		if !WalkExpr(c, visit) {
			return false
		}
	}
	return true
}

// ExprContains reports whether any node in e satisfies pred.
func ExprContains(e Expr, pred func(Expr) bool) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		if pred(x) {
			found = true
			return false
		}
		return true
	})
	return found
}

// SplitConjuncts flattens an AND tree into its conjuncts, in order.
func SplitConjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// OutputName derives the display name for a projection item.
func OutputName(e Expr) string {
	switch t := e.(type) {
	case *Alias:
		return t.Name
	case *ColumnRef:
		return t.Name
	case *BoundRef:
		return t.Name
	}
	return e.String()
}

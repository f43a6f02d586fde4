// Vectorized expression evaluation: a columnar fast path that computes
// comparison, arithmetic, and boolean expressions over whole columns with
// optional selection vectors, instead of boxing one Value per row. Only a
// closed subset of the expression language compiles — anything with per-row
// error paths or user code (LIKE, CAST, IN, scalar functions, UDF calls) is
// rejected so callers fall back to the row interpreter with identical
// semantics. Within the subset, kernels reproduce Eval exactly: Kleene
// AND/OR, NULL-strict comparisons, division and modulo by zero yielding
// NULL, and Compare's float ordering (NaN compares equal to everything).
//
// Session state is the one thing compilation can bind. CompileVecBound takes
// the statement's Context and treats CURRENT_USER and
// IS_ACCOUNT_GROUP_MEMBER as the constants they are for that statement, so a
// dynamic-view guard is decided once per statement instead of once per row:
// Kleene identities drop decided OR/AND arms, and a CASE whose conditions
// are all constant compiles to the branch it picks. A bound program is
// therefore only valid for the statement whose identity it froze. The
// identity-free CompileVec rejects CURRENT_USER, IS_ACCOUNT_GROUP_MEMBER,
// CASE and whole-constant expressions, as it always has.
package eval

import (
	"fmt"
	"math"
	"strings"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// VecProg is a compiled columnar evaluator for one expression. Programs are
// immutable after compilation and safe for concurrent Run calls, so parallel
// scan workers share one program.
type VecProg struct {
	root vecNode
}

// Kind returns the result kind of the compiled expression.
func (p *VecProg) Kind() types.Kind { return p.root.kind() }

// Run evaluates the program over the batch columns. sel selects the input
// rows to evaluate (nil = all n rows); the result column is aligned to the
// selection, i.e. row j of the output corresponds to input row sel[j]. Run
// never fails: every kind combination that could error per row was rejected
// at compile time.
func (p *VecProg) Run(cols []*types.Column, n int, sel []int) *types.Column {
	return p.root.eval(cols, rowsOf(n, sel), sel)
}

// Column reports the input column a program reads when it is a bare column
// reference, possibly reached through an alias or through a CASE the bound
// identity decided; a caller may then pass that column on unevaluated.
func (p *VecProg) Column() (int, bool) {
	if ref, ok := p.root.(*refNode); ok {
		return ref.idx, true
	}
	return 0, false
}

// Select appends to out the input rows where a BOOLEAN program is TRUE (not
// FALSE, not NULL), in selection order, and returns the extended slice. sel
// restricts the candidates (nil = all n rows; a non-nil empty sel selects
// nothing). It produces no boolean column: comparisons and AND/OR chains
// narrow the selection directly, reading referenced columns in place. out
// must not alias sel.
func (p *VecProg) Select(cols []*types.Column, n int, sel []int, out []int) []int {
	return selectNode(p.root, cols, n, sel, out)
}

// CompileVec compiles an expression against the actual input column kinds,
// with no session identity bound. ok=false means the expression is outside
// the vectorizable subset (or its kind combination would need per-row
// semantics the kernels don't model); callers must then use the row
// interpreter.
func CompileVec(e plan.Expr, inKinds []types.Kind) (*VecProg, bool) {
	p, _ := CompileVecBound(e, inKinds, nil)
	return p, p != nil
}

// CompileVecBound compiles an expression for one statement, binding ctx's
// identity (CURRENT_USER, IS_ACCOUNT_GROUP_MEMBER) as constants; ctx == nil
// is CompileVec. On failure it returns nil and the type name of the first
// expression node the compiler rejected ("Like", "Cast", ...), which callers
// report as the reason for the row-interpreter fallback.
func CompileVecBound(e plan.Expr, inKinds []types.Kind, ctx *Context) (*VecProg, string) {
	c := &vecCompiler{kinds: inKinds, ctx: ctx}
	n, ok := c.node(e)
	if !ok {
		return nil, nodeName(c.rejected)
	}
	return &VecProg{root: n}, ""
}

// nodeName is an expression's Go type name without package or pointer
// ("Binary", "GroupMember").
func nodeName(e plan.Expr) string {
	name := fmt.Sprintf("%T", e)
	return name[strings.LastIndexByte(name, '.')+1:]
}

func rowsOf(n int, sel []int) int {
	if sel != nil {
		return len(sel)
	}
	return n
}

// rowAt maps selection position j to its input row.
func rowAt(sel []int, j int) int {
	if sel != nil {
		return sel[j]
	}
	return j
}

// vecNode evaluates to a column of m rows aligned to the selection.
type vecNode interface {
	kind() types.Kind
	eval(cols []*types.Column, m int, sel []int) *types.Column
}

// operand is one input of a kernel: either a sub-node producing a column or
// a constant folded at compile time.
type operand struct {
	node vecNode
	null bool
	i    int64
	f    float64
	s    string
}

// acc reads operand payloads: a slice for columns, a constant otherwise.
// byRow marks a column read in place, indexed by input row rather than by
// selection position (Select's kernels; see get).
type acc[T int64 | float64 | string] struct {
	v     []T
	c     T
	byRow bool
}

func (a acc[T]) at(i int) T {
	if a.v != nil {
		return a.v[i]
	}
	return a.c
}

// get reads selection position j, whose input row is i.
func (a acc[T]) get(j, i int) T {
	switch {
	case a.v == nil:
		return a.c
	case a.byRow:
		return a.v[i]
	}
	return a.v[j]
}

// nullmask reads operand validity: a mask for columns, a constant otherwise.
type nullmask struct {
	m     []bool
	c     bool
	byRow bool
}

func (n nullmask) at(i int) bool {
	if n.m != nil {
		return n.m[i]
	}
	return n.c
}

func (n nullmask) get(j, i int) bool {
	switch {
	case n.m == nil:
		return n.c
	case n.byRow:
		return n.m[i]
	}
	return n.m[j]
}

func (o *operand) intAcc(cols []*types.Column, m int, sel []int) (acc[int64], nullmask) {
	if o.node == nil {
		return acc[int64]{c: o.i}, nullmask{c: o.null}
	}
	col := o.node.eval(cols, m, sel)
	return acc[int64]{v: col.Int64s()}, nullmask{m: col.NullMask()}
}

func (o *operand) floatAcc(cols []*types.Column, m int, sel []int) (acc[float64], nullmask) {
	if o.node == nil {
		return acc[float64]{c: o.f}, nullmask{c: o.null}
	}
	col := o.node.eval(cols, m, sel)
	if col.Kind() == types.KindFloat64 {
		return acc[float64]{v: col.Float64s()}, nullmask{m: col.NullMask()}
	}
	// Widen an integer column once per batch, mirroring Value.AsFloat64.
	iv := col.Int64s()
	fv := make([]float64, len(iv))
	for i, x := range iv {
		fv[i] = float64(x)
	}
	return acc[float64]{v: fv}, nullmask{m: col.NullMask()}
}

func (o *operand) strAcc(cols []*types.Column, m int, sel []int) (acc[string], nullmask) {
	if o.node == nil {
		return acc[string]{c: o.s}, nullmask{c: o.null}
	}
	col := o.node.eval(cols, m, sel)
	return acc[string]{v: col.Strings()}, nullmask{m: col.NullMask()}
}

// inPlace returns the input column a plain column reference reads, so
// Select kernels can read it by input row instead of gathering the
// selection first.
func (o *operand) inPlace(cols []*types.Column) *types.Column {
	if ref, ok := o.node.(*refNode); ok {
		return cols[ref.idx]
	}
	return nil
}

func (o *operand) intSel(cols []*types.Column, m int, sel []int) (acc[int64], nullmask) {
	if c := o.inPlace(cols); c != nil {
		return acc[int64]{v: c.Int64s(), byRow: true}, nullmask{m: c.NullMask(), byRow: true}
	}
	return o.intAcc(cols, m, sel)
}

func (o *operand) floatSel(cols []*types.Column, m int, sel []int) (acc[float64], nullmask) {
	if c := o.inPlace(cols); c != nil && c.Kind() == types.KindFloat64 {
		return acc[float64]{v: c.Float64s(), byRow: true}, nullmask{m: c.NullMask(), byRow: true}
	}
	return o.floatAcc(cols, m, sel) // widens an integer column
}

func (o *operand) strSel(cols []*types.Column, m int, sel []int) (acc[string], nullmask) {
	if c := o.inPlace(cols); c != nil {
		return acc[string]{v: c.Strings(), byRow: true}, nullmask{m: c.NullMask(), byRow: true}
	}
	return o.strAcc(cols, m, sel)
}

// payload classes for binary kernels
const (
	classInt uint8 = iota
	classFloat
	classString
)

func intPayload(k types.Kind) bool {
	switch k {
	case types.KindBool, types.KindInt64, types.KindDate, types.KindTimestamp:
		return true
	}
	return false
}

func stringPayload(k types.Kind) bool {
	return k == types.KindString || k == types.KindBinary
}

// refNode reads an input column.
type refNode struct {
	idx int
	k   types.Kind
}

func (nd *refNode) kind() types.Kind { return nd.k }

func (nd *refNode) eval(cols []*types.Column, m int, sel []int) *types.Column {
	c := cols[nd.idx]
	if sel == nil {
		return c
	}
	return c.Gather(sel)
}

// selectRows keeps the TRUE rows of a BOOLEAN column, read in place.
func (nd *refNode) selectRows(cols []*types.Column, n int, sel, out []int) []int {
	c := cols[nd.idx]
	vals, nulls := c.Int64s(), c.NullMask()
	for j, m := 0, rowsOf(n, sel); j < m; j++ {
		if i := rowAt(sel, j); vals[i] != 0 && (nulls == nil || !nulls[i]) {
			out = append(out, i)
		}
	}
	return out
}

// cmpNode compares two operands, reproducing Value.Compare ordering.
type cmpNode struct {
	op    plan.BinOp
	class uint8
	l, r  operand
}

func (nd *cmpNode) kind() types.Kind { return types.KindBool }

func (nd *cmpNode) eval(cols []*types.Column, m int, sel []int) *types.Column {
	switch nd.class {
	case classInt:
		l, ln := nd.l.intAcc(cols, m, sel)
		r, rn := nd.r.intAcc(cols, m, sel)
		return cmpKernel(nd.op, true, l, ln, r, rn, m)
	case classFloat:
		l, ln := nd.l.floatAcc(cols, m, sel)
		r, rn := nd.r.floatAcc(cols, m, sel)
		return cmpKernel(nd.op, false, l, ln, r, rn, m)
	default:
		l, ln := nd.l.strAcc(cols, m, sel)
		r, rn := nd.r.strAcc(cols, m, sel)
		return cmpKernel(nd.op, true, l, ln, r, rn, m)
	}
}

// selectRows narrows the selection to the rows where the comparison holds,
// with no boolean column in between.
func (nd *cmpNode) selectRows(cols []*types.Column, n int, sel, out []int) []int {
	m := rowsOf(n, sel)
	switch nd.class {
	case classInt:
		l, ln := nd.l.intSel(cols, m, sel)
		r, rn := nd.r.intSel(cols, m, sel)
		return cmpSelect(nd.op, true, l, ln, r, rn, m, sel, out)
	case classFloat:
		l, ln := nd.l.floatSel(cols, m, sel)
		r, rn := nd.r.floatSel(cols, m, sel)
		return cmpSelect(nd.op, false, l, ln, r, rn, m, sel, out)
	default:
		l, ln := nd.l.strSel(cols, m, sel)
		r, rn := nd.r.strSel(cols, m, sel)
		return cmpSelect(nd.op, true, l, ln, r, rn, m, sel, out)
	}
}

// cmpKernel evaluates a NULL-strict comparison; exact is as for cmpHolds.
func cmpKernel[T int64 | float64 | string](op plan.BinOp, exact bool, l acc[T], ln nullmask, r acc[T], rn nullmask, m int) *types.Column {
	out := make([]int64, m)
	var nulls []bool
	for i := 0; i < m; i++ {
		if ln.at(i) || rn.at(i) {
			if nulls == nil {
				nulls = make([]bool, m)
			}
			nulls[i] = true
			continue
		}
		if cmpHolds(op, exact, l.at(i), r.at(i)) {
			out[i] = 1
		}
	}
	return types.NewInt64Column(types.KindBool, out, nulls)
}

func cmpSelect[T int64 | float64 | string](op plan.BinOp, exact bool, l acc[T], ln nullmask, r acc[T], rn nullmask, m int, sel, out []int) []int {
	for j := 0; j < m; j++ {
		i := rowAt(sel, j)
		if !ln.get(j, i) && !rn.get(j, i) && cmpHolds(op, exact, l.get(j, i), r.get(j, i)) {
			out = append(out, i)
		}
	}
	return out
}

// cmpHolds decides one comparison. For the exact classes (integer and
// string payloads) = and <> are one equality test. Everything else derives
// a three-way cmp first (like Value.Compare), so that a float NaN, which
// Compare orders equal to every value, behaves as in the row interpreter.
func cmpHolds[T int64 | float64 | string](op plan.BinOp, exact bool, a, b T) bool {
	if exact {
		switch op {
		case plan.OpEq:
			return a == b
		case plan.OpNeq:
			return a != b
		}
	}
	c := 0
	if a < b {
		c = -1
	} else if a > b {
		c = 1
	}
	switch op {
	case plan.OpEq:
		return c == 0
	case plan.OpNeq:
		return c != 0
	case plan.OpLt:
		return c < 0
	case plan.OpLte:
		return c <= 0
	case plan.OpGt:
		return c > 0
	case plan.OpGte:
		return c >= 0
	}
	return false
}

// arithNode is numeric arithmetic; kernels mirror evalArith exactly,
// including the NULL result on division or modulo by zero.
type arithNode struct {
	op    plan.BinOp
	float bool
	l, r  operand
}

func (nd *arithNode) kind() types.Kind {
	if nd.float {
		return types.KindFloat64
	}
	return types.KindInt64
}

func (nd *arithNode) eval(cols []*types.Column, m int, sel []int) *types.Column {
	if nd.float {
		l, ln := nd.l.floatAcc(cols, m, sel)
		r, rn := nd.r.floatAcc(cols, m, sel)
		return arithFloatKernel(nd.op, l, ln, r, rn, m)
	}
	l, ln := nd.l.intAcc(cols, m, sel)
	r, rn := nd.r.intAcc(cols, m, sel)
	return arithIntKernel(nd.op, l, ln, r, rn, m)
}

func arithIntKernel(op plan.BinOp, l acc[int64], ln nullmask, r acc[int64], rn nullmask, m int) *types.Column {
	out := make([]int64, m)
	var nulls []bool
	for i := 0; i < m; i++ {
		if ln.at(i) || rn.at(i) {
			if nulls == nil {
				nulls = make([]bool, m)
			}
			nulls[i] = true
			continue
		}
		a, b := l.at(i), r.at(i)
		switch op {
		case plan.OpAdd:
			out[i] = a + b
		case plan.OpSub:
			out[i] = a - b
		case plan.OpMul:
			out[i] = a * b
		case plan.OpDiv, plan.OpMod:
			if b == 0 {
				if nulls == nil {
					nulls = make([]bool, m)
				}
				nulls[i] = true
				continue
			}
			if op == plan.OpDiv {
				out[i] = a / b
			} else {
				out[i] = a % b
			}
		}
	}
	return types.NewInt64Column(types.KindInt64, out, nulls)
}

func arithFloatKernel(op plan.BinOp, l acc[float64], ln nullmask, r acc[float64], rn nullmask, m int) *types.Column {
	out := make([]float64, m)
	var nulls []bool
	for i := 0; i < m; i++ {
		if ln.at(i) || rn.at(i) {
			if nulls == nil {
				nulls = make([]bool, m)
			}
			nulls[i] = true
			continue
		}
		a, b := l.at(i), r.at(i)
		switch op {
		case plan.OpAdd:
			out[i] = a + b
		case plan.OpSub:
			out[i] = a - b
		case plan.OpMul:
			out[i] = a * b
		case plan.OpDiv, plan.OpMod:
			if b == 0 {
				if nulls == nil {
					nulls = make([]bool, m)
				}
				nulls[i] = true
				continue
			}
			if op == plan.OpDiv {
				out[i] = a / b
			} else {
				out[i] = math.Mod(a, b)
			}
		}
	}
	return types.NewFloat64Column(out, nulls)
}

// andOrNode is Kleene AND/OR. Evaluating both sides eagerly (no short
// circuit) is safe because every compiled sub-expression is total: within
// the vectorizable subset no kernel can fail per row.
type andOrNode struct {
	isAnd bool
	l, r  operand
}

func (nd *andOrNode) kind() types.Kind { return types.KindBool }

func (nd *andOrNode) eval(cols []*types.Column, m int, sel []int) *types.Column {
	l, ln := nd.l.intAcc(cols, m, sel)
	r, rn := nd.r.intAcc(cols, m, sel)
	out := make([]int64, m)
	var nulls []bool
	for i := 0; i < m; i++ {
		lnull, rnull := ln.at(i), rn.at(i)
		a := l.at(i) != 0
		b := r.at(i) != 0
		if nd.isAnd {
			switch {
			case (!lnull && !a) || (!rnull && !b):
				// false dominates NULL
			case lnull || rnull:
				if nulls == nil {
					nulls = make([]bool, m)
				}
				nulls[i] = true
			default:
				out[i] = 1
			}
		} else {
			switch {
			case (!lnull && a) || (!rnull && b):
				out[i] = 1
			case lnull || rnull:
				if nulls == nil {
					nulls = make([]bool, m)
				}
				nulls[i] = true
			}
		}
	}
	return types.NewInt64Column(types.KindBool, out, nulls)
}

// selectRows narrows the selection through AND/OR without materializing
// either side: AND selects its right side from what its left side kept; OR
// selects its right side from what its left side dropped and merges the two
// back into selection order. Only TRUE survives either way, exactly as
// Kleene logic has it.
func (nd *andOrNode) selectRows(cols []*types.Column, n int, sel, out []int) []int {
	m := rowsOf(n, sel)
	left := selectOperand(&nd.l, cols, n, sel, make([]int, 0, m))
	if nd.isAnd {
		if len(left) == 0 {
			return out // an empty left selection must not read as "all rows"
		}
		return selectOperand(&nd.r, cols, n, left, out)
	}
	if len(left) == m {
		return append(out, left...)
	}
	rest := make([]int, 0, m-len(left))
	for j, k := 0, 0; j < m; j++ {
		if i := rowAt(sel, j); k < len(left) && left[k] == i {
			k++
		} else {
			rest = append(rest, i)
		}
	}
	right := selectOperand(&nd.r, cols, n, rest, make([]int, 0, len(rest)))
	for j, a, b := 0, 0, 0; j < m; j++ {
		switch i := rowAt(sel, j); {
		case a < len(left) && left[a] == i:
			out = append(out, i)
			a++
		case b < len(right) && right[b] == i:
			out = append(out, i)
			b++
		}
	}
	return out
}

// selectOperand is selectNode for one side of AND/OR, which may be a
// constant.
func selectOperand(o *operand, cols []*types.Column, n int, sel, out []int) []int {
	if o.node == nil {
		if !o.null && o.i != 0 {
			return appendRows(out, n, sel)
		}
		return out
	}
	return selectNode(o.node, cols, n, sel, out)
}

// selector is implemented by BOOLEAN nodes that can narrow a selection
// without producing a boolean column.
type selector interface {
	selectRows(cols []*types.Column, n int, sel, out []int) []int
}

// selectNode appends the TRUE rows of a BOOLEAN node. Nodes without their
// own selection kernel are evaluated over the selection and scanned.
func selectNode(nd vecNode, cols []*types.Column, n int, sel, out []int) []int {
	if s, ok := nd.(selector); ok {
		return s.selectRows(cols, n, sel, out)
	}
	m := rowsOf(n, sel)
	c := nd.eval(cols, m, sel)
	vals, nulls := c.Int64s(), c.NullMask()
	for j := 0; j < m; j++ {
		if vals[j] != 0 && (nulls == nil || !nulls[j]) {
			out = append(out, rowAt(sel, j))
		}
	}
	return out
}

// appendRows appends every candidate row: sel itself, or 0..n-1.
func appendRows(out []int, n int, sel []int) []int {
	if sel != nil {
		return append(out, sel...)
	}
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// constNode is a value fixed for the whole statement: a CASE branch picked
// by constant conditions, or an AND/OR decided by a constant arm.
type constNode struct {
	v types.Value
}

func (nd *constNode) kind() types.Kind { return nd.v.Kind }

func (nd *constNode) eval(_ []*types.Column, m int, _ []int) *types.Column {
	return types.ConstColumn(nd.v, m)
}

func (nd *constNode) selectRows(_ []*types.Column, n int, sel, out []int) []int {
	if nd.v.IsTrue() {
		return appendRows(out, n, sel)
	}
	return out
}

// notNode is boolean NOT.
type notNode struct {
	child vecNode
}

func (nd *notNode) kind() types.Kind { return types.KindBool }

func (nd *notNode) eval(cols []*types.Column, m int, sel []int) *types.Column {
	c := nd.child.eval(cols, m, sel)
	in := c.Int64s()
	out := make([]int64, m)
	for i := 0; i < m; i++ {
		if in[i] == 0 {
			out[i] = 1
		}
	}
	return types.NewInt64Column(types.KindBool, out, c.NullMask())
}

// negNode is numeric negation.
type negNode struct {
	child vecNode
	k     types.Kind
}

func (nd *negNode) kind() types.Kind { return nd.k }

func (nd *negNode) eval(cols []*types.Column, m int, sel []int) *types.Column {
	c := nd.child.eval(cols, m, sel)
	if nd.k == types.KindFloat64 {
		in := c.Float64s()
		out := make([]float64, m)
		for i := 0; i < m; i++ {
			out[i] = -in[i]
		}
		return types.NewFloat64Column(out, c.NullMask())
	}
	in := c.Int64s()
	out := make([]int64, m)
	for i := 0; i < m; i++ {
		out[i] = -in[i]
	}
	return types.NewInt64Column(types.KindInt64, out, c.NullMask())
}

// isNullNode is IS [NOT] NULL; the result is never NULL itself.
type isNullNode struct {
	child   vecNode
	negated bool
}

func (nd *isNullNode) kind() types.Kind { return types.KindBool }

func (nd *isNullNode) eval(cols []*types.Column, m int, sel []int) *types.Column {
	c := nd.child.eval(cols, m, sel)
	mask := c.NullMask()
	out := make([]int64, m)
	for i := 0; i < m; i++ {
		isNull := mask != nil && mask[i]
		if isNull != nd.negated {
			out[i] = 1
		}
	}
	return types.NewInt64Column(types.KindBool, out, nil)
}

// concatNode is string || string (NULL-strict).
type concatNode struct {
	l, r operand
}

func (nd *concatNode) kind() types.Kind { return types.KindString }

func (nd *concatNode) eval(cols []*types.Column, m int, sel []int) *types.Column {
	l, ln := nd.l.strAcc(cols, m, sel)
	r, rn := nd.r.strAcc(cols, m, sel)
	out := make([]string, m)
	var nulls []bool
	for i := 0; i < m; i++ {
		if ln.at(i) || rn.at(i) {
			if nulls == nil {
				nulls = make([]bool, m)
			}
			nulls[i] = true
			continue
		}
		out[i] = l.at(i) + r.at(i)
	}
	return types.NewStringColumn(types.KindString, out, nulls)
}

// vecCompiler compiles one expression. ctx, when set, is the statement
// whose identity the program binds; rejected records the first node the
// compiler could not handle.
type vecCompiler struct {
	kinds    []types.Kind
	ctx      *Context
	rejected plan.Expr
}

func (c *vecCompiler) reject(e plan.Expr) (vecNode, bool) {
	if c.rejected == nil {
		c.rejected = e
	}
	return nil, false
}

// constant reports whether e has the same value on every row of the
// statement: no row, UDF or aggregate dependence, and session functions
// only when an identity is bound.
func (c *vecCompiler) constant(e plan.Expr) bool {
	if c.ctx == nil {
		return IsConstant(e)
	}
	constant := true
	plan.WalkExpr(e, func(x plan.Expr) bool {
		switch x.(type) {
		case *plan.BoundRef, *plan.ColumnRef, *plan.UDFCall, *plan.AggFunc, *plan.Star:
			constant = false
			return false
		}
		return true
	})
	return constant
}

// fold evaluates a constant expression once and casts it to kind. An
// expression that errors is left to the row interpreter, which raises the
// same error if and when a row reaches it.
func (c *vecCompiler) fold(e plan.Expr, kind types.Kind) (types.Value, bool) {
	if kind == types.KindNull {
		return types.Value{}, false
	}
	v, err := Eval(e, nil, c.ctx)
	switch {
	case err != nil:
		return types.Value{}, false
	case v.Null:
		return types.Null(kind), true
	case v.Kind != kind:
		v, err = v.Cast(kind)
	}
	return v, err == nil
}

// operand compiles one side of a binary kernel: constants fold to a scalar,
// everything else must compile to a node. The returned kind is the
// operand's static kind, used for class selection.
func (c *vecCompiler) operand(e plan.Expr) (operand, types.Kind, bool) {
	if c.constant(e) {
		k := e.Type()
		v, ok := c.fold(e, k)
		if !ok {
			c.reject(e)
		}
		return operand{null: v.Null, i: v.I, f: v.AsFloat64(), s: v.S}, k, ok
	}
	n, ok := c.node(e)
	if !ok {
		return operand{}, 0, false
	}
	return operand{node: n}, n.kind(), true
}

// constNode folds e to a constant column of kind. Only bound compilation
// makes constant nodes; identity-free callers leave whole-constant
// expressions to the optimizer's folding, as they always have.
func (c *vecCompiler) constNode(e plan.Expr, kind types.Kind) (vecNode, bool) {
	if c.ctx == nil {
		return c.reject(e)
	}
	v, ok := c.fold(e, kind)
	if !ok {
		return c.reject(e)
	}
	return &constNode{v: v}, true
}

// isBool reports whether a constant operand is the non-NULL boolean b.
func (o *operand) isBool(b bool) bool {
	return o.node == nil && !o.null && (o.i != 0) == b
}

// node compiles an expression to a kernel tree, or reports that it is
// outside the vectorizable subset.
func (c *vecCompiler) node(e plan.Expr) (vecNode, bool) {
	if c.ctx != nil && c.constant(e) {
		return c.constNode(e, e.Type())
	}
	switch t := e.(type) {
	case *plan.Alias:
		return c.node(t.Child)

	case *plan.BoundRef:
		if t.Index < 0 || t.Index >= len(c.kinds) {
			return c.reject(e)
		}
		k := c.kinds[t.Index]
		// The analyzer's static kind must agree with the physical column;
		// when they disagree the row path's per-value casts apply instead.
		if k != t.Kind || k == types.KindNull {
			return c.reject(e)
		}
		return &refNode{idx: t.Index, k: k}, true

	case *plan.IsNull:
		child, ok := c.node(t.Child)
		if !ok {
			return nil, false
		}
		return &isNullNode{child: child, negated: t.Negated}, true

	case *plan.Unary:
		child, ok := c.node(t.Child)
		if !ok {
			return nil, false
		}
		if t.Op == plan.OpNot {
			if child.kind() != types.KindBool {
				return c.reject(e)
			}
			return &notNode{child: child}, true
		}
		k := child.kind()
		if (k != types.KindInt64 && k != types.KindFloat64) || t.ResultKind != k {
			return c.reject(e)
		}
		return &negNode{child: child, k: k}, true

	case *plan.Case:
		return c.caseNode(t)

	case *plan.Binary:
		l, lk, ok := c.operand(t.L)
		if !ok {
			return nil, false
		}
		r, rk, ok := c.operand(t.R)
		if !ok {
			return nil, false
		}
		if l.node == nil && r.node == nil {
			return c.reject(e) // all-constant: the optimizer's folding job
		}
		switch {
		case t.Op == plan.OpAnd || t.Op == plan.OpOr:
			if lk != types.KindBool || rk != types.KindBool {
				return c.reject(e)
			}
			return andOr(t.Op == plan.OpAnd, l, r), true

		case t.Op.IsComparison():
			switch {
			case lk == rk && intPayload(lk):
				return &cmpNode{op: t.Op, class: classInt, l: l, r: r}, true
			case lk == rk && lk == types.KindFloat64:
				return &cmpNode{op: t.Op, class: classFloat, l: l, r: r}, true
			case lk == rk && stringPayload(lk):
				return &cmpNode{op: t.Op, class: classString, l: l, r: r}, true
			case lk.Numeric() && rk.Numeric():
				return &cmpNode{op: t.Op, class: classFloat, l: l, r: r}, true
			}
			return c.reject(e)

		case t.Op.IsArithmetic():
			if t.ResultKind == types.KindInt64 && lk == types.KindInt64 && rk == types.KindInt64 {
				return &arithNode{op: t.Op, float: false, l: l, r: r}, true
			}
			numeric := func(k types.Kind) bool { return k == types.KindInt64 || k == types.KindFloat64 }
			if t.ResultKind == types.KindFloat64 && numeric(lk) && numeric(rk) {
				return &arithNode{op: t.Op, float: true, l: l, r: r}, true
			}
			return c.reject(e)

		case t.Op == plan.OpConcat:
			if !stringPayload(lk) || !stringPayload(rk) || t.ResultKind != types.KindString {
				return c.reject(e)
			}
			return &concatNode{l: l, r: r}, true
		}
		return c.reject(e)
	}
	return c.reject(e)
}

// andOr builds Kleene AND/OR over two compiled operands, one of which is a
// node. A constant arm that decides nothing drops out (x AND TRUE = x,
// x OR FALSE = x); one that decides everything makes the whole node
// constant (x AND FALSE = FALSE, x OR TRUE = TRUE). The second fold is sound
// only because x compiled: compiled operands are total, so skipping them
// cannot skip an error the row interpreter would have raised.
func andOr(isAnd bool, l, r operand) vecNode {
	for _, side := range [2]struct{ c, x operand }{{l, r}, {r, l}} {
		switch {
		case side.c.isBool(isAnd):
			return side.x.node
		case side.c.isBool(!isAnd):
			return &constNode{v: types.Bool(!isAnd)}
		}
	}
	return &andOrNode{isAnd: isAnd, l: l, r: r}
}

// caseNode compiles a CASE whose WHEN conditions are all constant for the
// statement to the one branch they pick; any other CASE is rejected.
// Conditions after the first TRUE one are never evaluated, as in Eval.
func (c *vecCompiler) caseNode(t *plan.Case) (vecNode, bool) {
	if c.ctx == nil {
		return c.reject(t) // identity-free compilation keeps rejecting CASE
	}
	branch := t.Else
	for _, w := range t.Whens {
		if !c.constant(w.Cond) {
			return c.reject(t)
		}
		v, err := Eval(w.Cond, nil, c.ctx)
		if err != nil {
			return c.reject(t)
		}
		if v.IsTrue() {
			branch = w.Then
			break
		}
	}
	if branch == nil {
		branch = plan.Lit(types.Null(t.ResultKind))
	}
	if c.constant(branch) {
		return c.constNode(branch, t.ResultKind)
	}
	n, ok := c.node(branch)
	if !ok {
		return nil, false
	}
	if n.kind() != t.ResultKind {
		return c.reject(t) // the row path casts the branch value; kernels don't
	}
	return n, true
}

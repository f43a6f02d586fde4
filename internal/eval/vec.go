// Columnar expression evaluation: every expression compiles to a program
// that computes whole columns with optional selection vectors, and that
// program is the one evaluator the engine runs. Comparison, arithmetic and
// boolean kernels read payload slices without boxing a Value per row; CAST,
// IN, LIKE, CASE on row values and the scalar functions run per row over
// boxed values through the rules in eval.go. Kernels reproduce the
// row-at-a-time reference (evaltest) exactly: Kleene AND/OR, NULL-strict
// comparisons, division and modulo by zero yielding NULL, and Compare's
// float ordering (NaN compares equal to everything).
//
// Errors are part of that semantics. A node that can raise runs only on the
// rows the reference would evaluate it on: AND/OR evaluate their right side
// only where the left side does not decide, a CASE branch only where it is
// chosen, each IN item only where no earlier item matched. Kernels that
// cannot raise stay eager. When a batch raises, the program finds the first
// selected row that raises, and reports that row's error.
//
// Session state is the one thing compilation can bind. CompileVecBound takes
// the statement's Context and treats CURRENT_USER and
// IS_ACCOUNT_GROUP_MEMBER as the constants they are for that statement, so a
// dynamic-view guard is decided once per statement instead of once per row:
// constant subtrees fold, Kleene identities drop decided OR/AND arms, and a
// CASE drops the WHENs its constant conditions decide. A bound program is
// therefore only valid for the statement whose identity it froze. Without a
// Context the identity functions raise on every row that reaches them.
package eval

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// VecProg is a compiled columnar evaluator for one expression. Programs are
// immutable after compilation and safe for concurrent Run calls, so parallel
// scan workers share one program.
type VecProg struct {
	root vecNode
}

// Kind returns the kind of the column Run returns.
func (p *VecProg) Kind() types.Kind { return p.root.kind() }

// Run evaluates the program over the batch columns. sel selects the input
// rows to evaluate (nil = all n rows); the result column is aligned to the
// selection, i.e. row j of the output corresponds to input row sel[j]. It
// fails with the error the first selected row that raises would raise.
func (p *VecProg) Run(cols []*types.Column, n int, sel []int) (*types.Column, error) {
	ev := newEvaluation(cols)
	c := p.root.eval(ev, rowsOf(n, sel), sel)
	if err := ev.release(); err != nil {
		return nil, p.firstError(cols, n, sel, err)
	}
	return c, nil
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

// Select appends to out the input rows where the program is a BOOLEAN TRUE
// (not FALSE, not NULL, not a value of another kind), in selection order,
// and returns the extended slice. sel restricts the candidates (nil = all n
// rows; a non-nil empty sel selects nothing). It produces no boolean column
// where it can: comparisons and AND/OR chains narrow the selection directly,
// reading referenced columns in place. out must not alias sel. It fails as
// Run does.
func (p *VecProg) Select(cols []*types.Column, n int, sel []int, out []int) ([]int, error) {
	ev := newEvaluation(cols)
	out = selectNode(ev, p.root, n, sel, out)
	if err := ev.release(); err != nil {
		return nil, p.firstError(cols, n, sel, err)
	}
	return out, nil
}

// firstError returns the error of the first selected row that raises. A
// batch raises exactly when one of its rows does, but kernels evaluate
// operand after operand over whole columns, so the error a batch meets
// first may belong to a later row; one row at a time, the nodes run in the
// reference's order and the first failure is the row's.
func (p *VecProg) firstError(cols []*types.Column, n int, sel []int, batchErr error) error {
	row := make([]int, 1)
	for j := 0; j < rowsOf(n, sel); j++ {
		row[0] = rowAt(sel, j)
		ev := &evaluation{cols: cols}
		if p.root.eval(ev, 1, row); ev.err != nil {
			return ev.err
		}
	}
	return batchErr
}

// evaluation is one run of a program: the input columns and the first
// error a node raised. A node that raises records its error and yields
// NULLs, and evaluation goes on, so kernels carry no error returns; a run
// that raised is discarded.
type evaluation struct {
	cols []*types.Column
	err  error
}

// evaluations recycles the evaluations of Run and Select, which escape
// through the node interfaces, so a Select that narrows its selection in
// place allocates nothing.
var evaluations = sync.Pool{New: func() any { return new(evaluation) }}

func newEvaluation(cols []*types.Column) *evaluation {
	ev := evaluations.Get().(*evaluation)
	ev.cols = cols
	return ev
}

// release returns ev to the pool and the error it recorded.
func (ev *evaluation) release() error {
	err := ev.err
	*ev = evaluation{}
	evaluations.Put(ev)
	return err
}

// fail records err unless an earlier node raised, and returns the m NULLs
// of kind k the raising node yields.
func (ev *evaluation) fail(err error, k types.Kind, m int) *types.Column {
	if ev.err == nil {
		ev.err = err
	}
	return types.ConstColumn(types.Null(k), m)
}

// CompileVec compiles an expression against the input column kinds with no
// session identity bound. Every expression compiles, so ok is always true.
func CompileVec(e plan.Expr, inKinds []types.Kind) (*VecProg, bool) {
	return CompileVecBound(e, inKinds, nil), true
}

// CompileVecBound compiles an expression for one statement, binding ctx's
// identity (CURRENT_USER, IS_ACCOUNT_GROUP_MEMBER) as constants; ctx == nil
// binds none. Column references read the input column's kind, as the
// reference reads the row's values, whatever kind the analyzer gave them.
func CompileVecBound(e plan.Expr, inKinds []types.Kind, ctx *Context) *VecProg {
	c := &vecCompiler{kinds: inKinds, ctx: ctx}
	return &VecProg{root: c.node(e)}
}

// CastColumn casts every value of c to kind as Value.Cast does, failing on
// the first value that does not cast.
func CastColumn(c *types.Column, kind types.Kind) (*types.Column, error) {
	if c.Kind() == kind {
		return c, nil
	}
	b := types.NewBuilder(kind, c.Len())
	for j := 0; j < c.Len(); j++ {
		if err := appendAs(b, c.Value(j)); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// appendAs appends v to b, cast to b's kind when it has another.
func appendAs(b *types.Builder, v types.Value) error {
	if !v.Null && v.Kind != b.Kind() {
		var err error
		if v, err = v.Cast(b.Kind()); err != nil {
			return err
		}
	}
	b.Append(v)
	return nil
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

// evalAt evaluates nd over the selection positions pos of sel; the result
// is aligned to pos.
func evalAt(ev *evaluation, nd vecNode, sel, pos []int) *types.Column {
	rows := make([]int, len(pos))
	for k, j := range pos {
		rows[k] = rowAt(sel, j)
	}
	return nd.eval(ev, len(rows), rows)
}

// vecNode evaluates to a column of m rows aligned to the selection.
type vecNode interface {
	kind() types.Kind
	eval(ev *evaluation, m int, sel []int) *types.Column
}

// operand is one input of a kernel: a compiled node, whose payload a
// constant caches so kernels read it as a scalar. raises marks a node that
// can fail on some row.
type operand struct {
	node   vecNode
	raises bool
	konst  bool
	null   bool
	i      int64
	f      float64
	s      string
}

func (o *operand) kind() types.Kind { return o.node.kind() }

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

// The payload readers read a column as Value.AsInt64, AsFloat64 and
// AsString read its values: a kind without that payload reads zero.

func intsOf(c *types.Column) acc[int64] {
	if intPayload(c.Kind()) {
		return acc[int64]{v: c.Int64s()}
	}
	return acc[int64]{}
}

func floatsOf(c *types.Column) acc[float64] {
	switch c.Kind() {
	case types.KindFloat64:
		return acc[float64]{v: c.Float64s()}
	case types.KindInt64:
		// Widen an integer column once per batch, mirroring Value.AsFloat64.
		iv := c.Int64s()
		fv := make([]float64, len(iv))
		for i, x := range iv {
			fv[i] = float64(x)
		}
		return acc[float64]{v: fv}
	}
	return acc[float64]{}
}

func stringsOf(c *types.Column) acc[string] {
	if stringPayload(c.Kind()) {
		return acc[string]{v: c.Strings()}
	}
	return acc[string]{}
}

func (o *operand) intAcc(ev *evaluation, m int, sel []int) (acc[int64], nullmask) {
	if o.konst {
		return acc[int64]{c: o.i}, nullmask{c: o.null}
	}
	col := o.node.eval(ev, m, sel)
	return intsOf(col), nullmask{m: col.NullMask()}
}

func (o *operand) floatAcc(ev *evaluation, m int, sel []int) (acc[float64], nullmask) {
	if o.konst {
		return acc[float64]{c: o.f}, nullmask{c: o.null}
	}
	col := o.node.eval(ev, m, sel)
	return floatsOf(col), nullmask{m: col.NullMask()}
}

func (o *operand) strAcc(ev *evaluation, m int, sel []int) (acc[string], nullmask) {
	if o.konst {
		return acc[string]{c: o.s}, nullmask{c: o.null}
	}
	col := o.node.eval(ev, m, sel)
	return stringsOf(col), nullmask{m: col.NullMask()}
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

func (o *operand) intSel(ev *evaluation, m int, sel []int) (acc[int64], nullmask) {
	if c := o.inPlace(ev.cols); c != nil {
		return acc[int64]{v: c.Int64s(), byRow: true}, nullmask{m: c.NullMask(), byRow: true}
	}
	return o.intAcc(ev, m, sel)
}

func (o *operand) floatSel(ev *evaluation, m int, sel []int) (acc[float64], nullmask) {
	if c := o.inPlace(ev.cols); c != nil && c.Kind() == types.KindFloat64 {
		return acc[float64]{v: c.Float64s(), byRow: true}, nullmask{m: c.NullMask(), byRow: true}
	}
	return o.floatAcc(ev, m, sel) // widens an integer column
}

func (o *operand) strSel(ev *evaluation, m int, sel []int) (acc[string], nullmask) {
	if c := o.inPlace(ev.cols); c != nil {
		return acc[string]{v: c.Strings(), byRow: true}, nullmask{m: c.NullMask(), byRow: true}
	}
	return o.strAcc(ev, m, sel)
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

func (nd *refNode) eval(ev *evaluation, m int, sel []int) *types.Column {
	c := ev.cols[nd.idx]
	if sel == nil {
		return c
	}
	return c.Gather(sel)
}

// selectRows keeps the TRUE rows of a BOOLEAN column, read in place.
func (nd *refNode) selectRows(ev *evaluation, n int, sel, out []int) []int {
	c := ev.cols[nd.idx]
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

func (nd *cmpNode) eval(ev *evaluation, m int, sel []int) *types.Column {
	switch nd.class {
	case classInt:
		l, ln := nd.l.intAcc(ev, m, sel)
		r, rn := nd.r.intAcc(ev, m, sel)
		return cmpKernel(nd.op, true, l, ln, r, rn, m)
	case classFloat:
		l, ln := nd.l.floatAcc(ev, m, sel)
		r, rn := nd.r.floatAcc(ev, m, sel)
		return cmpKernel(nd.op, false, l, ln, r, rn, m)
	default:
		l, ln := nd.l.strAcc(ev, m, sel)
		r, rn := nd.r.strAcc(ev, m, sel)
		return cmpKernel(nd.op, true, l, ln, r, rn, m)
	}
}

// selectRows narrows the selection to the rows where the comparison holds,
// with no boolean column in between.
func (nd *cmpNode) selectRows(ev *evaluation, n int, sel, out []int) []int {
	m := rowsOf(n, sel)
	switch nd.class {
	case classInt:
		l, ln := nd.l.intSel(ev, m, sel)
		r, rn := nd.r.intSel(ev, m, sel)
		return cmpSelect(nd.op, true, l, ln, r, rn, m, sel, out)
	case classFloat:
		l, ln := nd.l.floatSel(ev, m, sel)
		r, rn := nd.r.floatSel(ev, m, sel)
		return cmpSelect(nd.op, false, l, ln, r, rn, m, sel, out)
	default:
		l, ln := nd.l.strSel(ev, m, sel)
		r, rn := nd.r.strSel(ev, m, sel)
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
// Compare orders equal to every value, behaves as in the reference.
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

// arithNode is numeric arithmetic, including the NULL result on division or
// modulo by zero. It computes in BIGINT only when the result and both
// operands are BIGINT, and in DOUBLE otherwise.
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

func (nd *arithNode) eval(ev *evaluation, m int, sel []int) *types.Column {
	if nd.float {
		l, ln := nd.l.floatAcc(ev, m, sel)
		r, rn := nd.r.floatAcc(ev, m, sel)
		return arithFloatKernel(nd.op, l, ln, r, rn, m)
	}
	l, ln := nd.l.intAcc(ev, m, sel)
	r, rn := nd.r.intAcc(ev, m, sel)
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

// andOrNode is Kleene AND/OR; a non-NULL operand is true when its integer
// payload is nonzero. The right side runs eagerly over every row when it
// cannot raise, and otherwise (lazy) only where the left side does not
// decide the result: FALSE for AND, TRUE for OR.
type andOrNode struct {
	isAnd bool
	lazy  bool
	l, r  operand
}

func (nd *andOrNode) kind() types.Kind { return types.KindBool }

func (nd *andOrNode) eval(ev *evaluation, m int, sel []int) *types.Column {
	l, ln := nd.l.intAcc(ev, m, sel)
	var r acc[int64]
	var rn nullmask
	if nd.lazy {
		r, rn = nd.undecided(ev, m, sel, l, ln)
	} else {
		r, rn = nd.r.intAcc(ev, m, sel)
	}
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

// undecided evaluates the right side over the rows the left side leaves
// open and spreads it over all m rows; the rows the left side decides read
// a non-NULL zero, which the kernel never consults.
func (nd *andOrNode) undecided(ev *evaluation, m int, sel []int, l acc[int64], ln nullmask) (acc[int64], nullmask) {
	var pos []int
	for j := 0; j < m; j++ {
		if ln.at(j) || (l.at(j) != 0) == nd.isAnd {
			pos = append(pos, j)
		}
	}
	c := evalAt(ev, nd.r.node, sel, pos)
	vals, nulls := make([]int64, m), make([]bool, m)
	rv := intsOf(c)
	for k, j := range pos {
		vals[j], nulls[j] = rv.at(k), c.IsNull(k)
	}
	return acc[int64]{v: vals}, nullmask{m: nulls}
}

// selectRows narrows the selection through AND/OR without materializing
// either side: AND selects its right side from what its left side kept; OR
// selects its right side from what its left side dropped and merges the two
// back into selection order. Only TRUE survives either way, exactly as
// Kleene logic has it. A lazy AND, whose right side must also run where the
// left side is NULL, and operands of another kind than BOOLEAN, whose truth
// Select does not read, evaluate the node instead.
func (nd *andOrNode) selectRows(ev *evaluation, n int, sel, out []int) []int {
	if (nd.isAnd && nd.lazy) || nd.l.kind() != types.KindBool || nd.r.kind() != types.KindBool {
		return selectByEval(ev, nd, n, sel, out)
	}
	m := rowsOf(n, sel)
	left := selectOperand(ev, &nd.l, n, sel, make([]int, 0, m))
	if nd.isAnd {
		if len(left) == 0 {
			return out // an empty left selection must not read as "all rows"
		}
		return selectOperand(ev, &nd.r, n, left, out)
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
	right := selectOperand(ev, &nd.r, n, rest, make([]int, 0, len(rest)))
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
func selectOperand(ev *evaluation, o *operand, n int, sel, out []int) []int {
	if o.konst {
		if !o.null && o.i != 0 {
			return appendRows(out, n, sel)
		}
		return out
	}
	return selectNode(ev, o.node, n, sel, out)
}

// selector is implemented by BOOLEAN nodes that can narrow a selection
// without producing a boolean column.
type selector interface {
	selectRows(ev *evaluation, n int, sel, out []int) []int
}

// selectNode appends the TRUE rows of a node. Nodes without their own
// selection kernel are evaluated over the selection and scanned; a node of
// another kind than BOOLEAN is evaluated for its errors and selects nothing.
func selectNode(ev *evaluation, nd vecNode, n int, sel, out []int) []int {
	if nd.kind() != types.KindBool {
		nd.eval(ev, rowsOf(n, sel), sel)
		return out
	}
	if s, ok := nd.(selector); ok {
		return s.selectRows(ev, n, sel, out)
	}
	return selectByEval(ev, nd, n, sel, out)
}

func selectByEval(ev *evaluation, nd vecNode, n int, sel, out []int) []int {
	m := rowsOf(n, sel)
	c := nd.eval(ev, m, sel)
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

// constNode is a value fixed for the whole statement: a literal, or a
// constant subtree folded at compile time.
type constNode struct {
	v types.Value
}

func (nd *constNode) kind() types.Kind { return nd.v.Kind }

func (nd *constNode) eval(ev *evaluation, m int, _ []int) *types.Column {
	return types.ConstColumn(nd.v, m)
}

func (nd *constNode) selectRows(_ *evaluation, n int, sel, out []int) []int {
	if nd.v.IsTrue() {
		return appendRows(out, n, sel)
	}
	return out
}

// errNode raises err on every row it is evaluated on: a UDF call outside
// the sandbox, an identity function with no session bound, or a constant
// whose folding raised.
type errNode struct {
	err error
	k   types.Kind
}

func (nd *errNode) kind() types.Kind { return nd.k }

func (nd *errNode) eval(ev *evaluation, m int, _ []int) *types.Column {
	if m == 0 {
		return types.ConstColumn(types.Null(nd.k), 0)
	}
	return ev.fail(nd.err, nd.k, m)
}

// notNode is boolean NOT: TRUE exactly where the operand's integer payload
// is zero.
type notNode struct {
	child vecNode
}

func (nd *notNode) kind() types.Kind { return types.KindBool }

func (nd *notNode) eval(ev *evaluation, m int, sel []int) *types.Column {
	c := nd.child.eval(ev, m, sel)
	in := intsOf(c)
	out := make([]int64, m)
	for i := 0; i < m; i++ {
		if in.at(i) == 0 {
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

func (nd *negNode) eval(ev *evaluation, m int, sel []int) *types.Column {
	c := nd.child.eval(ev, m, sel)
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

func (nd *isNullNode) eval(ev *evaluation, m int, sel []int) *types.Column {
	c := nd.child.eval(ev, m, sel)
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

func (nd *concatNode) eval(ev *evaluation, m int, sel []int) *types.Column {
	l, ln := nd.l.strAcc(ev, m, sel)
	r, rn := nd.r.strAcc(ev, m, sel)
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

// castNode is CAST: Value.Cast of every value, raising the first failure.
type castNode struct {
	child vecNode
	to    types.Kind
}

func (nd *castNode) kind() types.Kind { return nd.to }

func (nd *castNode) eval(ev *evaluation, m int, sel []int) *types.Column {
	c, err := CastColumn(nd.child.eval(ev, m, sel), nd.to)
	if err != nil {
		return ev.fail(fmt.Errorf("eval: %w", err), nd.to, m)
	}
	return c
}

// rowNode evaluates its arguments over the selection, then applies fn to
// each row's boxed argument values: the scalar functions, LIKE, and the
// operators whose operand kinds no kernel reads (an incomparable
// comparison, a negated string), which are NULL or raise. A value of
// another kind than the node's is cast to it. raises marks an fn that can
// fail.
type rowNode struct {
	args   []vecNode
	k      types.Kind
	fn     func(args []types.Value) (types.Value, error)
	raises bool
}

func (nd *rowNode) kind() types.Kind { return nd.k }

func (nd *rowNode) eval(ev *evaluation, m int, sel []int) *types.Column {
	in := make([]*types.Column, len(nd.args))
	for a, arg := range nd.args {
		in[a] = arg.eval(ev, m, sel)
	}
	b := types.NewBuilder(nd.k, m)
	vals := make([]types.Value, len(in))
	for j := 0; j < m; j++ {
		for a, c := range in {
			vals[a] = c.Value(j)
		}
		v, err := nd.fn(vals)
		if err == nil {
			err = appendAs(b, v)
		}
		if err != nil {
			return ev.fail(err, nd.k, m)
		}
	}
	return b.Build()
}

// strictError is an operator on operand kinds it has no meaning for: NULL
// where an operand is NULL, and err everywhere else.
func strictError(k types.Kind, err error, ops ...operand) vecNode {
	args := make([]vecNode, len(ops))
	for i, o := range ops {
		args[i] = o.node
	}
	return &rowNode{args: args, k: k, raises: true, fn: func(vals []types.Value) (types.Value, error) {
		for _, v := range vals {
			if v.Null {
				return types.Null(k), nil
			}
		}
		return types.Value{}, err
	}}
}

// inNode is [NOT] IN. Each list item runs only on the rows still open: a
// non-NULL value that no earlier item matched.
type inNode struct {
	child   vecNode
	items   []vecNode
	negated bool
}

func (nd *inNode) kind() types.Kind { return types.KindBool }

func (nd *inNode) eval(ev *evaluation, m int, sel []int) *types.Column {
	c := nd.child.eval(ev, m, sel)
	out, nulls, sawNull := make([]int64, m), make([]bool, m), make([]bool, m)
	var open []int
	for j := 0; j < m; j++ {
		if c.IsNull(j) {
			nulls[j] = true
		} else {
			open = append(open, j)
		}
	}
	for _, item := range nd.items {
		if len(open) == 0 {
			break
		}
		ic := evalAt(ev, item, sel, open)
		rest := open[:0]
		for k, j := range open {
			switch iv := ic.Value(k); {
			case iv.Null:
				sawNull[j] = true
				rest = append(rest, j)
			case Matches(c.Value(j), iv):
				if !nd.negated {
					out[j] = 1
				}
			default:
				rest = append(rest, j)
			}
		}
		open = rest
	}
	for _, j := range open {
		if sawNull[j] {
			nulls[j] = true
		} else if nd.negated {
			out[j] = 1
		}
	}
	return types.NewInt64Column(types.KindBool, out, nulls)
}

// caseNode is a CASE on row values. Each WHEN runs only on the rows no
// earlier WHEN took, and each branch only on the rows that chose it; rows
// no WHEN takes run the ELSE branch, or are NULL without one.
type caseNode struct {
	whens []caseArm
	els   vecNode
	k     types.Kind
}

type caseArm struct{ cond, then vecNode }

func (nd *caseNode) kind() types.Kind { return nd.k }

func (nd *caseNode) eval(ev *evaluation, m int, sel []int) *types.Column {
	vals := make([]types.Value, m)
	open := make([]int, m)
	for j := range open {
		open[j], vals[j] = j, types.Null(nd.k)
	}
	take := func(branch vecNode, pos []int) {
		c := evalAt(ev, branch, sel, pos)
		for k, j := range pos {
			vals[j] = c.Value(k)
		}
	}
	for _, w := range nd.whens {
		if len(open) == 0 {
			break
		}
		cond := evalAt(ev, w.cond, sel, open)
		var chosen []int
		rest := open[:0]
		for k, j := range open {
			if cond.Value(k).IsTrue() {
				chosen = append(chosen, j)
			} else {
				rest = append(rest, j)
			}
		}
		take(w.then, chosen)
		open = rest
	}
	if nd.els != nil && len(open) > 0 {
		take(nd.els, open)
	}
	b := types.NewBuilder(nd.k, m)
	for _, v := range vals {
		if err := appendAs(b, v); err != nil {
			return ev.fail(err, nd.k, m)
		}
	}
	return b.Build()
}

// vecCompiler compiles one expression. ctx, when set, is the statement
// whose identity the program binds; raises is set once a node compiled
// since it was last cleared can fail on some row.
type vecCompiler struct {
	kinds  []types.Kind
	ctx    *Context
	raises bool
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

// node compiles e. A subtree that is constant for the statement folds: its
// compiled form runs over one row, and the value it yields becomes a
// constant; a subtree whose one-row run raises compiles to a node that
// raises the same error wherever a row reaches it.
func (c *vecCompiler) node(e plan.Expr) vecNode {
	outer := c.raises
	c.raises = false
	nd := c.build(e)
	switch t := nd.(type) {
	case *errNode, *castNode:
		c.raises = true
	case *rowNode:
		c.raises = c.raises || t.raises
	}
	if _, done := nd.(*constNode); !done && c.constant(e) {
		ev := &evaluation{}
		col := nd.eval(ev, 1, nil)
		if c.raises = ev.err != nil; c.raises {
			nd = &errNode{err: ev.err, k: nd.kind()}
		} else {
			nd = &constNode{v: col.Value(0)}
		}
	}
	c.raises = c.raises || outer
	return nd
}

func (c *vecCompiler) nodes(es []plan.Expr) []vecNode {
	out := make([]vecNode, len(es))
	for i, e := range es {
		out[i] = c.node(e)
	}
	return out
}

// operand compiles one side of a binary kernel, caching a constant's
// payload.
func (c *vecCompiler) operand(e plan.Expr) operand {
	outer := c.raises
	c.raises = false
	o := operand{node: c.node(e), raises: c.raises}
	c.raises = c.raises || outer
	if k, ok := o.node.(*constNode); ok {
		o.konst, o.null, o.i, o.f, o.s = true, k.v.Null, k.v.I, k.v.AsFloat64(), k.v.S
	}
	return o
}

// isBool reports whether a constant operand is the non-NULL boolean b.
func (o *operand) isBool(b bool) bool {
	return o.konst && o.kind() == types.KindBool && !o.null && (o.i != 0) == b
}

func (c *vecCompiler) build(e plan.Expr) vecNode {
	switch t := e.(type) {
	case *plan.Literal:
		return &constNode{v: t.Value}

	case *plan.Alias:
		return c.node(t.Child)

	case *plan.BoundRef:
		if t.Index < 0 || t.Index >= len(c.kinds) {
			return &errNode{err: fmt.Errorf("eval: column reference #%d is outside the input's %d columns", t.Index, len(c.kinds)), k: t.Kind}
		}
		return &refNode{idx: t.Index, k: c.kinds[t.Index]}

	case *plan.CurrentUser:
		if c.ctx == nil {
			return &errNode{err: errors.New("eval: CURRENT_USER without session context"), k: types.KindString}
		}
		return &constNode{v: types.String(c.ctx.User)}

	case *plan.GroupMember:
		if c.ctx == nil {
			return &errNode{err: errors.New("eval: IS_ACCOUNT_GROUP_MEMBER without session context"), k: types.KindBool}
		}
		return &constNode{v: types.Bool(c.ctx.IsGroupMember != nil && c.ctx.IsGroupMember(t.Group))}

	case *plan.IsNull:
		return &isNullNode{child: c.node(t.Child), negated: t.Negated}

	case *plan.Unary:
		child := c.node(t.Child)
		if t.Op == plan.OpNot {
			return &notNode{child: child}
		}
		switch k := child.kind(); k {
		case types.KindInt64, types.KindFloat64:
			return &negNode{child: child, k: k}
		default:
			return strictError(t.ResultKind, fmt.Errorf("eval: cannot negate %s", k), operand{node: child})
		}

	case *plan.Binary:
		return c.binary(t)

	case *plan.Case:
		return c.caseNode(t)

	case *plan.InList:
		return &inNode{child: c.node(t.Child), items: c.nodes(t.List), negated: t.Negated}

	case *plan.Like:
		negated := t.Negated
		return &rowNode{args: c.nodes([]plan.Expr{t.Child, t.Pattern}), k: types.KindBool,
			fn: func(v []types.Value) (types.Value, error) { return Like(v[0], v[1], negated), nil }}

	case *plan.Cast:
		return &castNode{child: c.node(t.Child), to: t.To}

	case *plan.ScalarFunc:
		args := c.nodes(t.Args)
		name, kind := t.Name, t.ResultKind
		return &rowNode{args: args, k: kind, raises: true,
			fn: func(v []types.Value) (types.Value, error) { return Scalar(name, v, kind) }}

	case *plan.UDFCall:
		return &errNode{err: ErrUDFInRowEval, k: t.ResultKind}

	case *plan.ColumnRef:
		return &errNode{err: fmt.Errorf("eval: unresolved column %s reached execution", t.String()), k: types.KindNull}
	}
	return &errNode{err: fmt.Errorf("eval: unsupported expression %T", e), k: e.Type()}
}

func (c *vecCompiler) binary(t *plan.Binary) vecNode {
	l, r := c.operand(t.L), c.operand(t.R)
	lk, rk := l.kind(), r.kind()
	switch {
	case t.Op == plan.OpAnd || t.Op == plan.OpOr:
		return andOr(t.Op == plan.OpAnd, l, r)

	case t.Op.IsComparison():
		switch {
		case lk == rk && intPayload(lk):
			return &cmpNode{op: t.Op, class: classInt, l: l, r: r}
		case lk == rk && lk == types.KindFloat64:
			return &cmpNode{op: t.Op, class: classFloat, l: l, r: r}
		case lk == rk && stringPayload(lk):
			return &cmpNode{op: t.Op, class: classString, l: l, r: r}
		case lk.Numeric() && rk.Numeric():
			return &cmpNode{op: t.Op, class: classFloat, l: l, r: r}
		}
		// A NULL-kinded side makes every row NULL; other pairs raise.
		return strictError(types.KindBool, fmt.Errorf("eval: cannot compare %s and %s", lk, rk), l, r)

	case t.Op.IsArithmetic():
		float := t.ResultKind != types.KindInt64 || lk != types.KindInt64 || rk != types.KindInt64
		return &arithNode{op: t.Op, float: float, l: l, r: r}

	case t.Op == plan.OpConcat:
		return &concatNode{l: l, r: r}
	}
	return strictError(t.ResultKind, fmt.Errorf("eval: unsupported operator %s", t.Op), l, r)
}

// andOr builds Kleene AND/OR. A constant arm that decides nothing drops out
// (TRUE AND x = x, x OR FALSE = x). One that decides everything makes the
// whole node constant: always on the left, whose constant value means the
// right side never runs (FALSE AND x = FALSE), and on the right only when
// the left side cannot raise, since skipping it must not skip an error the
// reference would raise (x AND FALSE = FALSE).
func andOr(isAnd bool, l, r operand) vecNode {
	for i, side := range [2]struct{ c, x operand }{{l, r}, {r, l}} {
		switch {
		case side.c.isBool(isAnd) && side.x.kind() == types.KindBool:
			return side.x.node
		case side.c.isBool(!isAnd) && (i == 0 || !side.x.raises):
			return &constNode{v: types.Bool(!isAnd)}
		}
	}
	return &andOrNode{isAnd: isAnd, lazy: r.raises, l: l, r: r}
}

// caseNode compiles a CASE. A WHEN whose condition is constant for the
// statement is decided here: a TRUE one ends the CASE with its branch as
// the ELSE, a FALSE or NULL one drops out. A CASE with no WHEN left is its
// ELSE branch.
func (c *vecCompiler) caseNode(t *plan.Case) vecNode {
	nd := &caseNode{}
	els := t.Else
	for _, w := range t.Whens {
		cond := c.node(w.Cond)
		if k, ok := cond.(*constNode); ok {
			if k.v.IsTrue() {
				els = w.Then
				break
			}
			continue
		}
		nd.whens = append(nd.whens, caseArm{cond: cond, then: c.node(w.Then)})
	}
	if els != nil {
		nd.els = c.node(els)
	}
	switch {
	case len(nd.whens) > 0:
	case nd.els != nil:
		return nd.els
	default:
		return &constNode{v: types.Null(t.ResultKind)}
	}
	nd.k = t.ResultKind
	return nd
}

package udf

import (
	"fmt"

	"lakeguard/internal/types"
)

// Call is one function of a fused set: a bound Func, the batch columns its
// arguments come from, and the kind its result is declared as.
type Call struct {
	Name string
	Func *Func
	// ArgCols holds, per bound parameter, the index of its argument column.
	ArgCols []int
	Result  types.Kind
}

// Set runs a fused set of functions over argument batches: row by row, each
// row calling every function in order on its own reused Frame. The
// sandbox's interpreter loop and the engine's in-process baseline both run
// a Set, so the two sides of Table 2 run one interpreter loop and differ
// only in the boundary.
//
// A Set binds each function's parameters to its argument columns once per
// batch, as typed slots: per row it writes only a slot's payload and NULL
// bit, never a boxed Value. A Set is not safe for concurrent use.
type Set struct {
	calls []setCall
}

type setCall struct {
	name   string
	result types.Kind
	fr     *Frame
	args   []argSlot
}

// argSlot binds one parameter slot to an argument column. A repeated
// parameter name binds one slot to its last argument only, so the later
// argument wins, as Bind resolves it.
type argSlot struct {
	slot, col int
	// Bound per batch from the column.
	kind  types.Kind
	ints  []int64
	flts  []float64
	strs  []string
	nulls []bool
}

// NewSet prepares calls to run with the given capabilities.
func NewSet(calls []Call, caps *Capabilities) *Set {
	s := &Set{calls: make([]setCall, len(calls))}
	for i, c := range calls {
		sc := setCall{name: c.Name, result: c.Result, fr: c.Func.NewFrame(caps)}
		seen := map[int]bool{}
		for p := len(c.ArgCols) - 1; p >= 0; p-- {
			slot := c.Func.params[p]
			if !seen[slot] {
				seen[slot] = true
				sc.args = append(sc.args, argSlot{slot: slot, col: c.ArgCols[p]})
			}
		}
		s.calls[i] = sc
	}
	return s
}

// Run calls every function on rows [0, n) of args and appends function i's
// results to out[i], a builder of its declared result kind. A result of
// another kind is cast as Value.Cast casts it. The first failing call stops
// the run; its error names the function and the row.
func (s *Set) Run(args []*types.Column, n, fuel int, out []*types.Builder) error {
	for i := range s.calls {
		s.calls[i].bind(args)
	}
	for row := 0; row < n; row++ {
		for i := range s.calls {
			c := &s.calls[i]
			v, err := c.call(row, fuel)
			if err != nil {
				return fmt.Errorf("udf %s at row %d: %w", c.name, row, err)
			}
			if !appendResult(out[i], v, c.result) {
				return fmt.Errorf("udf %s at row %d: result %v not a %s", c.name, row, v, c.result)
			}
		}
	}
	return nil
}

// bind points every argument slot at its column and gives each parameter
// the column's kind.
func (c *setCall) bind(args []*types.Column) {
	for i := range c.args {
		a := &c.args[i]
		col := args[a.col]
		a.kind, a.nulls = col.Kind(), col.NullMask()
		a.ints, a.flts, a.strs = col.Int64s(), col.Float64s(), col.Strings()
		c.fr.slots[a.slot] = value{Kind: a.kind, Null: a.kind == types.KindNull}
	}
}

// call runs the function on one row of the bound columns.
func (c *setCall) call(row, fuel int) (value, error) {
	fr := c.fr
	for i := range c.args {
		a := &c.args[i]
		v := &fr.slots[a.slot]
		if fr.defined[a.slot] {
			// The last call reassigned the parameter: restore its kind.
			*v = value{Kind: a.kind}
		}
		null := a.kind == types.KindNull || (a.nulls != nil && a.nulls[row])
		v.Null = null
		switch {
		case a.ints != nil:
			v.I = 0
			if !null {
				v.I = a.ints[row]
			}
		case a.flts != nil:
			v.F = 0
			if !null {
				v.F = a.flts[row]
			}
		case a.strs != nil:
			v.S = ""
			if !null {
				v.S = a.strs[row]
			}
		}
	}
	return fr.Call(fuel)
}

// appendResult appends v to b as kind, reporting false when v does not
// cast to it.
func appendResult(b *types.Builder, v value, kind types.Kind) bool {
	switch {
	case v.Null:
		b.AppendNull()
		return true
	case v.Kind != kind:
		cast, err := v.Cast(kind)
		if err != nil {
			return false
		}
		v = cast
	}
	switch kind {
	case types.KindBool, types.KindInt64, types.KindDate, types.KindTimestamp:
		b.AppendInt64(v.I)
	case types.KindFloat64:
		b.AppendFloat64(v.F)
	case types.KindString, types.KindBinary:
		b.AppendString(v.S)
	default:
		b.Append(v)
	}
	return true
}

package udf

import (
	"errors"
	"fmt"
	"sort"

	"lakeguard/internal/types"
)

// The reference tree-walker: PyLite's original interpreter, kept only as the
// oracle the compiled closures are checked against. It resolves names in a
// map environment per call, implements `return` as an error, and charges one
// fuel step per statement, per expression node and per `while` re-check.
// It shares the operator and builtin implementations with the compiler, so
// differences it finds are in name resolution, control flow, the implicit
// result or fuel accounting.

type oracleInterp struct {
	vars map[string]value
	caps *Capabilities
	fuel int
}

type returnSignal struct{ val value }

func (r returnSignal) Error() string { return "return" }

// oracleCall runs p under the tree-walker; it also returns the fuel left.
func oracleCall(p *Program, args map[string]value, caps *Capabilities, fuel int) (value, int, error) {
	in := &oracleInterp{vars: make(map[string]value, len(args)+4), caps: caps, fuel: fuel}
	for k, v := range args {
		in.vars[k] = v
	}
	last := value{}
	hasLast := false
	for _, s := range p.body {
		v, isExpr, err := in.exec(s)
		var ret returnSignal
		if errors.As(err, &ret) {
			return ret.val, in.fuel, nil
		}
		if err != nil {
			return value{}, in.fuel, err
		}
		if isExpr {
			last, hasLast = v, true
		}
	}
	if hasLast {
		return last, in.fuel, nil
	}
	return value{}, in.fuel, ErrNoReturn
}

func (in *oracleInterp) step() error {
	in.fuel--
	if in.fuel < 0 {
		return ErrFuelExhausted
	}
	return nil
}

// exec runs one statement. The bool reports whether the statement was a bare
// expression (its value may become the implicit result).
func (in *oracleInterp) exec(s stmt) (value, bool, error) {
	if err := in.step(); err != nil {
		return value{}, false, err
	}
	switch t := s.(type) {
	case assignStmt:
		v, err := in.eval(t.expr)
		if err != nil {
			return value{}, false, err
		}
		in.vars[t.name] = v
		return value{}, false, nil
	case returnStmt:
		v, err := in.eval(t.expr)
		if err != nil {
			return value{}, false, err
		}
		return value{}, false, returnSignal{val: v}
	case exprStmt:
		v, err := in.eval(t.expr)
		return v, true, err
	case ifStmt:
		c, err := in.eval(t.cond)
		if err != nil {
			return value{}, false, err
		}
		body := t.then
		if !truthy(c) {
			body = t.els
		}
		return in.execBlock(body)
	case forStmt:
		n, err := in.eval(t.count)
		if err != nil {
			return value{}, false, err
		}
		count := n.I
		if n.Kind == types.KindFloat64 {
			count = int64(n.F)
		}
		var last value
		isLast := false
		for i := int64(0); i < count; i++ {
			in.vars[t.varName] = intVal(i)
			v, isExpr, err := in.execBlock(t.body)
			if err != nil {
				return value{}, false, err
			}
			if isExpr {
				last, isLast = v, true
			}
		}
		return last, isLast, nil
	case whileStmt:
		var last value
		isLast := false
		for {
			if err := in.step(); err != nil {
				return value{}, false, err
			}
			c, err := in.eval(t.cond)
			if err != nil {
				return value{}, false, err
			}
			if !truthy(c) {
				return last, isLast, nil
			}
			v, isExpr, err := in.execBlock(t.body)
			if err != nil {
				return value{}, false, err
			}
			if isExpr {
				last, isLast = v, true
			}
		}
	}
	return value{}, false, fmt.Errorf("pylite: unknown statement %T", s)
}

func (in *oracleInterp) execBlock(body []stmt) (value, bool, error) {
	var last value
	isLast := false
	for _, s := range body {
		v, isExpr, err := in.exec(s)
		if err != nil {
			return value{}, false, err
		}
		if isExpr {
			last, isLast = v, true
		}
	}
	return last, isLast, nil
}

func (in *oracleInterp) eval(n node) (value, error) {
	if err := in.step(); err != nil {
		return value{}, err
	}
	switch t := n.(type) {
	case litNode:
		return t.val, nil
	case nameNode:
		v, ok := in.vars[t.name]
		if !ok {
			return value{}, fmt.Errorf("pylite: name %q is not defined", t.name)
		}
		return v, nil
	case unNode:
		c, err := in.eval(t.child)
		if err != nil {
			return value{}, err
		}
		switch t.op {
		case "not":
			return boolVal(!truthy(c)), nil
		case "-":
			return negate(c)
		}
	case condNode:
		c, err := in.eval(t.cond)
		if err != nil {
			return value{}, err
		}
		if truthy(c) {
			return in.eval(t.then)
		}
		return in.eval(t.els)
	case binNode:
		return in.evalBin(t)
	case callNode:
		return in.evalCall(t)
	}
	return value{}, fmt.Errorf("pylite: unknown expression %T", n)
}

func (in *oracleInterp) evalBin(t binNode) (value, error) {
	// Short-circuit logic.
	if t.op == "and" || t.op == "or" {
		l, err := in.eval(t.l)
		if err != nil {
			return value{}, err
		}
		if t.op == "and" && !truthy(l) {
			return l, nil
		}
		if t.op == "or" && truthy(l) {
			return l, nil
		}
		return in.eval(t.r)
	}
	l, err := in.eval(t.l)
	if err != nil {
		return value{}, err
	}
	r, err := in.eval(t.r)
	if err != nil {
		return value{}, err
	}
	if op, ok := binOps[t.op]; ok {
		return op(l, r)
	}
	return value{}, fmt.Errorf("pylite: unknown operator %q", t.op)
}

func (in *oracleInterp) evalCall(t callNode) (value, error) {
	args := make([]value, len(t.args))
	for i, a := range t.args {
		v, err := in.eval(a)
		if err != nil {
			return value{}, err
		}
		args[i] = v
	}
	fn, ok := builtins[t.fn]
	if !ok {
		return value{}, fmt.Errorf("pylite: unknown function %q", t.fn)
	}
	if err := fn.arityError(t.fn, len(args)); err != nil {
		return value{}, err
	}
	return fn.fn(args, in.caps)
}

// Call and CallFuel run the compiled program once with named arguments, the
// way the package's tests drive it.
func (p *Program) Call(args map[string]value, caps *Capabilities) (value, error) {
	return p.CallFuel(args, caps, DefaultFuel)
}

func (p *Program) CallFuel(args map[string]value, caps *Capabilities, fuel int) (value, error) {
	v, _, err := compiledCall(p, args, caps, fuel)
	return v, err
}

// compiledCall binds p to the argument names (sorted, so runs repeat) and
// calls it once through a Set, each argument a one-row column of its
// value's kind; it also returns the fuel left.
func compiledCall(p *Program, args map[string]value, caps *Capabilities, fuel int) (value, int, error) {
	names := make([]string, 0, len(args))
	for k := range args {
		names = append(names, k)
	}
	sort.Strings(names)
	cols := make([]*types.Column, len(names))
	for i, k := range names {
		cols[i] = types.ColumnFromValues(args[k].Kind, []value{args[k]})
	}
	c := setOf(p, names, caps)
	c.bind(cols)
	v, err := c.call(0, fuel)
	return v, c.fr.fuel, err
}

// setOf binds p to names, reading argument i from column i, and returns
// the Set's one call.
func setOf(p *Program, names []string, caps *Capabilities) *setCall {
	argCols := make([]int, len(names))
	for i := range argCols {
		argCols[i] = i
	}
	s := NewSet([]Call{{Name: "f", Func: p.Bind(names), ArgCols: argCols, Result: types.KindString}}, caps)
	return &s.calls[0]
}

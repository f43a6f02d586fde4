package udf

import (
	"fmt"

	"lakeguard/internal/types"
)

// A Program binds to its parameter names once, producing a Func: a tree of
// Go closures in which every variable is a slot of a flat frame. Running a
// Func walks no AST, looks up no name and allocates nothing for numeric
// code; one Frame serves every row of a batch.
//
// Fuel is charged exactly where a tree-walking interpreter would charge it:
// one step on entry to every statement and every expression node, in
// evaluation order, plus one per `while` condition re-check. Exhaustion
// therefore lands on the same step, with the same error, as the reference
// tree-walker kept in the package's tests.

// exprFn evaluates one expression node.
type exprFn func(fr *Frame) (value, error)

// stmtFn runs one statement; returned reports that a `return` executed (its
// value is in fr.ret). Control flow is a flag, never an error.
type stmtFn func(fr *Frame) (returned bool, err error)

// Func is a Program bound to parameter names. It is immutable and may be
// shared; each concurrent caller needs its own Frame.
type Func struct {
	body []stmtFn
	// params holds the frame slot of each bound parameter, in Bind order.
	params []int
	// nslots counts variable slots plus builtin-argument scratch slots.
	nslots int
}

// Frame is one reusable activation record of a Func: parameters, locals
// and builtin arguments live in slots, so a call allocates nothing itself.
type Frame struct {
	fn    *Func
	slots []value
	// defined marks the slots assigned during the current call; reading a
	// local before its assignment is PyLite's "name is not defined".
	defined []bool
	caps    *Capabilities
	fuel    int
	ret     value
	// last is the value of the most recent bare expression statement, the
	// implicit result when no `return` executes.
	last    value
	hasLast bool
}

// Bind compiles the program for a caller that passes arguments under the
// given names. A name repeated in argNames binds one slot, so the later
// argument wins.
func (p *Program) Bind(argNames []string) *Func {
	b := &binder{slots: map[string]int{}}
	f := &Func{params: make([]int, len(argNames))}
	for i, name := range argNames {
		f.params[i] = b.slot(name)
	}
	b.nparams = len(b.slots)
	b.declare(p.body)
	b.scratch = len(b.slots)
	f.body = b.block(p.body)
	f.nslots = b.scratch
	return f
}

// NewFrame returns a frame for calls with the given capabilities.
func (f *Func) NewFrame(caps *Capabilities) *Frame {
	return &Frame{fn: f, slots: make([]value, f.nslots), defined: make([]bool, f.nslots), caps: caps}
}

// SetArg sets the i-th bound parameter for the next call.
func (fr *Frame) SetArg(i int, v value) { fr.slots[fr.fn.params[i]] = v }

// Call runs the function on the current arguments within a budget of fuel
// steps. The result is the value of the first `return`, or the value of the
// last bare expression statement if no return executes.
func (fr *Frame) Call(fuel int) (value, error) {
	fr.fuel = fuel
	fr.hasLast = false
	clear(fr.defined)
	returned, err := runBlock(fr, fr.fn.body)
	switch {
	case err != nil:
		return value{}, err
	case returned:
		return fr.ret, nil
	case fr.hasLast:
		return fr.last, nil
	}
	return value{}, ErrNoReturn
}

// spent charges one step and reports whether the budget is exhausted.
func (fr *Frame) spent() bool {
	fr.fuel--
	return fr.fuel < 0
}

func runBlock(fr *Frame, body []stmtFn) (bool, error) {
	for _, s := range body {
		if returned, err := s(fr); returned || err != nil {
			return returned, err
		}
	}
	return false, nil
}

// binder resolves names to slots while it builds closures. Parameters
// take the first nparams slots.
type binder struct {
	slots   map[string]int
	nparams int
	// scratch is the next free builtin-argument slot; they follow the
	// variable slots.
	scratch int
}

func (b *binder) slot(name string) int {
	s, ok := b.slots[name]
	if !ok {
		s = len(b.slots)
		b.slots[name] = s
	}
	return s
}

// declare gives every assignment target and loop variable a slot, so a
// name read anywhere resolves to the slot any statement writes.
func (b *binder) declare(body []stmt) {
	for _, s := range body {
		switch t := s.(type) {
		case assignStmt:
			b.slot(t.name)
		case ifStmt:
			b.declare(t.then)
			b.declare(t.els)
		case forStmt:
			b.slot(t.varName)
			b.declare(t.body)
		case whileStmt:
			b.declare(t.body)
		}
	}
}

func (b *binder) block(body []stmt) []stmtFn {
	out := make([]stmtFn, len(body))
	for i, s := range body {
		out[i] = b.stmt(s)
	}
	return out
}

func (b *binder) stmt(s stmt) stmtFn {
	switch t := s.(type) {
	case assignStmt:
		e, slot := b.expr(t.expr), b.slots[t.name]
		return func(fr *Frame) (bool, error) {
			if fr.spent() {
				return false, ErrFuelExhausted
			}
			v, err := e(fr)
			if err != nil {
				return false, err
			}
			fr.slots[slot], fr.defined[slot] = v, true
			return false, nil
		}
	case returnStmt:
		e := b.expr(t.expr)
		return func(fr *Frame) (bool, error) {
			if fr.spent() {
				return false, ErrFuelExhausted
			}
			v, err := e(fr)
			if err != nil {
				return false, err
			}
			fr.ret = v
			return true, nil
		}
	case exprStmt:
		e := b.expr(t.expr)
		return func(fr *Frame) (bool, error) {
			if fr.spent() {
				return false, ErrFuelExhausted
			}
			v, err := e(fr)
			if err != nil {
				return false, err
			}
			fr.last, fr.hasLast = v, true
			return false, nil
		}
	case ifStmt:
		cond, then, els := b.expr(t.cond), b.block(t.then), b.block(t.els)
		return func(fr *Frame) (bool, error) {
			if fr.spent() {
				return false, ErrFuelExhausted
			}
			c, err := cond(fr)
			if err != nil {
				return false, err
			}
			if truthy(c) {
				return runBlock(fr, then)
			}
			return runBlock(fr, els)
		}
	case forStmt:
		count, slot, body := b.expr(t.count), b.slots[t.varName], b.block(t.body)
		return func(fr *Frame) (bool, error) {
			if fr.spent() {
				return false, ErrFuelExhausted
			}
			n, err := count(fr)
			if err != nil {
				return false, err
			}
			limit := n.I
			if n.Kind == types.KindFloat64 {
				limit = int64(n.F)
			}
			for i := int64(0); i < limit; i++ {
				fr.slots[slot], fr.defined[slot] = intVal(i), true
				if returned, err := runBlock(fr, body); returned || err != nil {
					return returned, err
				}
			}
			return false, nil
		}
	case whileStmt:
		cond, body := b.expr(t.cond), b.block(t.body)
		return func(fr *Frame) (bool, error) {
			if fr.spent() {
				return false, ErrFuelExhausted
			}
			for {
				if fr.spent() {
					return false, ErrFuelExhausted
				}
				c, err := cond(fr)
				if err != nil {
					return false, err
				}
				if !truthy(c) {
					return false, nil
				}
				if returned, err := runBlock(fr, body); returned || err != nil {
					return returned, err
				}
			}
		}
	}
	panic(fmt.Sprintf("pylite: parser produced unknown statement %T", s))
}

func (b *binder) expr(n node) exprFn {
	switch t := n.(type) {
	case litNode:
		v := t.val
		return func(fr *Frame) (value, error) {
			if fr.spent() {
				return value{}, ErrFuelExhausted
			}
			return v, nil
		}
	case nameNode:
		return b.name(t.name)
	case unNode:
		child := b.expr(t.child)
		op := negate
		if t.op == "not" {
			op = func(c value) (value, error) { return boolVal(!truthy(c)), nil }
		}
		return func(fr *Frame) (value, error) {
			if fr.spent() {
				return value{}, ErrFuelExhausted
			}
			c, err := child(fr)
			if err != nil {
				return value{}, err
			}
			return op(c)
		}
	case condNode:
		cond, then, els := b.expr(t.cond), b.expr(t.then), b.expr(t.els)
		return func(fr *Frame) (value, error) {
			if fr.spent() {
				return value{}, ErrFuelExhausted
			}
			c, err := cond(fr)
			if err != nil {
				return value{}, err
			}
			if truthy(c) {
				return then(fr)
			}
			return els(fr)
		}
	case binNode:
		return b.binary(t)
	case callNode:
		return b.call(t)
	}
	panic(fmt.Sprintf("pylite: parser produced unknown expression %T", n))
}

func (b *binder) name(name string) exprFn {
	slot, bound := b.slots[name]
	if bound && slot < b.nparams {
		return func(fr *Frame) (value, error) {
			if fr.spent() {
				return value{}, ErrFuelExhausted
			}
			return fr.slots[slot], nil
		}
	}
	// A local is defined once assigned in this call; a name nothing binds
	// never is.
	err := fmt.Errorf("pylite: name %q is not defined", name)
	return func(fr *Frame) (value, error) {
		if fr.spent() {
			return value{}, ErrFuelExhausted
		}
		if !bound || !fr.defined[slot] {
			return value{}, err
		}
		return fr.slots[slot], nil
	}
}

// Integer fast paths of binary operators; each computes what its binOps
// entry computes for two non-NULL BIGINT operands.
const (
	intNone = iota
	intAdd
	intSub
	intMul
	intEq
	intNe
	intLt
	intLe
	intGt
	intGe
)

var intCodes = map[string]int{
	"+": intAdd, "-": intSub, "*": intMul,
	"==": intEq, "!=": intNe, "<": intLt, "<=": intLe, ">": intGt, ">=": intGe,
}

func (b *binder) binary(t binNode) exprFn {
	l, r := b.expr(t.l), b.expr(t.r)
	if t.op == "and" || t.op == "or" {
		// The left operand decides: `and` stops on falsy, `or` on truthy.
		stopOn := t.op == "or"
		return func(fr *Frame) (value, error) {
			if fr.spent() {
				return value{}, ErrFuelExhausted
			}
			x, err := l(fr)
			if err != nil {
				return value{}, err
			}
			if truthy(x) == stopOn {
				return x, nil
			}
			return r(fr)
		}
	}
	op, ok := binOps[t.op]
	if !ok {
		panic(fmt.Sprintf("pylite: parser produced unknown operator %q", t.op))
	}
	code := intCodes[t.op]
	return func(fr *Frame) (value, error) {
		if fr.spent() {
			return value{}, ErrFuelExhausted
		}
		x, err := l(fr)
		if err != nil {
			return value{}, err
		}
		y, err := r(fr)
		if err != nil {
			return value{}, err
		}
		if x.Kind == types.KindInt64 && y.Kind == types.KindInt64 && !x.Null && !y.Null {
			switch code {
			case intAdd:
				return intVal(x.I + y.I), nil
			case intSub:
				return intVal(x.I - y.I), nil
			case intMul:
				return intVal(x.I * y.I), nil
			case intEq:
				return boolVal(x.I == y.I), nil
			case intNe:
				return boolVal(x.I != y.I), nil
			case intLt:
				return boolVal(x.I < y.I), nil
			case intLe:
				return boolVal(x.I <= y.I), nil
			case intGt:
				return boolVal(x.I > y.I), nil
			case intGe:
				return boolVal(x.I >= y.I), nil
			}
		}
		return op(x, y)
	}
}

// call evaluates the arguments into scratch slots reserved for this call
// site (PyLite has no recursion, so a site is never re-entered while its
// arguments are live), then runs the builtin over that window of the frame.
// Unknown functions and wrong arity still evaluate every argument first.
func (b *binder) call(t callNode) exprFn {
	args := make([]exprFn, len(t.args))
	for i, a := range t.args {
		args[i] = b.expr(a)
	}
	base := b.scratch
	b.scratch += len(args)
	fn, ok := builtins[t.fn]
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("pylite: unknown function %q", t.fn)
	default:
		err = fn.arityError(t.fn, len(args))
	}
	return func(fr *Frame) (value, error) {
		if fr.spent() {
			return value{}, ErrFuelExhausted
		}
		window := fr.slots[base : base+len(args)]
		for i, a := range args {
			v, aerr := a(fr)
			if aerr != nil {
				return value{}, aerr
			}
			window[i] = v
		}
		if err != nil {
			return value{}, err
		}
		return fn.fn(window, fr.caps)
	}
}

package udf

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"lakeguard/internal/types"
)

// value is PyLite's runtime value; it reuses the engine's tagged-union
// scalar so results cross the sandbox boundary without conversion.
type value = types.Value

func intVal(i int64) value     { return types.Int64(i) }
func floatVal(f float64) value { return types.Float64(f) }
func strVal(s string) value    { return types.String(s) }
func boolVal(b bool) value     { return types.Bool(b) }

// Capabilities is the authority a sandbox grants to user code. A nil
// function means the capability is denied. This is the object-capability
// boundary: PyLite has no ambient access to anything not listed here.
type Capabilities struct {
	// HTTPGet performs an outbound request, if egress is permitted.
	HTTPGet func(url string) (string, error)
}

// Errors.
var (
	ErrFuelExhausted = errors.New("pylite: execution budget exhausted")
	ErrNoReturn      = errors.New("pylite: function did not return a value")
	ErrEgressDenied  = errors.New("pylite: network egress denied by sandbox policy")
	ErrStringTooLong = fmt.Errorf("pylite: string exceeds the %d-byte limit", MaxStringBytes)
)

// DefaultFuel bounds interpreter steps per invocation.
const DefaultFuel = 1_000_000

// MaxStringBytes bounds the size of any string PyLite code builds. Fuel
// counts steps, not bytes: without this bound a single `'a' * 10**12` step
// asks the Go runtime for a terabyte, and the runtime's out-of-memory is a
// fatal throw that no recover can contain. Every operation that can grow a
// string checks the size it would produce before allocating it.
const MaxStringBytes = 16 << 20

// checkSize refuses a string result of n bytes over MaxStringBytes.
func checkSize(n int) error {
	if n > MaxStringBytes {
		return fmt.Errorf("%w (result would be %d bytes)", ErrStringTooLong, n)
	}
	return nil
}

func truthy(v value) bool {
	if v.Null {
		return false
	}
	switch v.Kind {
	case types.KindBool, types.KindInt64:
		return v.I != 0
	case types.KindFloat64:
		return v.F != 0
	case types.KindString, types.KindBinary:
		return v.S != ""
	}
	return false
}

// binOps are PyLite's eager binary operators (and/or short-circuit and are
// compiled separately). Both operands are evaluated before the operator runs.
var binOps = map[string]func(l, r value) (value, error){
	"+":  opAdd,
	"-":  opSub,
	"*":  opMul,
	"/":  opDiv,
	"//": opFloorDiv,
	"%":  opMod,
	"==": func(l, r value) (value, error) { return compareOp("==", l, r) },
	"!=": func(l, r value) (value, error) { return compareOp("!=", l, r) },
	"<":  func(l, r value) (value, error) { return compareOp("<", l, r) },
	"<=": func(l, r value) (value, error) { return compareOp("<=", l, r) },
	">":  func(l, r value) (value, error) { return compareOp(">", l, r) },
	">=": func(l, r value) (value, error) { return compareOp(">=", l, r) },
}

func opAdd(l, r value) (value, error) {
	if l.Kind == types.KindString || r.Kind == types.KindString {
		ls, rs := toStr(l), toStr(r)
		if err := checkSize(len(ls) + len(rs)); err != nil {
			return value{}, err
		}
		return strVal(ls + rs), nil
	}
	return arith(l, r, func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b })
}

func opSub(l, r value) (value, error) {
	return arith(l, r, func(a, b int64) int64 { return a - b }, func(a, b float64) float64 { return a - b })
}

func opMul(l, r value) (value, error) {
	if l.Kind == types.KindString && r.Kind == types.KindInt64 {
		n := max(0, r.I)
		if n > 0 && int64(len(l.S)) > MaxStringBytes/n {
			return value{}, fmt.Errorf("%w (%d bytes repeated %d times)", ErrStringTooLong, len(l.S), n)
		}
		return strVal(strings.Repeat(l.S, int(n))), nil
	}
	return arith(l, r, func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b })
}

func opDiv(l, r value) (value, error) {
	lf, rf := toFloat(l), toFloat(r)
	if rf == 0 {
		return value{}, errors.New("pylite: division by zero")
	}
	return floatVal(lf / rf), nil
}

func opFloorDiv(l, r value) (value, error) {
	if l.Kind == types.KindInt64 && r.Kind == types.KindInt64 {
		if r.I == 0 {
			return value{}, errors.New("pylite: division by zero")
		}
		return intVal(floorDiv(l.I, r.I)), nil
	}
	rf := toFloat(r)
	if rf == 0 {
		return value{}, errors.New("pylite: division by zero")
	}
	return floatVal(math.Floor(toFloat(l) / rf)), nil
}

func opMod(l, r value) (value, error) {
	if l.Kind == types.KindInt64 && r.Kind == types.KindInt64 {
		if r.I == 0 {
			return value{}, errors.New("pylite: modulo by zero")
		}
		return intVal(pyMod(l.I, r.I)), nil
	}
	rf := toFloat(r)
	if rf == 0 {
		return value{}, errors.New("pylite: modulo by zero")
	}
	return floatVal(math.Mod(toFloat(l), rf)), nil
}

func compareOp(op string, l, r value) (value, error) {
	cmp, ok := compareVals(l, r)
	if !ok {
		switch op {
		case "==":
			return boolVal(false), nil
		case "!=":
			return boolVal(true), nil
		}
		return value{}, fmt.Errorf("pylite: cannot compare %s and %s", l.Kind, r.Kind)
	}
	switch op {
	case "==":
		return boolVal(cmp == 0), nil
	case "!=":
		return boolVal(cmp != 0), nil
	case "<":
		return boolVal(cmp < 0), nil
	case "<=":
		return boolVal(cmp <= 0), nil
	case ">":
		return boolVal(cmp > 0), nil
	}
	return boolVal(cmp >= 0), nil
}

func compareVals(l, r value) (int, bool) {
	if l.Null || r.Null {
		if l.Null && r.Null {
			return 0, true
		}
		return 0, false
	}
	return l.Compare(r)
}

func arith(l, r value, fi func(a, b int64) int64, ff func(a, b float64) float64) (value, error) {
	if l.Kind == types.KindInt64 && r.Kind == types.KindInt64 {
		return intVal(fi(l.I, r.I)), nil
	}
	if l.Kind.Numeric() && r.Kind.Numeric() || l.Kind == types.KindBool || r.Kind == types.KindBool {
		return floatVal(ff(toFloat(l), toFloat(r))), nil
	}
	return value{}, fmt.Errorf("pylite: unsupported operands %s and %s", l.Kind, r.Kind)
}

// negate is unary minus.
func negate(c value) (value, error) {
	switch c.Kind {
	case types.KindInt64:
		return intVal(-c.I), nil
	case types.KindFloat64:
		return floatVal(-c.F), nil
	}
	return value{}, fmt.Errorf("pylite: cannot negate %s", c.Kind)
}

func toFloat(v value) float64 {
	switch v.Kind {
	case types.KindInt64, types.KindBool:
		return float64(v.I)
	case types.KindFloat64:
		return v.F
	}
	return 0
}

func toStr(v value) string {
	if v.Null {
		return "None"
	}
	switch v.Kind {
	case types.KindString, types.KindBinary:
		return v.S
	case types.KindBool:
		if v.I != 0 {
			return "True"
		}
		return "False"
	}
	return v.String()
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func pyMod(a, b int64) int64 {
	m := a % b
	if m != 0 && ((a < 0) != (b < 0)) {
		m += b
	}
	return m
}

// builtin is one PyLite library function. Its arguments are evaluated into
// the caller's frame before it runs; it allocates at most its result.
type builtin struct {
	// arity is the exact argument count; 0 means two or more (min, max).
	arity int
	fn    func(args []value, caps *Capabilities) (value, error)
}

// arityError is the error a call with n arguments raises, or nil.
func (b builtin) arityError(name string, n int) error {
	switch {
	case b.arity == 0 && n < 2:
		return fmt.Errorf("pylite: %s requires at least 2 arguments", name)
	case b.arity != 0 && n != b.arity:
		return fmt.Errorf("pylite: %s expects %d arguments, got %d", name, b.arity, n)
	}
	return nil
}

var builtins = map[string]builtin{
	"sha256": {1, builtinSha256},
	"len": {1, func(a []value, _ *Capabilities) (value, error) {
		return intVal(int64(len(toStr(a[0])))), nil
	}},
	"upper": {1, func(a []value, _ *Capabilities) (value, error) {
		return sizedStr(strings.ToUpper(toStr(a[0])))
	}},
	"lower": {1, func(a []value, _ *Capabilities) (value, error) {
		return sizedStr(strings.ToLower(toStr(a[0])))
	}},
	"substr": {3, func(a []value, _ *Capabilities) (value, error) {
		s := toStr(a[0])
		hi := clampIndex(a[2].I, len(s))
		return strVal(s[min(clampIndex(a[1].I, len(s)), hi):hi]), nil
	}},
	"str": {1, func(a []value, _ *Capabilities) (value, error) { return strVal(toStr(a[0])), nil }},
	"int": {1, func(a []value, _ *Capabilities) (value, error) {
		switch a[0].Kind {
		case types.KindFloat64:
			return intVal(int64(a[0].F)), nil
		case types.KindInt64, types.KindBool:
			return intVal(a[0].I), nil
		case types.KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(a[0].S), 10, 64)
			if err != nil {
				return value{}, fmt.Errorf("pylite: int(%q): invalid literal", a[0].S)
			}
			return intVal(i), nil
		}
		return value{}, fmt.Errorf("pylite: cannot int() a %s", a[0].Kind)
	}},
	"float": {1, func(a []value, _ *Capabilities) (value, error) {
		switch a[0].Kind {
		case types.KindFloat64:
			return a[0], nil
		case types.KindInt64, types.KindBool:
			return floatVal(float64(a[0].I)), nil
		case types.KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(a[0].S), 64)
			if err != nil {
				return value{}, fmt.Errorf("pylite: float(%q): invalid literal", a[0].S)
			}
			return floatVal(f), nil
		}
		return value{}, fmt.Errorf("pylite: cannot float() a %s", a[0].Kind)
	}},
	"abs": {1, func(a []value, _ *Capabilities) (value, error) {
		switch a[0].Kind {
		case types.KindInt64:
			if a[0].I < 0 {
				return intVal(-a[0].I), nil
			}
			return a[0], nil
		case types.KindFloat64:
			return floatVal(math.Abs(a[0].F)), nil
		}
		return value{}, fmt.Errorf("pylite: cannot abs() a %s", a[0].Kind)
	}},
	"min": {0, func(a []value, _ *Capabilities) (value, error) { return extreme(a, -1) }},
	"max": {0, func(a []value, _ *Capabilities) (value, error) { return extreme(a, 1) }},
	"round": {1, func(a []value, _ *Capabilities) (value, error) {
		return floatVal(math.Round(toFloat(a[0]))), nil
	}},
	"sqrt": {1, func(a []value, _ *Capabilities) (value, error) {
		f := toFloat(a[0])
		if f < 0 {
			return value{}, errors.New("pylite: sqrt of negative")
		}
		return floatVal(math.Sqrt(f)), nil
	}},
	"http_get": {1, func(a []value, caps *Capabilities) (value, error) {
		if caps == nil || caps.HTTPGet == nil {
			return value{}, ErrEgressDenied
		}
		body, err := caps.HTTPGet(toStr(a[0]))
		if err != nil {
			return value{}, fmt.Errorf("pylite: http_get: %w", err)
		}
		return strVal(body), nil
	}},
	"is_null": {1, func(a []value, _ *Capabilities) (value, error) { return boolVal(a[0].Null), nil }},
	"startswith": {2, func(a []value, _ *Capabilities) (value, error) {
		return boolVal(strings.HasPrefix(toStr(a[0]), toStr(a[1]))), nil
	}},
	"endswith": {2, func(a []value, _ *Capabilities) (value, error) {
		return boolVal(strings.HasSuffix(toStr(a[0]), toStr(a[1]))), nil
	}},
	"contains": {2, func(a []value, _ *Capabilities) (value, error) {
		return boolVal(strings.Contains(toStr(a[0]), toStr(a[1]))), nil
	}},
	"find": {2, func(a []value, _ *Capabilities) (value, error) {
		return intVal(int64(strings.Index(toStr(a[0]), toStr(a[1])))), nil
	}},
	"replace": {3, func(a []value, _ *Capabilities) (value, error) {
		s, old, repl := toStr(a[0]), toStr(a[1]), toStr(a[2])
		if grow := len(repl) - len(old); grow > 0 {
			// Counting is bounded by len(s); the product is checked before
			// ReplaceAll allocates it.
			if n := strings.Count(s, old); n > 0 && n > (MaxStringBytes-len(s))/grow {
				return value{}, fmt.Errorf("%w (replace would add %d×%d bytes)", ErrStringTooLong, n, grow)
			}
		}
		return strVal(strings.ReplaceAll(s, old, repl)), nil
	}},
	"strip": {1, func(a []value, _ *Capabilities) (value, error) { return strVal(strings.TrimSpace(toStr(a[0]))), nil }},
	"reversed": {1, func(a []value, _ *Capabilities) (value, error) {
		b := []byte(toStr(a[0]))
		for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
		return strVal(string(b)), nil
	}},
	"ord": {1, func(a []value, _ *Capabilities) (value, error) {
		s := toStr(a[0])
		if len(s) == 0 {
			return value{}, errors.New("pylite: ord of empty string")
		}
		return intVal(int64(s[0])), nil
	}},
	"chr": {1, func(a []value, _ *Capabilities) (value, error) { return strVal(string(rune(a[0].I))), nil }},
	"pow": {2, func(a []value, _ *Capabilities) (value, error) {
		return floatVal(math.Pow(toFloat(a[0]), toFloat(a[1]))), nil
	}},
	"log": {1, func(a []value, _ *Capabilities) (value, error) {
		f := toFloat(a[0])
		if f <= 0 {
			return value{}, errors.New("pylite: log of non-positive value")
		}
		return floatVal(math.Log(f)), nil
	}},
	"exp": {1, func(a []value, _ *Capabilities) (value, error) { return floatVal(math.Exp(toFloat(a[0]))), nil }},
}

// builtinSha256 hashes and hex-encodes on the stack: the only allocation is
// the 64-byte result string (and, for inputs over 256 bytes, their copy).
func builtinSha256(a []value, _ *Capabilities) (value, error) {
	s := toStr(a[0])
	var in [256]byte
	var sum [sha256.Size]byte
	if len(s) <= len(in) {
		sum = sha256.Sum256(append(in[:0], s...))
	} else {
		sum = sha256.Sum256([]byte(s))
	}
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return strVal(string(out[:])), nil
}

// sizedStr returns s unless it exceeds MaxStringBytes. Case mapping can
// lengthen a string by at most half, so the result is bounded before it is
// checked.
func sizedStr(s string) (value, error) {
	if err := checkSize(len(s)); err != nil {
		return value{}, err
	}
	return strVal(s), nil
}

// clampIndex clamps a substr bound into [0, n].
func clampIndex(i int64, n int) int {
	return int(min(max(i, 0), int64(n)))
}

// extreme is min (dir -1) or max (dir 1): the first argument no other beats.
func extreme(args []value, dir int) (value, error) {
	best := args[0]
	for _, a := range args[1:] {
		c, ok := compareVals(a, best)
		if !ok {
			return value{}, fmt.Errorf("pylite: cannot compare %s and %s", a.Kind, best.Kind)
		}
		if c == dir {
			best = a
		}
	}
	return best, nil
}

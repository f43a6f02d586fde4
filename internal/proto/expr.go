package proto

import (
	"fmt"
	"math"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// Expression type tags.
const (
	exTagLiteral     = 1
	exTagColumn      = 2
	exTagStar        = 3
	exTagAlias       = 4
	exTagBinary      = 5
	exTagUnary       = 6
	exTagIsNull      = 7
	exTagInList      = 8
	exTagLike        = 9
	exTagCase        = 10
	exTagCast        = 11
	exTagFunc        = 12
	exTagCurrentUser = 13
	exTagGroupMember = 14
	exTagExtension   = 15
)

// ExtensionExpr is an unknown expression preserved verbatim.
type ExtensionExpr struct {
	TypeURL string
	Payload []byte
}

// Type implements plan.Expr.
func (x *ExtensionExpr) Type() types.Kind { return types.KindNull }

// String implements plan.Expr.
func (x *ExtensionExpr) String() string { return "ExtensionExpr " + x.TypeURL }

// ChildExprs implements plan.Expr.
func (x *ExtensionExpr) ChildExprs() []plan.Expr { return nil }

// WithChildExprs implements plan.Expr.
func (x *ExtensionExpr) WithChildExprs([]plan.Expr) plan.Expr { return x }

// EncodeExpr serializes an unresolved expression.
func EncodeExpr(e plan.Expr) ([]byte, error) {
	var enc encoder
	if err := encodeExpr(&enc, e); err != nil {
		return nil, err
	}
	return enc.bytes(), nil
}

// DecodeExpr reverses EncodeExpr.
func DecodeExpr(data []byte) (plan.Expr, error) {
	return decodeExprField(data, 0)
}

func encodeExprField(e *encoder, field int, ex plan.Expr) error {
	e.begin(field)
	if err := encodeExpr(e, ex); err != nil {
		return err
	}
	e.end()
	return nil
}

func encodeExpr(e *encoder, ex plan.Expr) error {
	// start writes the expression's tag and opens its body.
	start := func(tag int) {
		e.Varint(1, uint64(tag))
		e.begin(2)
	}
	switch t := ex.(type) {
	case *plan.Literal:
		start(exTagLiteral)
		encodeValue(e, 1, t.Value)
	case *plan.ColumnRef:
		start(exTagColumn)
		e.String(1, t.Qualifier)
		e.StringAlways(2, t.Name)
	case *plan.Star:
		start(exTagStar)
		e.String(1, t.Qualifier)
	case *plan.Alias:
		start(exTagAlias)
		if err := encodeExprField(e, 1, t.Child); err != nil {
			return err
		}
		e.StringAlways(2, t.Name)
	case *plan.Binary:
		start(exTagBinary)
		e.Varint(1, uint64(t.Op))
		if err := encodeExprField(e, 2, t.L); err != nil {
			return err
		}
		if err := encodeExprField(e, 3, t.R); err != nil {
			return err
		}
	case *plan.Unary:
		start(exTagUnary)
		e.Varint(1, uint64(t.Op))
		if err := encodeExprField(e, 2, t.Child); err != nil {
			return err
		}
	case *plan.IsNull:
		start(exTagIsNull)
		if err := encodeExprField(e, 1, t.Child); err != nil {
			return err
		}
		e.Bool(2, t.Negated)
	case *plan.InList:
		start(exTagInList)
		if err := encodeExprField(e, 1, t.Child); err != nil {
			return err
		}
		for _, item := range t.List {
			if err := encodeExprField(e, 2, item); err != nil {
				return err
			}
		}
		e.Bool(3, t.Negated)
	case *plan.Like:
		start(exTagLike)
		if err := encodeExprField(e, 1, t.Child); err != nil {
			return err
		}
		if err := encodeExprField(e, 2, t.Pattern); err != nil {
			return err
		}
		e.Bool(3, t.Negated)
	case *plan.Case:
		start(exTagCase)
		for _, w := range t.Whens {
			e.begin(1)
			if err := encodeExprField(e, 1, w.Cond); err != nil {
				return err
			}
			if err := encodeExprField(e, 2, w.Then); err != nil {
				return err
			}
			e.end()
		}
		if t.Else != nil {
			if err := encodeExprField(e, 2, t.Else); err != nil {
				return err
			}
		}
	case *plan.Cast:
		start(exTagCast)
		if err := encodeExprField(e, 1, t.Child); err != nil {
			return err
		}
		e.Varint(2, uint64(t.To))
	case *plan.FuncCall:
		start(exTagFunc)
		e.StringAlways(1, t.Name)
		for _, a := range t.Args {
			if err := encodeExprField(e, 2, a); err != nil {
				return err
			}
		}
		e.Bool(3, t.Distinct)
	case *plan.CurrentUser:
		start(exTagCurrentUser)
	case *plan.GroupMember:
		start(exTagGroupMember)
		e.StringAlways(1, t.Group)
	case *ExtensionExpr:
		start(exTagExtension)
		e.StringAlways(1, t.TypeURL)
		e.Bytes(2, t.Payload)
	default:
		return fmt.Errorf("proto: expression %T is not wire-encodable (unresolved expressions only)", ex)
	}
	e.end()
	return nil
}

func encodeValue(e *encoder, field int, v types.Value) {
	e.Msg(field, func(sub *encoder) {
		sub.Varint(1, uint64(v.Kind))
		sub.Bool(2, v.Null)
		if v.I != 0 {
			sub.Int(3, v.I)
		}
		if math.Float64bits(v.F) != 0 { // -0 is written
			sub.Float(4, v.F)
		}
		sub.String(5, v.S)
	})
}

func decodeValue(b []byte) (types.Value, error) {
	d := &decoder{buf: b}
	var v types.Value
	for !d.done() {
		f, wire, err := d.field()
		if err != nil {
			return v, err
		}
		switch f {
		case 1:
			u, err := d.varint()
			if err != nil {
				return v, err
			}
			v.Kind = types.Kind(u)
		case 2:
			u, err := d.varint()
			if err != nil {
				return v, err
			}
			v.Null = u == 1
		case 3:
			i, err := d.zigzag()
			if err != nil {
				return v, err
			}
			v.I = i
		case 4:
			u, err := d.varint()
			if err != nil {
				return v, err
			}
			v.F = floatFromBits(u)
		case 5:
			b, err := d.bytes()
			if err != nil {
				return v, err
			}
			v.S = string(b)
		default:
			if err := d.skip(wire); err != nil {
				return v, err
			}
		}
	}
	return v, nil
}

// decodeExprField decodes an expression nested below depth.
func decodeExprField(b []byte, depth int) (plan.Expr, error) {
	d, err := nested(b, depth)
	if err != nil {
		return nil, err
	}
	var tag uint64
	var body []byte
	for !d.done() {
		f, wire, err := d.field()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			tag, err = d.varint()
		case 2:
			body, err = d.bytes()
		default:
			err = d.skip(wire)
		}
		if err != nil {
			return nil, err
		}
	}
	ex, err := decodeExprBody(int(tag), &decoder{buf: body, depth: d.depth})
	if err != nil {
		return nil, err
	}
	for _, c := range ex.ChildExprs() {
		if c == nil {
			return nil, fmt.Errorf("proto: expression %T missing an operand", ex)
		}
	}
	return ex, nil
}

// exprFields is a tiny helper to iterate fields and collect the common
// shapes (sub-expressions, strings, varints) by field number.
type exprFields struct {
	exprs   map[int][]plan.Expr
	strs    map[int]string
	ints    map[int]uint64
	rawMsgs map[int][][]byte
	// depth is the nesting depth of the message the fields came from.
	depth int
}

func collectFields(d *decoder) (*exprFields, error) {
	out := &exprFields{
		exprs: map[int][]plan.Expr{}, strs: map[int]string{},
		ints: map[int]uint64{}, rawMsgs: map[int][][]byte{},
		depth: d.depth,
	}
	for !d.done() {
		f, wire, err := d.field()
		if err != nil {
			return nil, err
		}
		switch wire {
		case wireBytes:
			b, err := d.bytes()
			if err != nil {
				return nil, err
			}
			out.rawMsgs[f] = append(out.rawMsgs[f], b)
		case wireVarint:
			v, err := d.varint()
			if err != nil {
				return nil, err
			}
			out.ints[f] = v
		default:
			if err := d.skip(wire); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func (ef *exprFields) expr(f int) (plan.Expr, error) {
	msgs := ef.rawMsgs[f]
	if len(msgs) == 0 {
		return nil, nil
	}
	return decodeExprField(msgs[0], ef.depth)
}

func (ef *exprFields) exprList(f int) ([]plan.Expr, error) {
	var out []plan.Expr
	for _, m := range ef.rawMsgs[f] {
		e, err := decodeExprField(m, ef.depth)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func (ef *exprFields) str(f int) string {
	msgs := ef.rawMsgs[f]
	if len(msgs) == 0 {
		return ""
	}
	return string(msgs[0])
}

func decodeExprBody(tag int, d *decoder) (plan.Expr, error) {
	ef, err := collectFields(d)
	if err != nil {
		return nil, err
	}
	switch tag {
	case exTagLiteral:
		if len(ef.rawMsgs[1]) == 0 {
			return nil, fmt.Errorf("proto: literal missing value")
		}
		v, err := decodeValue(ef.rawMsgs[1][0])
		if err != nil {
			return nil, err
		}
		return plan.Lit(v), nil
	case exTagColumn:
		return &plan.ColumnRef{Qualifier: ef.str(1), Name: ef.str(2)}, nil
	case exTagStar:
		return &plan.Star{Qualifier: ef.str(1)}, nil
	case exTagAlias:
		child, err := ef.expr(1)
		if err != nil {
			return nil, err
		}
		return &plan.Alias{Child: child, Name: ef.str(2)}, nil
	case exTagBinary:
		l, err := ef.expr(2)
		if err != nil {
			return nil, err
		}
		r, err := ef.expr(3)
		if err != nil {
			return nil, err
		}
		op := plan.BinOp(ef.ints[1])
		if uint64(op) != ef.ints[1] || !op.Valid() {
			return nil, fmt.Errorf("proto: unknown binary operator %d", ef.ints[1])
		}
		return &plan.Binary{Op: op, L: l, R: r}, nil
	case exTagUnary:
		child, err := ef.expr(2)
		if err != nil {
			return nil, err
		}
		op := plan.UnaryOp(ef.ints[1])
		if uint64(op) != ef.ints[1] || op > plan.OpNeg {
			return nil, fmt.Errorf("proto: unknown unary operator %d", ef.ints[1])
		}
		return &plan.Unary{Op: op, Child: child}, nil
	case exTagIsNull:
		child, err := ef.expr(1)
		if err != nil {
			return nil, err
		}
		return &plan.IsNull{Child: child, Negated: ef.ints[2] == 1}, nil
	case exTagInList:
		child, err := ef.expr(1)
		if err != nil {
			return nil, err
		}
		list, err := ef.exprList(2)
		if err != nil {
			return nil, err
		}
		return &plan.InList{Child: child, List: list, Negated: ef.ints[3] == 1}, nil
	case exTagLike:
		child, err := ef.expr(1)
		if err != nil {
			return nil, err
		}
		pat, err := ef.expr(2)
		if err != nil {
			return nil, err
		}
		return &plan.Like{Child: child, Pattern: pat, Negated: ef.ints[3] == 1}, nil
	case exTagCase:
		out := &plan.Case{}
		for _, wb := range ef.rawMsgs[1] {
			wf, err := collectFields(&decoder{buf: wb, depth: ef.depth})
			if err != nil {
				return nil, err
			}
			cond, err := wf.expr(1)
			if err != nil {
				return nil, err
			}
			then, err := wf.expr(2)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, plan.WhenClause{Cond: cond, Then: then})
		}
		if len(out.Whens) == 0 {
			return nil, fmt.Errorf("proto: CASE without WHEN")
		}
		els, err := ef.expr(2)
		if err != nil {
			return nil, err
		}
		out.Else = els
		return out, nil
	case exTagCast:
		child, err := ef.expr(1)
		if err != nil {
			return nil, err
		}
		return &plan.Cast{Child: child, To: types.Kind(ef.ints[2])}, nil
	case exTagFunc:
		args, err := ef.exprList(2)
		if err != nil {
			return nil, err
		}
		return &plan.FuncCall{Name: ef.str(1), Args: args, Distinct: ef.ints[3] == 1}, nil
	case exTagCurrentUser:
		return &plan.CurrentUser{}, nil
	case exTagGroupMember:
		return &plan.GroupMember{Group: ef.str(1)}, nil
	case exTagExtension:
		return &ExtensionExpr{TypeURL: ef.str(1), Payload: append([]byte{}, []byte(ef.str(2))...)}, nil
	}
	return nil, fmt.Errorf("proto: unknown expression type %d (newer client?)", tag)
}

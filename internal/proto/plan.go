package proto

import (
	"fmt"
	"math"

	"lakeguard/internal/arrowipc"
	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// Relation type tags on the wire.
const (
	relUnresolved = 1
	relLocal      = 2
	relFilter     = 3
	relProject    = 4
	relAggregate  = 5
	relJoin       = 6
	relSort       = 7
	relLimit      = 8
	relDistinct   = 9
	relUnion      = 10
	relAlias      = 11
	relSQL        = 12
	relExtension  = 15
)

// ExtensionNode is a relation the core protocol does not know: a type URL
// plus opaque payload, preserved verbatim (the plugin mechanism of §3.2.2).
type ExtensionNode struct {
	TypeURL string
	Payload []byte
}

// Schema implements plan.Node.
func (x *ExtensionNode) Schema() *types.Schema { return &types.Schema{} }

// Children implements plan.Node.
func (x *ExtensionNode) Children() []plan.Node { return nil }

// WithChildren implements plan.Node.
func (x *ExtensionNode) WithChildren([]plan.Node) plan.Node { return x }

// String implements plan.Node.
func (x *ExtensionNode) String() string {
	return fmt.Sprintf("Extension %s (%d bytes)", x.TypeURL, len(x.Payload))
}

// EncodePlan serializes an unresolved relation tree.
func EncodePlan(n plan.Node) ([]byte, error) {
	var e encoder
	if err := encodeRelation(&e, n); err != nil {
		return nil, err
	}
	return e.bytes(), nil
}

// DecodePlan reverses EncodePlan.
func DecodePlan(data []byte) (plan.Node, error) {
	return decodeRelation(&decoder{buf: data})
}

// Relation message: field 1 = type tag (varint), field 2 = body (bytes).
func encodeRelation(e *encoder, n plan.Node) error {
	// start writes the relation's tag and opens its body.
	start := func(tag int) {
		e.Varint(1, uint64(tag))
		e.begin(2)
	}
	switch t := n.(type) {
	case *plan.UnresolvedRelation:
		start(relUnresolved)
		for _, p := range t.Parts {
			e.StringAlways(1, p)
		}
		if t.AsOfVersion >= 0 {
			e.Varint(2, uint64(t.AsOfVersion)+1) // +1 so 0 is distinguishable
		}
	case *plan.LocalRelation:
		data, err := arrowipc.EncodeBatch(t.Data)
		if err != nil {
			return err
		}
		start(relLocal)
		e.Bytes(1, data)
	case *plan.Filter:
		start(relFilter)
		if err := encodeExprField(e, 1, t.Cond); err != nil {
			return err
		}
		if err := encodeRelField(e, 2, t.Child); err != nil {
			return err
		}
	case *plan.Project:
		start(relProject)
		for _, ex := range t.Exprs {
			if err := encodeExprField(e, 1, ex); err != nil {
				return err
			}
		}
		if err := encodeRelField(e, 2, t.Child); err != nil {
			return err
		}
	case *plan.Aggregate:
		start(relAggregate)
		for _, g := range t.GroupBy {
			if err := encodeExprField(e, 1, g); err != nil {
				return err
			}
		}
		for _, a := range t.Aggs {
			if err := encodeExprField(e, 2, a); err != nil {
				return err
			}
		}
		if err := encodeRelField(e, 3, t.Child); err != nil {
			return err
		}
	case *plan.Join:
		start(relJoin)
		e.Varint(1, uint64(t.Type))
		if t.Cond != nil {
			if err := encodeExprField(e, 2, t.Cond); err != nil {
				return err
			}
		}
		if err := encodeRelField(e, 3, t.L); err != nil {
			return err
		}
		if err := encodeRelField(e, 4, t.R); err != nil {
			return err
		}
	case *plan.Sort:
		start(relSort)
		for _, o := range t.Orders {
			e.begin(1)
			if err := encodeExprField(e, 1, o.Expr); err != nil {
				return err
			}
			e.Bool(2, o.Desc)
			e.end()
		}
		if err := encodeRelField(e, 2, t.Child); err != nil {
			return err
		}
	case *plan.Limit:
		start(relLimit)
		e.Varint(1, uint64(t.N))
		e.Varint(2, uint64(t.Offset))
		if err := encodeRelField(e, 3, t.Child); err != nil {
			return err
		}
	case *plan.Distinct:
		start(relDistinct)
		if err := encodeRelField(e, 1, t.Child); err != nil {
			return err
		}
	case *plan.Union:
		start(relUnion)
		if err := encodeRelField(e, 1, t.L); err != nil {
			return err
		}
		if err := encodeRelField(e, 2, t.R); err != nil {
			return err
		}
	case *plan.SubqueryAlias:
		start(relAlias)
		e.StringAlways(1, t.Name)
		if err := encodeRelField(e, 2, t.Child); err != nil {
			return err
		}
	case *plan.SQLRelation:
		start(relSQL)
		e.StringAlways(1, t.Query)
	case *ExtensionNode:
		start(relExtension)
		e.StringAlways(1, t.TypeURL)
		e.Bytes(2, t.Payload)
	default:
		return fmt.Errorf("proto: relation %T is not wire-encodable (only unresolved plans cross the protocol)", n)
	}
	e.end()
	return nil
}

func encodeRelField(e *encoder, field int, n plan.Node) error {
	e.begin(field)
	if err := encodeRelation(e, n); err != nil {
		return err
	}
	e.end()
	return nil
}

func decodeRelation(d *decoder) (plan.Node, error) {
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
	if tag == 0 {
		return nil, fmt.Errorf("proto: relation missing type tag")
	}
	n, err := decodeRelationBody(int(tag), &decoder{buf: body, depth: d.depth})
	if err != nil {
		return nil, err
	}
	for _, c := range n.Children() {
		if c == nil {
			return nil, fmt.Errorf("proto: relation %T missing an input", n)
		}
	}
	if f, ok := n.(*plan.Filter); ok && f.Cond == nil {
		return nil, fmt.Errorf("proto: filter missing its condition")
	}
	return n, nil
}

// decodeRelField decodes a relation nested below depth.
func decodeRelField(b []byte, depth int) (plan.Node, error) {
	d, err := nested(b, depth)
	if err != nil {
		return nil, err
	}
	return decodeRelation(d)
}

func decodeRelationBody(tag int, d *decoder) (plan.Node, error) {
	switch tag {
	case relUnresolved:
		out := &plan.UnresolvedRelation{AsOfVersion: -1}
		for !d.done() {
			f, wire, err := d.field()
			if err != nil {
				return nil, err
			}
			switch f {
			case 1:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				out.Parts = append(out.Parts, string(b))
			case 2:
				v, err := d.varint()
				if err != nil {
					return nil, err
				}
				if v > math.MaxInt64 {
					return nil, fmt.Errorf("proto: invalid table version %d", v-1)
				}
				out.AsOfVersion = int64(v) - 1
			default:
				if err := d.skip(wire); err != nil {
					return nil, err
				}
			}
		}
		return out, nil

	case relLocal:
		var batch *types.Batch
		for !d.done() {
			f, wire, err := d.field()
			if err != nil {
				return nil, err
			}
			if f == 1 {
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				batch, err = arrowipc.DecodeBatch(b)
				if err != nil {
					return nil, err
				}
			} else if err := d.skip(wire); err != nil {
				return nil, err
			}
		}
		if batch == nil {
			return nil, fmt.Errorf("proto: local relation missing data")
		}
		return &plan.LocalRelation{Data: batch}, nil

	case relFilter:
		out := &plan.Filter{}
		for !d.done() {
			f, wire, err := d.field()
			if err != nil {
				return nil, err
			}
			switch f {
			case 1:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				out.Cond, err = decodeExprField(b, d.depth)
				if err != nil {
					return nil, err
				}
			case 2:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				out.Child, err = decodeRelField(b, d.depth)
				if err != nil {
					return nil, err
				}
			default:
				if err := d.skip(wire); err != nil {
					return nil, err
				}
			}
		}
		return out, nil

	case relProject:
		out := &plan.Project{}
		for !d.done() {
			f, wire, err := d.field()
			if err != nil {
				return nil, err
			}
			switch f {
			case 1:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				ex, err := decodeExprField(b, d.depth)
				if err != nil {
					return nil, err
				}
				out.Exprs = append(out.Exprs, ex)
			case 2:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				out.Child, err = decodeRelField(b, d.depth)
				if err != nil {
					return nil, err
				}
			default:
				if err := d.skip(wire); err != nil {
					return nil, err
				}
			}
		}
		return out, nil

	case relAggregate:
		out := &plan.Aggregate{}
		for !d.done() {
			f, wire, err := d.field()
			if err != nil {
				return nil, err
			}
			switch f {
			case 1, 2:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				ex, err := decodeExprField(b, d.depth)
				if err != nil {
					return nil, err
				}
				if f == 1 {
					out.GroupBy = append(out.GroupBy, ex)
				} else {
					out.Aggs = append(out.Aggs, ex)
				}
			case 3:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				out.Child, err = decodeRelField(b, d.depth)
				if err != nil {
					return nil, err
				}
			default:
				if err := d.skip(wire); err != nil {
					return nil, err
				}
			}
		}
		return out, nil

	case relJoin:
		out := &plan.Join{}
		for !d.done() {
			f, wire, err := d.field()
			if err != nil {
				return nil, err
			}
			switch f {
			case 1:
				v, err := d.varint()
				if err != nil {
					return nil, err
				}
				out.Type = plan.JoinType(v)
				if uint64(out.Type) != v || !out.Type.Valid() {
					return nil, fmt.Errorf("proto: unknown join type %d", v)
				}
			case 2:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				out.Cond, err = decodeExprField(b, d.depth)
				if err != nil {
					return nil, err
				}
			case 3:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				out.L, err = decodeRelField(b, d.depth)
				if err != nil {
					return nil, err
				}
			case 4:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				out.R, err = decodeRelField(b, d.depth)
				if err != nil {
					return nil, err
				}
			default:
				if err := d.skip(wire); err != nil {
					return nil, err
				}
			}
		}
		return out, nil

	case relSort:
		out := &plan.Sort{}
		for !d.done() {
			f, wire, err := d.field()
			if err != nil {
				return nil, err
			}
			switch f {
			case 1:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				ord, err := decodeSortOrder(b, d.depth)
				if err != nil {
					return nil, err
				}
				out.Orders = append(out.Orders, ord)
			case 2:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				out.Child, err = decodeRelField(b, d.depth)
				if err != nil {
					return nil, err
				}
			default:
				if err := d.skip(wire); err != nil {
					return nil, err
				}
			}
		}
		return out, nil

	case relLimit:
		out := &plan.Limit{}
		for !d.done() {
			f, wire, err := d.field()
			if err != nil {
				return nil, err
			}
			switch f {
			case 1:
				v, err := d.varint()
				if err != nil {
					return nil, err
				}
				out.N = int64(v)
			case 2:
				v, err := d.varint()
				if err != nil {
					return nil, err
				}
				out.Offset = int64(v)
			case 3:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				out.Child, err = decodeRelField(b, d.depth)
				if err != nil {
					return nil, err
				}
			default:
				if err := d.skip(wire); err != nil {
					return nil, err
				}
			}
		}
		return out, nil

	case relDistinct:
		out := &plan.Distinct{}
		if err := decodeSingleChild(d, func(n plan.Node) { out.Child = n }); err != nil {
			return nil, err
		}
		return out, nil

	case relUnion:
		out := &plan.Union{}
		for !d.done() {
			f, wire, err := d.field()
			if err != nil {
				return nil, err
			}
			switch f {
			case 1, 2:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				n, err := decodeRelField(b, d.depth)
				if err != nil {
					return nil, err
				}
				if f == 1 {
					out.L = n
				} else {
					out.R = n
				}
			default:
				if err := d.skip(wire); err != nil {
					return nil, err
				}
			}
		}
		return out, nil

	case relAlias:
		out := &plan.SubqueryAlias{}
		for !d.done() {
			f, wire, err := d.field()
			if err != nil {
				return nil, err
			}
			switch f {
			case 1:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				out.Name = string(b)
			case 2:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				out.Child, err = decodeRelField(b, d.depth)
				if err != nil {
					return nil, err
				}
			default:
				if err := d.skip(wire); err != nil {
					return nil, err
				}
			}
		}
		return out, nil

	case relSQL:
		out := &plan.SQLRelation{}
		for !d.done() {
			f, wire, err := d.field()
			if err != nil {
				return nil, err
			}
			if f == 1 {
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				out.Query = string(b)
			} else if err := d.skip(wire); err != nil {
				return nil, err
			}
		}
		return out, nil

	case relExtension:
		out := &ExtensionNode{}
		for !d.done() {
			f, wire, err := d.field()
			if err != nil {
				return nil, err
			}
			switch f {
			case 1:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				out.TypeURL = string(b)
			case 2:
				b, err := d.bytes()
				if err != nil {
					return nil, err
				}
				out.Payload = append([]byte{}, b...)
			default:
				if err := d.skip(wire); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	// Unknown relation types fail loudly: silently dropping a relation
	// would corrupt query semantics.
	return nil, fmt.Errorf("proto: unknown relation type %d (newer client?)", tag)
}

func decodeSingleChild(d *decoder, set func(plan.Node)) error {
	for !d.done() {
		f, wire, err := d.field()
		if err != nil {
			return err
		}
		if f == 1 {
			b, err := d.bytes()
			if err != nil {
				return err
			}
			n, err := decodeRelField(b, d.depth)
			if err != nil {
				return err
			}
			set(n)
		} else if err := d.skip(wire); err != nil {
			return err
		}
	}
	return nil
}

func decodeSortOrder(b []byte, depth int) (plan.SortOrder, error) {
	d := &decoder{buf: b, depth: depth}
	var out plan.SortOrder
	for !d.done() {
		f, wire, err := d.field()
		if err != nil {
			return out, err
		}
		switch f {
		case 1:
			eb, err := d.bytes()
			if err != nil {
				return out, err
			}
			out.Expr, err = decodeExprField(eb, d.depth)
			if err != nil {
				return out, err
			}
		case 2:
			v, err := d.varint()
			if err != nil {
				return out, err
			}
			out.Desc = v == 1
		default:
			if err := d.skip(wire); err != nil {
				return out, err
			}
		}
	}
	if out.Expr == nil {
		return out, fmt.Errorf("proto: sort order missing its expression")
	}
	return out, nil
}

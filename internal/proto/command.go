package proto

import (
	"fmt"
	"math"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

func floatFromBits(u uint64) float64 { return math.Float64frombits(u) }

// Plan is the root of one Connect execution: a pure relation or a
// side-effecting command (the Relation/Command split of §3.2.2).
type Plan struct {
	Relation plan.Node
	Command  *Command
	// AllowSpill permits the server to return a spill manifest instead of
	// inline rows for large results (the eFGAC result-mode choice, §3.4).
	AllowSpill bool
	// WorkloadEnv selects the versioned Workload Environment user code
	// executes in (§6.3); empty means the server default.
	WorkloadEnv string
}

// Command is a side-effecting execution root.
type Command struct {
	// SQL executes a raw SQL statement server-side (DDL, DML, GRANT, ...).
	SQL string
	// CreateTempView registers a session-scoped view over a relation.
	CreateTempView *CreateTempView
	// RegisterFunction registers a session-scoped PyLite UDF.
	RegisterFunction *RegisterFunction
	// InsertInto appends a relation's result into a table.
	InsertInto *InsertInto
}

// CreateTempView registers a session temp view.
type CreateTempView struct {
	Name  string
	Input plan.Node
}

// RegisterFunction registers an ephemeral UDF.
type RegisterFunction struct {
	Name    string
	Params  []types.Field
	Returns types.Kind
	Body    string
	// Resources names a specialized execution environment requirement.
	Resources string
}

// InsertInto appends query results into a table.
type InsertInto struct {
	Table []string
	Input plan.Node
}

// Command type tags.
const (
	cmdSQL      = 1
	cmdTempView = 2
	cmdRegister = 3
	cmdInsert   = 4
)

// Plan fields: 1 = relation, 2 = command.

// EncodeRootPlan serializes a Plan (relation or command).
func EncodeRootPlan(p *Plan) ([]byte, error) {
	var e encoder
	switch {
	case p.Relation != nil:
		if err := encodeRelField(&e, 1, p.Relation); err != nil {
			return nil, err
		}
	case p.Command != nil:
		e.begin(2)
		if err := encodeCommand(&e, p.Command); err != nil {
			return nil, err
		}
		e.end()
	default:
		return nil, fmt.Errorf("proto: empty plan")
	}
	e.Bool(3, p.AllowSpill)
	e.String(4, p.WorkloadEnv)
	return e.bytes(), nil
}

// DecodeRootPlan reverses EncodeRootPlan.
func DecodeRootPlan(data []byte) (*Plan, error) {
	d := &decoder{buf: data}
	out := &Plan{}
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
			out.Relation, err = decodeRelField(b, d.depth)
			if err != nil {
				return nil, err
			}
		case 2:
			b, err := d.bytes()
			if err != nil {
				return nil, err
			}
			out.Command, err = decodeCommand(b)
			if err != nil {
				return nil, err
			}
		case 3:
			v, err := d.varint()
			if err != nil {
				return nil, err
			}
			out.AllowSpill = v == 1
		case 4:
			b, err := d.bytes()
			if err != nil {
				return nil, err
			}
			out.WorkloadEnv = string(b)
		default:
			if err := d.skip(wire); err != nil {
				return nil, err
			}
		}
	}
	if (out.Relation == nil) == (out.Command == nil) {
		return nil, fmt.Errorf("proto: plan must have exactly one of a relation and a command")
	}
	return out, nil
}

func encodeCommand(e *encoder, c *Command) error {
	switch {
	case c.SQL != "":
		e.Varint(1, cmdSQL)
		e.Msg(2, func(sub *encoder) { sub.StringAlways(1, c.SQL) })
	case c.CreateTempView != nil:
		e.Varint(1, cmdTempView)
		e.begin(2)
		e.StringAlways(1, c.CreateTempView.Name)
		if err := encodeRelField(e, 2, c.CreateTempView.Input); err != nil {
			return err
		}
		e.end()
	case c.RegisterFunction != nil:
		e.Varint(1, cmdRegister)
		e.begin(2)
		rf := c.RegisterFunction
		e.StringAlways(1, rf.Name)
		for _, p := range rf.Params {
			e.Msg(2, func(sub *encoder) {
				sub.StringAlways(1, p.Name)
				sub.Varint(2, uint64(p.Kind))
			})
		}
		e.Varint(3, uint64(rf.Returns))
		e.StringAlways(4, rf.Body)
		e.String(5, rf.Resources)
		e.end()
	case c.InsertInto != nil:
		e.Varint(1, cmdInsert)
		e.begin(2)
		for _, p := range c.InsertInto.Table {
			e.StringAlways(1, p)
		}
		if err := encodeRelField(e, 2, c.InsertInto.Input); err != nil {
			return err
		}
		e.end()
	default:
		return fmt.Errorf("proto: empty command")
	}
	return nil
}

func decodeCommand(data []byte) (*Command, error) {
	d := &decoder{buf: data}
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
	bd := &decoder{buf: body}
	switch tag {
	case cmdSQL:
		ef, err := collectFields(bd)
		if err != nil {
			return nil, err
		}
		if ef.str(1) == "" {
			return nil, fmt.Errorf("proto: SQL command without text")
		}
		return &Command{SQL: ef.str(1)}, nil
	case cmdTempView:
		ef, err := collectFields(bd)
		if err != nil {
			return nil, err
		}
		tv := &CreateTempView{Name: ef.str(1)}
		if msgs := ef.rawMsgs[2]; len(msgs) > 0 {
			n, err := decodeRelField(msgs[0], ef.depth)
			if err != nil {
				return nil, err
			}
			tv.Input = n
		}
		if tv.Input == nil {
			return nil, fmt.Errorf("proto: temp view %q missing input", tv.Name)
		}
		return &Command{CreateTempView: tv}, nil
	case cmdRegister:
		ef, err := collectFields(bd)
		if err != nil {
			return nil, err
		}
		rf := &RegisterFunction{Name: ef.str(1), Returns: types.Kind(ef.ints[3]), Body: ef.str(4), Resources: ef.str(5)}
		for _, pm := range ef.rawMsgs[2] {
			pf, err := collectFields(&decoder{buf: pm})
			if err != nil {
				return nil, err
			}
			rf.Params = append(rf.Params, types.Field{
				Name: pf.str(1), Kind: types.Kind(pf.ints[2]), Nullable: true,
			})
		}
		return &Command{RegisterFunction: rf}, nil
	case cmdInsert:
		ef, err := collectFields(bd)
		if err != nil {
			return nil, err
		}
		ins := &InsertInto{}
		for _, t := range ef.rawMsgs[1] {
			ins.Table = append(ins.Table, string(t))
		}
		if msgs := ef.rawMsgs[2]; len(msgs) > 0 {
			n, err := decodeRelField(msgs[0], ef.depth)
			if err != nil {
				return nil, err
			}
			ins.Input = n
		}
		if len(ins.Table) == 0 || ins.Input == nil {
			return nil, fmt.Errorf("proto: insert command incomplete")
		}
		return &Command{InsertInto: ins}, nil
	}
	return nil, fmt.Errorf("proto: unknown command type %d (newer client?)", tag)
}

package main

import (
	"fmt"
	"strings"

	"lakeguard/internal/catalog"
	"lakeguard/internal/types"
)

// The governed tables all carry the same two policies: a row filter that
// hides every non-US row from principals outside the analysts group, and a
// CASE mask on the email column.
const (
	rowFilterSQL = "region = 'US' OR IS_ACCOUNT_GROUP_MEMBER('" + analystsGroup + "')"
	emailMaskSQL = "CASE WHEN IS_ACCOUNT_GROUP_MEMBER('" + analystsGroup + "') THEN email ELSE '<redacted>' END"
	redacted     = "<redacted>"
)

var regions = [4]string{"US", "EU", "US", "APAC"}

// splitmix64 is the generator behind every table: row i of a table is a pure
// function of (seed, i), so the oracle recomputes any row without storing it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a seeded stream for keys and literals.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: splitmix64(seed ^ splitmix64(stream))}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// event is one row of the events-shaped tables (events, events_open, ledger,
// accounts): the same seven columns everywhere so one generator, one schema
// and one oracle serve all of them.
type event struct {
	id     int64
	region string
	cat    string
	dim    int64
	v      int64
	email  string
	amount float64
}

var eventSchema = types.NewSchema(
	types.Field{Name: "id", Kind: types.KindInt64},
	types.Field{Name: "region", Kind: types.KindString},
	types.Field{Name: "cat", Kind: types.KindString},
	types.Field{Name: "dim", Kind: types.KindInt64},
	types.Field{Name: "v", Kind: types.KindInt64},
	types.Field{Name: "email", Kind: types.KindString},
	types.Field{Name: "amount", Kind: types.KindFloat64},
)

// eventGen generates a table of n rows laid out in files of rowsPerFile
// consecutive ids, so id (and dim, which encodes the file number) carry tight
// zone maps while region, cat and v are spread uniformly over every file.
type eventGen struct {
	seed        uint64
	n           int
	rowsPerFile int
	cats        int
}

const amountStride = 7919 // prime, coprime to every table size used

func (g eventGen) row(i int64) event {
	h := splitmix64(g.seed ^ uint64(i)*0xd1342543de82ef95)
	// amount is a bijection of the id, so ORDER BY amount has no ties.
	perm := (uint64(i)*amountStride + g.seed%uint64(g.n)) % uint64(g.n)
	return event{
		id:     i,
		region: regions[h&3],
		cat:    fmt.Sprintf("c%d", (h>>8)%uint64(g.cats)),
		dim:    (i/int64(g.rowsPerFile))*4 + int64((h>>12)&3),
		v:      int64((h >> 16) % 1000),
		email:  fmt.Sprintf("u%06d@example.com", i),
		amount: float64(perm)/4 + 0.25,
	}
}

// visible reports whether the non-analyst principal sees the row.
func (e event) visible() bool { return e.region == "US" }

// batches renders rows [from, to) as one batch per data file.
func (g eventGen) batches(from, to int64) []*types.Batch {
	var out []*types.Batch
	for lo := from; lo < to; lo += int64(g.rowsPerFile) {
		hi := lo + int64(g.rowsPerFile)
		if hi > to {
			hi = to
		}
		bb := types.NewBatchBuilder(eventSchema, int(hi-lo))
		for i := lo; i < hi; i++ {
			appendEvent(bb, g.row(i))
		}
		out = append(out, bb.Build())
	}
	return out
}

func appendEvent(bb *types.BatchBuilder, e event) {
	bb.Column(0).AppendInt64(e.id)
	bb.Column(1).AppendString(e.region)
	bb.Column(2).AppendString(e.cat)
	bb.Column(3).AppendInt64(e.dim)
	bb.Column(4).AppendInt64(e.v)
	bb.Column(5).AppendString(e.email)
	bb.Column(6).AppendFloat64(e.amount)
}

// valuesSQL renders rows as the VALUES list of an INSERT statement.
func valuesSQL(rows []event) string {
	var sb strings.Builder
	for i, e := range rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, '%s', '%s', %d, %d, '%s', %g)", e.id, e.region, e.cat, e.dim, e.v, e.email, e.amount)
	}
	return sb.String()
}

func reqCtx(user string) catalog.RequestContext {
	return catalog.RequestContext{User: user, Compute: catalog.ComputeServerless, SessionID: user + "/seed"}
}

// createEventTable creates one events-shaped table as owner in one commit
// (delta writes one data file per batch, so the file layout is the
// generator's), attaches the policies when governed, and grants SELECT to
// the readers.
func createEventTable(cat *catalog.Catalog, owner, name string, g eventGen, governed bool) error {
	ctx := reqCtx(owner)
	parts := []string{name}
	if err := cat.CreateTable(ctx, parts, eventSchema, false, ""); err != nil {
		return err
	}
	if _, err := cat.AppendToTable(ctx, parts, g.batches(0, int64(g.n))); err != nil {
		return err
	}
	if governed {
		if err := cat.SetRowFilter(ctx, parts, rowFilterSQL, false); err != nil {
			return err
		}
		if err := cat.SetColumnMask(ctx, parts, "email", emailMaskSQL, false); err != nil {
			return err
		}
	}
	for _, principal := range []string{userPrincipal, analystPrincipal} {
		if err := cat.Grant(ctx, catalog.PrivSelect, parts, principal); err != nil {
			return err
		}
	}
	return nil
}

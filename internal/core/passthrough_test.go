package core

import (
	"context"
	"testing"

	"lakeguard/internal/proto"
	"lakeguard/internal/types"
)

// The command path hands a query's lone result batch back unchanged
// (arrowipc.ConcatBatches passes a single batch through), so the batch a
// caller holds may be the very one an operator produced. No later statement
// may mutate its Schema or Cols: an aliasing projection, a CTAS, an
// INSERT ... SELECT and a re-run over the same table must leave an earlier
// result exactly as it was delivered.
func TestCommandPathLeavesPassThroughBatchUntouched(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	seedSales(t, e.client("tok-admin"))
	run := func(q string) *types.Batch {
		t.Helper()
		_, batches, err := e.server.Execute(context.Background(), "passthrough", admin,
			&proto.Plan{Command: &proto.Command{SQL: q}})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(batches) != 1 {
			t.Fatalf("%s: %d batches, want 1", q, len(batches))
		}
		return batches[0]
	}
	first := run("SELECT seller, amount FROM sales WHERE region = 'US'")
	schema := first.Schema
	fields := append([]types.Field(nil), schema.Fields...)
	cols := append([]*types.Column(nil), first.Cols...)
	rendered := first.String()

	run("SELECT seller AS who, amount * 2 AS twice FROM sales WHERE region = 'US'")
	run("CREATE TABLE sales_us AS SELECT seller, amount FROM sales WHERE region = 'US'")
	run("INSERT INTO sales SELECT amount, CAST('2024-12-03' AS DATE), seller, 'US' FROM sales_us")
	run("SELECT seller, amount FROM sales WHERE region = 'US'")

	if first.Schema != schema || len(first.Schema.Fields) != len(fields) {
		t.Fatal("a later statement replaced the delivered batch's schema")
	}
	for i, f := range fields {
		if first.Schema.Fields[i] != f {
			t.Fatalf("field %d changed from %+v to %+v", i, f, first.Schema.Fields[i])
		}
	}
	for i, c := range cols {
		if first.Cols[i] != c {
			t.Fatalf("column %d of the delivered batch was replaced", i)
		}
	}
	if got := first.String(); got != rendered {
		t.Fatalf("delivered batch changed:\nbefore\n%s\nafter\n%s", rendered, got)
	}
}

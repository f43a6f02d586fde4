package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/catalog"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/proto"
	"lakeguard/internal/sentinel"
	"lakeguard/internal/sql"
	"lakeguard/internal/storage"
)

// Column pruning descends through the SecureView of a governed table, so a
// query that never selects a masked column never computes its mask. These
// tests check that the pruned plans return exactly what the policy
// authorizes: each governed query is compared with the same query over an
// ungoverned copy that holds the authorized rows with the masks applied by
// hand — an oracle that shares no code with the engine's policy path.

// The governed orders table: a row filter hiding APAC, a mask over the raw
// seller, a mask on amount that also reads another column, and a mask on
// region, the column the row filter reads — so region and its mask stay in
// every pruned barrier.
const (
	ordersRowFilter = "region <> 'APAC'"
	sellerMask      = "upper(seller)"
	amountMask      = "CASE WHEN qty > 5 THEN amount ELSE 0.0 END"
	regionMask      = "lower(region)"
)

type order struct {
	id, qty        int64
	region, seller string
	amount         float64
}

func genOrders(n int) []order {
	regions := []string{"US", "EU", "APAC"}
	sellers := []string{"ann", "ben", "cat", "dan", "eve"}
	out := make([]order, n)
	for i := range out {
		out[i] = order{
			id: int64(i), qty: int64(i*7%10 + 1),
			region: regions[i%3], seller: sellers[i*3%5], amount: float64(i*37%200) + 0.5,
		}
	}
	return out
}

// authorized applies the orders policies by hand: the rows the row filter
// keeps, with every mask evaluated over the raw row.
func authorized(rows []order) []order {
	var out []order
	for _, o := range rows {
		if o.region == "APAC" {
			continue
		}
		if o.qty <= 5 {
			o.amount = 0
		}
		o.seller = strings.ToUpper(o.seller)
		o.region = strings.ToLower(o.region)
		out = append(out, o)
	}
	return out
}

func ordersValues(rows []order) string {
	parts := make([]string, len(rows))
	for i, o := range rows {
		parts[i] = fmt.Sprintf("(%d, '%s', '%s', %d, %g)", o.id, o.region, o.seller, o.qty, o.amount)
	}
	return strings.Join(parts, ", ")
}

// hiddenID is the id of a row the orders row filter hides (an APAC row):
// the probes below key their failures on it.
const hiddenID = 2

// probeUDF raises (division by zero) on exactly the hidden row's id.
const probeUDF = "CREATE FUNCTION probe(x BIGINT) RETURNS BOOLEAN AS 'return 100 / (x - 2) > 0'"

// seedOrders builds the governed table (four data files of 15 ids each, so
// zone maps on id can prune), its hand-masked copy, a dimension table, a
// definer-rights view over each of the two, and the probe UDF.
func seedOrders(t *testing.T, cat *catalog.Catalog) {
	t.Helper()
	srv := NewServer(Config{Name: "seed", Catalog: cat})
	rows := genOrders(60)
	if rows[hiddenID].region != "APAC" {
		t.Fatalf("row %d is not hidden by %s", hiddenID, ordersRowFilter)
	}
	for _, stmt := range []string{
		"CREATE TABLE orders (id BIGINT, region STRING, seller STRING, qty BIGINT, amount DOUBLE)",
		"INSERT INTO orders VALUES " + ordersValues(rows[:15]),
		"INSERT INTO orders VALUES " + ordersValues(rows[15:30]),
		"INSERT INTO orders VALUES " + ordersValues(rows[30:45]),
		"INSERT INTO orders VALUES " + ordersValues(rows[45:]),
		"ALTER TABLE orders SET ROW FILTER '" + escapeQuotes(ordersRowFilter) + "'",
		"ALTER TABLE orders ALTER COLUMN seller SET MASK '" + escapeQuotes(sellerMask) + "'",
		"ALTER TABLE orders ALTER COLUMN amount SET MASK '" + escapeQuotes(amountMask) + "'",
		"ALTER TABLE orders ALTER COLUMN region SET MASK '" + escapeQuotes(regionMask) + "'",
		"CREATE TABLE orders_ref (id BIGINT, region STRING, seller STRING, qty BIGINT, amount DOUBLE)",
		"INSERT INTO orders_ref VALUES " + ordersValues(authorized(rows)),
		"CREATE TABLE regions (region STRING, label STRING)",
		"INSERT INTO regions VALUES ('us', 'Americas'), ('eu', 'Europe'), ('apac', 'Asia')",
		"CREATE VIEW big_orders AS SELECT id, seller, amount, region FROM orders WHERE qty > 3",
		"CREATE VIEW big_orders_ref AS SELECT id, seller, amount, region FROM orders_ref WHERE qty > 3",
		probeUDF,
		"GRANT EXECUTE ON probe TO '" + alice + "'",
	} {
		if _, _, err := srv.Execute(context.Background(), "seed", admin,
			&proto.Plan{Command: &proto.Command{SQL: stmt}}); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	for _, obj := range []string{"orders", "orders_ref", "regions", "big_orders", "big_orders_ref"} {
		if _, _, err := srv.Execute(context.Background(), "seed", admin, &proto.Plan{
			Command: &proto.Command{SQL: "GRANT SELECT ON " + obj + " TO '" + alice + "'"}}); err != nil {
			t.Fatal(err)
		}
	}
}

// pruneQueries generates the differential's queries as templates over {T}
// (the orders table) and {V} (the view over it): projections, filters,
// aggregates, COUNT(*), ORDER BY + LIMIT, joins, and expressions, each
// selecting a random subset of masked and unmasked columns.
func pruneQueries(rng *rand.Rand, n int) []string {
	cols := []string{"id", "region", "seller", "qty", "amount"}
	viewCols := []string{"id", "seller", "amount", "region"}
	pick := func(from []string) []string {
		var out []string
		for len(out) == 0 {
			for _, c := range from {
				if rng.Intn(2) == 0 {
					out = append(out, c)
				}
			}
		}
		return out
	}
	where := func(allowQty bool) string {
		preds := []string{
			fmt.Sprintf("amount > %d", rng.Intn(150)),
			"seller LIKE 'A%'",
			"seller = 'ben'",
			fmt.Sprintf("id < %d", rng.Intn(60)),
			"region = 'eu'",
			// Queen's Guard probes. Comparisons on the unmasked id are
			// copied below the barrier and prune files; LIKE on a masked
			// column, a CASE-guarded throwing cast and a throwing UDF must
			// stay above it, where hidden rows never reach them.
			fmt.Sprintf("id = %d", rng.Intn(60)),
			fmt.Sprintf("id >= %d AND id < %d", rng.Intn(30), 30+rng.Intn(30)),
			"region LIKE 'ap%'",
			fmt.Sprintf("CASE WHEN id = %d THEN CAST('boom' AS BIGINT) ELSE 1 END = 1", []int{hiddenID, rng.Intn(60)}[rng.Intn(2)]),
			"probe(id)",
		}
		if allowQty {
			preds = append(preds, fmt.Sprintf("qty > %d", rng.Intn(10)), fmt.Sprintf("qty IN (%d, %d)", rng.Intn(10), rng.Intn(10)))
		}
		switch rng.Intn(3) {
		case 0:
			return ""
		case 1:
			return " WHERE " + preds[rng.Intn(len(preds))]
		}
		return " WHERE " + preds[rng.Intn(len(preds))] + " AND " + preds[rng.Intn(len(preds))]
	}
	out := make([]string, n)
	for i := range out {
		switch rng.Intn(7) {
		case 0:
			out[i] = "SELECT " + strings.Join(pick(cols), ", ") + " FROM {T}" + where(true)
		case 1:
			g := []string{"region", "seller", "qty"}[rng.Intn(3)]
			num := []string{"amount", "qty", "id"}[rng.Intn(3)]
			out[i] = fmt.Sprintf("SELECT %s, COUNT(*) AS n, SUM(%s) AS s FROM {T}%s GROUP BY %s", g, num, where(true), g)
		case 2:
			out[i] = "SELECT COUNT(*) AS n FROM {T}" + where(true)
		case 3:
			sel := append([]string{"id"}, pick(cols[1:])...)
			out[i] = fmt.Sprintf("SELECT %s FROM {T}%s ORDER BY id DESC LIMIT %d",
				strings.Join(sel, ", "), where(true), 1+rng.Intn(12))
		case 4:
			c := []string{"id", "seller", "amount", "qty"}[rng.Intn(4)]
			out[i] = fmt.Sprintf("SELECT o.%s, r.label FROM {T} o JOIN regions r ON o.region = r.region", c)
			if rng.Intn(2) == 0 {
				out[i] += fmt.Sprintf(" WHERE o.qty > %d", rng.Intn(10))
			}
		case 5:
			out[i] = "SELECT " + strings.Join(pick(viewCols), ", ") + " FROM {V}" + where(false)
		case 6:
			out[i] = "SELECT lower(seller) AS s, amount * 2 AS d, qty + 1 AS q FROM {T}" + where(true)
		}
	}
	return out
}

func governedAndRef(q string) (string, string) {
	gov := strings.NewReplacer("{T}", "orders", "{V}", "big_orders").Replace(q)
	ref := strings.NewReplacer("{T}", "orders_ref", "{V}", "big_orders_ref").Replace(q)
	return gov, ref
}

func queryCanonical(srv *Server, user, q string) (string, error) {
	_, batches, err := srv.Execute(context.Background(), user+"/prune", user,
		&proto.Plan{Command: &proto.Command{SQL: q}})
	if err != nil {
		return "", err
	}
	return canonical(batches[0]), nil
}

func TestBarrierPruningMatchesAuthorizedViewOracle(t *testing.T) {
	cat := catalog.New(storage.NewStore(), nil)
	cat.AddAdmin(admin)
	seedOrders(t, cat)
	queries := pruneQueries(rand.New(rand.NewSource(24)), 200)

	refSrv := NewServer(Config{Name: "ref", Catalog: cat, Parallelism: 1})
	want := make([]string, len(queries))
	wantErr := make([]error, len(queries))
	refErrors := 0
	for i, q := range queries {
		_, ref := governedAndRef(q)
		want[i], wantErr[i] = queryCanonical(refSrv, alice, ref)
		if wantErr[i] != nil {
			refErrors++
		}
	}
	// Only the throwing probes keyed on a visible row may fail.
	if refErrors > len(queries)/10 {
		t.Fatalf("%d of %d reference queries fail", refErrors, len(queries))
	}
	for _, p := range []int{1, 2, 8} {
		srv := NewServer(Config{Name: fmt.Sprintf("gov-p%d", p), Catalog: cat, Parallelism: p})
		for i, q := range queries {
			gov, _ := governedAndRef(q)
			got, err := queryCanonical(srv, alice, gov)
			switch {
			case err != nil && wantErr[i] == nil:
				// An error only the governed run raises came from a row or
				// value the caller may not see: an error oracle.
				t.Fatalf("parallelism %d: %q fails where the authorized-view oracle does not: %v", p, gov, err)
			case err != nil || wantErr[i] != nil:
				continue
			}
			if got != want[i] {
				t.Fatalf("parallelism %d: %q diverges from the authorized-view oracle\ngoverned:\n%s\noracle:\n%s",
					p, gov, got, want[i])
			}
		}
	}
}

func TestBarrierPruningOverEFGACMatchesOracle(t *testing.T) {
	dedicated, _, efgac := newEFGACWorld(t, 0)
	seedOrders(t, dedicated.cat)
	refSrv := NewServer(Config{Name: "ref", Catalog: dedicated.cat})
	// The dedicated cluster ships each query to serverless as an eFGAC
	// RemoteScan; serverless re-injects the policies and prunes through the
	// barrier there.
	for _, q := range []string{
		"SELECT id FROM {T}",
		"SELECT id, seller FROM {T} WHERE qty > 3",
		"SELECT region, COUNT(*) AS n, SUM(amount) AS s FROM {T} GROUP BY region",
		"SELECT COUNT(*) AS n FROM {T}",
		"SELECT id, amount FROM {T} ORDER BY id DESC LIMIT 4",
	} {
		gov, ref := governedAndRef(q)
		got, err := dedicated.client("tok-alice").Sql(gov).Collect()
		if err != nil {
			t.Fatalf("dedicated %q: %v", gov, err)
		}
		want, err := queryCanonical(refSrv, alice, ref)
		if err != nil {
			t.Fatalf("reference %q: %v", ref, err)
		}
		if canonical(got) != want {
			t.Errorf("eFGAC %q diverges from the oracle\ngot:\n%s\nwant:\n%s", gov, canonical(got), want)
		}
	}
	if rq, _ := efgac.Stats(); rq == 0 {
		t.Error("no query took the eFGAC path")
	}
}

// TestBarrierPruningPlanShape pins what the pruned barrier carries for the
// orders table, and that every pruned plan still clears the sentinel.
func TestBarrierPruningPlanShape(t *testing.T) {
	cat := catalog.New(storage.NewStore(), nil)
	cat.AddAdmin(admin)
	seedOrders(t, cat)
	cases := []struct {
		query            string
		outputs, scanned string
	}{
		// The row filter reads raw region, so region is scanned though
		// nothing selects it, and its mask stays with it; seller and its mask
		// are gone.
		{"SELECT id FROM orders", "id, region", "id, region"},
		{"SELECT COUNT(*) AS n FROM orders", "id, region", "id, region"},
		// A selected masked column is still masked; its mask reads amount
		// and qty raw.
		{"SELECT amount FROM orders", "region, amount", "region, qty, amount"},
		{"SELECT seller, qty FROM orders WHERE qty > 2", "region, seller, qty", "region, seller, qty"},
		{"SELECT region, SUM(qty) AS s FROM orders GROUP BY region", "region, qty", "region, qty"},
	}
	for _, tc := range cases {
		q, err := sql.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		a := analyzer.New(cat, catalog.RequestContext{User: alice, Compute: catalog.ComputeStandard, SessionID: "shape"})
		resolved, err := a.Analyze(q)
		if err != nil {
			t.Fatal(err)
		}
		optimized := optimizer.Optimize(resolved, optimizer.DefaultOptions())
		if err := sentinel.Verify(resolved, optimized).Err(); err != nil {
			t.Fatalf("%s: pruned plan rejected: %v\n%s", tc.query, err, plan.Explain(optimized))
		}
		var outputs, scanned []string
		plan.Walk(optimized, func(n plan.Node) bool {
			switch x := n.(type) {
			case *plan.SecureView:
				for _, f := range x.Schema().Fields {
					outputs = append(outputs, f.Name)
				}
			case *plan.Scan:
				for _, f := range x.Schema().Fields {
					scanned = append(scanned, f.Name)
				}
			}
			return true
		})
		if got := strings.Join(outputs, ", "); got != tc.outputs {
			t.Errorf("%s: barrier outputs %s, want %s\n%s", tc.query, got, tc.outputs, plan.Explain(optimized))
		}
		if got := strings.Join(scanned, ", "); got != tc.scanned {
			t.Errorf("%s: scan reads %s, want %s\n%s", tc.query, got, tc.scanned, plan.Explain(optimized))
		}
	}
}

package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/sql"
	"lakeguard/internal/types"
)

// TestOptimizerEquivalence is a property test: for a corpus of generated
// queries, the optimized plan must return exactly the same multiset of rows
// as the unoptimized plan. This guards every rewrite rule (pushdowns,
// pruning, folding, fusion) at once.
func TestOptimizerEquivalence(t *testing.T) {
	w := newWorld(t)
	seedQuotas(t, w)

	queries := generateQueries(200, 7)
	for _, q := range queries {
		plain, err1 := w.runWithOptions(q, optimizer.Options{})
		opt, err2 := w.runWithOptions(q, optimizer.DefaultOptions())
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error divergence for %q: plain=%v optimized=%v", q, err1, err2)
		}
		if err1 != nil {
			continue // both failed identically (e.g. empty result edge)
		}
		if a, b := canonicalRows(plain), canonicalRows(opt); a != b {
			t.Fatalf("result divergence for %q:\nplain:\n%s\noptimized:\n%s", q, a, b)
		}
	}
}

// planWithOptions parses, analyzes and optimizes a query as the admin.
func (w *world) planWithOptions(query string, opts optimizer.Options) (plan.Node, error) {
	q, err := sql.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	resolved, err := analyzer.New(w.cat, adminCtx()).Analyze(q)
	if err != nil {
		return nil, err
	}
	return optimizer.Optimize(resolved, opts), nil
}

// runWithOptions analyzes and executes a query with the given optimizer
// options.
func (w *world) runWithOptions(query string, opts optimizer.Options) (*types.Batch, error) {
	p, err := w.planWithOptions(query, opts)
	if err != nil {
		return nil, err
	}
	return w.engine.ExecuteToBatch(NewQueryContext(w.cat, adminCtx()), p)
}

// seedQuotas creates the quotas table generateQueries joins against.
func seedQuotas(t testing.TB, w *world) {
	t.Helper()
	qschema := types.NewSchema(
		types.Field{Name: "seller", Kind: types.KindString},
		types.Field{Name: "quota", Kind: types.KindFloat64},
	)
	if err := w.cat.CreateTable(adminCtx(), []string{"quotas"}, qschema, false, ""); err != nil {
		t.Fatal(err)
	}
	bb := types.NewBatchBuilder(qschema, 3)
	bb.AppendRow([]types.Value{types.String("ann"), types.Float64(120)})
	bb.AppendRow([]types.Value{types.String("ben"), types.Float64(400)})
	bb.AppendRow([]types.Value{types.String("zoe"), types.Float64(10)})
	if _, err := w.cat.AppendToTable(adminCtx(), []string{"quotas"}, []*types.Batch{bb.Build()}); err != nil {
		t.Fatal(err)
	}
}

// canonicalRows renders a batch as sorted row strings (order-insensitive
// comparison; queries with ORDER BY still agree since both sides sort).
func canonicalRows(b *types.Batch) string {
	rows := make([]string, b.NumRows())
	for i := range rows {
		rows[i] = fmt.Sprint(b.Row(i))
	}
	sort.Strings(rows)
	out := ""
	for _, r := range rows {
		out += r + "\n"
	}
	return out
}

// generateQueries builds a deterministic corpus of random-but-valid SQL over
// the sales/quotas fixtures.
func generateQueries(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	preds := []string{
		"region = 'US'", "region <> 'EU'", "amount > 60", "amount <= 200",
		"seller LIKE 'a%'", "seller IN ('ann', 'ben')", "region IS NOT NULL",
		"amount BETWEEN 40 AND 250", "date = '2024-12-01'",
		"upper(region) = 'US'", "length(seller) = 3",
	}
	projections := [][]string{
		{"*"},
		{"amount", "seller"},
		{"seller", "amount * 2 AS double"},
		{"region", "CASE WHEN amount > 100 THEN 'big' ELSE 'small' END AS size"},
		{"upper(seller) AS s", "amount"},
	}
	var out []string
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0: // filtered projection
			p := projections[rng.Intn(len(projections))]
			q := "SELECT " + join(p) + " FROM sales"
			if rng.Intn(3) > 0 {
				q += " WHERE " + preds[rng.Intn(len(preds))]
				if rng.Intn(2) == 0 {
					q += " AND " + preds[rng.Intn(len(preds))]
				}
			}
			out = append(out, q)
		case 1: // aggregate
			q := "SELECT region, SUM(amount) AS t, COUNT(*) AS n, MIN(amount) AS lo FROM sales"
			if rng.Intn(2) == 0 {
				q += " WHERE " + preds[rng.Intn(len(preds))]
			}
			q += " GROUP BY region"
			if rng.Intn(2) == 0 {
				q += " HAVING COUNT(*) > 0"
			}
			out = append(out, q)
		case 2: // join
			joinTypes := []string{"JOIN", "LEFT JOIN", "LEFT SEMI JOIN", "LEFT ANTI JOIN"}
			jt := joinTypes[rng.Intn(len(joinTypes))]
			sel := "s.seller, s.amount"
			if jt == "LEFT SEMI JOIN" || jt == "LEFT ANTI JOIN" {
				sel = "s.seller, s.amount"
			} else if rng.Intn(2) == 0 {
				sel = "s.seller, q.quota"
			}
			q := fmt.Sprintf("SELECT %s FROM sales s %s quotas q ON s.seller = q.seller", sel, jt)
			if rng.Intn(2) == 0 {
				q += " WHERE s.amount > 40"
			}
			out = append(out, q)
		case 3: // order/limit/distinct
			q := "SELECT DISTINCT region FROM sales ORDER BY region"
			if rng.Intn(2) == 0 {
				q = fmt.Sprintf("SELECT seller, amount FROM sales ORDER BY amount DESC LIMIT %d OFFSET %d",
					1+rng.Intn(5), rng.Intn(3))
			}
			out = append(out, q)
		case 4: // union / subquery
			if rng.Intn(2) == 0 {
				out = append(out, "SELECT amount FROM sales WHERE region = 'US' UNION ALL SELECT amount FROM sales WHERE region = 'EU'")
			} else {
				out = append(out, "SELECT x FROM (SELECT amount AS x FROM sales WHERE amount > 50) sub WHERE x < 250")
			}
		}
	}
	return out
}

func join(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

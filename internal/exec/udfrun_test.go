package exec

import (
	"fmt"
	"strings"
	"testing"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/sql"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// udfQuery runs sqlText with the temporary function `f(s STRING, x DOUBLE)`
// whose body is body, profiling it into prof when prof is not nil.
func (w *world) udfQuery(t *testing.T, body string, returns types.Kind, sqlText string, prof *telemetry.Profile) (*types.Batch, error) {
	t.Helper()
	q, err := sql.ParseQuery(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	a := analyzer.New(w.cat, adminCtx())
	a.TempFuncs = map[string]analyzer.TempFunc{"f": {
		Params:  []types.Field{{Name: "s", Kind: types.KindString}, {Name: "x", Kind: types.KindFloat64}},
		Returns: returns,
		Body:    body,
		Owner:   admin,
	}}
	resolved, err := a.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	qc := NewQueryContext(w.cat, adminCtx())
	qc.Profile = prof
	return w.engine.ExecuteToBatch(qc, optimizer.Optimize(resolved, optimizer.DefaultOptions()))
}

// A negative substr bound and an oversized string are answers and user
// errors on both UDF paths: the sandbox is not quarantined, and the
// in-process baseline does not panic the engine.
func TestUDFArgumentEdgesOnBothPaths(t *testing.T) {
	for _, inProcess := range []bool{false, true} {
		w := newWorld(t)
		w.engine.UnsafeInProcessUDFs = inProcess
		b, err := w.udfQuery(t, "return substr(s, 0, -1) + '|' + substr(s, 1, 99)", types.KindString,
			"SELECT f(seller, amount) AS c FROM sales WHERE seller = 'ann' ORDER BY amount", nil)
		if err != nil {
			t.Fatalf("inProcess=%v: %v", inProcess, err)
		}
		if b.NumRows() != 2 || col(b, "c").StringAt(0) != "|nn" {
			t.Errorf("inProcess=%v: substr result\n%s", inProcess, b.String())
		}
		_, err = w.udfQuery(t, "return s * 1000000000000", types.KindString, "SELECT f(seller, amount) AS c FROM sales", nil)
		if err == nil || !strings.Contains(err.Error(), "byte limit") {
			t.Errorf("inProcess=%v: err = %v, want the string limit", inProcess, err)
		}
		if st := w.engine.Dispatcher.Stats(); st.Crashes != 0 {
			t.Errorf("inProcess=%v: %d sandboxes quarantined", inProcess, st.Crashes)
		}
	}
}

// Argument columns come from the statement's vector kernels; only an
// argument outside the vectorizable subset is evaluated row by row, and
// that fallback is counted. A sandbox crossing is not a fallback: beside a
// UDF, a CASE on group membership and CURRENT_USER() compile with the
// statement's identity, no fallback counter moves, and the projection's
// batch counts as vectorized.
func TestUDFArgumentsUseVectorKernels(t *testing.T) {
	w := newWorld(t)
	w.engine.Metrics = telemetry.NewRegistry()
	prof := telemetry.NewProfile()
	b, err := w.udfQuery(t, "return s + ':' + str(x)", types.KindString,
		"SELECT f(seller, amount) AS a, CASE WHEN IS_ACCOUNT_GROUP_MEMBER('nobody') THEN seller ELSE 'r' END AS g, CURRENT_USER() AS u FROM sales", prof)
	if err != nil {
		t.Fatal(err)
	}
	if got := col(b, "a").StringAt(0) + " " + col(b, "g").StringAt(0) + " " + col(b, "u").StringAt(0); got != "ann:100 r "+admin {
		t.Errorf("got %q\n%s", got, b.String())
	}
	if out := w.engine.Metrics.RenderPrometheus(); strings.Contains(out, "exec_vec_fallback_") {
		t.Errorf("fallback counters moved:\n%s", out)
	}
	proj := prof.Root()
	if proj == nil || proj.Name != "Project" || proj.VecBatches() == 0 || proj.RowFallbackBatches() != 0 {
		t.Fatalf("the UDF projection's batches are not counted vectorized:\n%s", prof.Render())
	}

	w.engine.Metrics = telemetry.NewRegistry()
	b, err = w.udfQuery(t, "return s + ':' + str(x)", types.KindString,
		"SELECT f(seller, amount + 1) AS a, f(upper(seller), amount) AS b FROM sales WHERE region = 'EU' ORDER BY amount", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := col(b, "a").StringAt(0) + " " + col(b, "b").StringAt(1); got != "ben:201 BEN:300" {
		t.Errorf("got %q\n%s", got, b.String())
	}
	fallbacks := 0
	for _, line := range strings.Split(w.engine.Metrics.RenderPrometheus(), "\n") {
		if strings.HasPrefix(line, "exec_vec_fallback_") {
			fallbacks++
		}
	}
	if fallbacks != 1 || w.engine.Metrics.Counter("exec.vec.fallback.ScalarFunc").Value() == 0 {
		t.Errorf("fallback counters:\n%s", w.engine.Metrics.RenderPrometheus())
	}

	// A filter whose UDF argument ran row by row counts its batches as
	// fallbacks, as a projection does.
	prof = telemetry.NewProfile()
	if _, err = w.udfQuery(t, "return s + ':' + str(x)", types.KindString,
		"SELECT seller FROM sales WHERE f(upper(seller), amount) <> 'x'", prof); err != nil {
		t.Fatal(err)
	}
	var filter *telemetry.OpStats
	for op := prof.Root(); op != nil && filter == nil; {
		if op.Name == "Filter" {
			filter = op
		} else if kids := op.Children(); len(kids) == 1 {
			op = kids[0]
		} else {
			op = nil
		}
	}
	if filter == nil || filter.RowFallbackBatches() == 0 || filter.VecBatches() != 0 {
		t.Fatalf("the filter's interpreted UDF argument is not counted:\n%s", prof.Render())
	}
}

// Fusion groups a wave's calls by trust domain, so the crossings run in an
// order other than the calls': each result must still land in the column
// its call was lifted to.
func TestFusedResultsLandInTheirCallsColumns(t *testing.T) {
	w := newWorld(t)
	fn := func(owner, body string, returns types.Kind) analyzer.TempFunc {
		return analyzer.TempFunc{Params: []types.Field{{Name: "s", Kind: types.KindString}}, Returns: returns, Body: body, Owner: owner}
	}
	q, err := sql.ParseQuery("SELECT f(seller) AS a, g(seller) AS b, h(seller) AS c FROM sales WHERE seller = 'ann'")
	if err != nil {
		t.Fatal(err)
	}
	a := analyzer.New(w.cat, adminCtx())
	a.TempFuncs = map[string]analyzer.TempFunc{
		"f": fn(admin, "return 'f:' + s", types.KindString),
		"g": fn("other@corp.com", "return len(s)", types.KindInt64),
		"h": fn(admin, "return 'h:' + s", types.KindString),
	}
	resolved, err := a.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.engine.ExecuteToBatch(NewQueryContext(w.cat, adminCtx()), optimizer.Optimize(resolved, optimizer.DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%s %d %s", col(b, "a").StringAt(0), col(b, "b").Int64(0), col(b, "c").StringAt(0)); got != "f:ann 3 h:ann" {
		t.Errorf("got %q\n%s", got, b.String())
	}
}

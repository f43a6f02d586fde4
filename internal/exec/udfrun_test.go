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

// Argument columns come from the statement's compiled programs, a scalar
// function's included, and a sandbox crossing is not a fallback: beside a
// UDF, a CASE on group membership and CURRENT_USER() compile with the
// statement's identity, no fallback series exists, and the projection's and
// filter's batches count as vectorized.
func TestUDFArgumentsUseVectorKernels(t *testing.T) {
	w := newWorld(t)
	w.engine.Metrics = telemetry.NewRegistry()
	noFallback := func(prof *telemetry.Profile, name string) {
		t.Helper()
		if out := w.engine.Metrics.RenderPrometheus(); strings.Contains(out, "exec_vec_fallback_") {
			t.Errorf("fallback series exist:\n%s", out)
		}
		for op := prof.Root(); op != nil; {
			if op.Name == name {
				if op.VecBatches() == 0 || op.RowFallbackBatches() != 0 {
					t.Errorf("the %s's batches are not counted vectorized:\n%s", name, prof.Render())
				}
				return
			}
			kids := op.Children()
			if len(kids) != 1 {
				break
			}
			op = kids[0]
		}
		t.Fatalf("no %s operator:\n%s", name, prof.Render())
	}
	prof := telemetry.NewProfile()
	b, err := w.udfQuery(t, "return s + ':' + str(x)", types.KindString,
		"SELECT f(seller, amount) AS a, CASE WHEN IS_ACCOUNT_GROUP_MEMBER('nobody') THEN seller ELSE 'r' END AS g, CURRENT_USER() AS u FROM sales", prof)
	if err != nil {
		t.Fatal(err)
	}
	if got := col(b, "a").StringAt(0) + " " + col(b, "g").StringAt(0) + " " + col(b, "u").StringAt(0); got != "ann:100 r "+admin {
		t.Errorf("got %q\n%s", got, b.String())
	}
	noFallback(prof, "Project")

	prof = telemetry.NewProfile()
	b, err = w.udfQuery(t, "return s + ':' + str(x)", types.KindString,
		"SELECT f(seller, amount + 1) AS a, f(upper(seller), amount) AS b FROM sales WHERE region = 'EU' ORDER BY amount", prof)
	if err != nil {
		t.Fatal(err)
	}
	if got := col(b, "a").StringAt(0) + " " + col(b, "b").StringAt(1); got != "ben:201 BEN:300" {
		t.Errorf("got %q\n%s", got, b.String())
	}
	noFallback(prof, "Project")

	prof = telemetry.NewProfile()
	if _, err = w.udfQuery(t, "return s + ':' + str(x)", types.KindString,
		"SELECT seller FROM sales WHERE f(upper(seller), amount) <> 'x'", prof); err != nil {
		t.Fatal(err)
	}
	noFallback(prof, "Filter")
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

package exec

import (
	"strings"
	"testing"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/sql"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// udfQuery runs sqlText with the temporary function `f(s STRING, x DOUBLE)`
// whose body is body.
func (w *world) udfQuery(t *testing.T, body string, returns types.Kind, sqlText string) (*types.Batch, error) {
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
	return w.engine.ExecuteToBatch(NewQueryContext(w.cat, adminCtx()), optimizer.Optimize(resolved, optimizer.DefaultOptions()))
}

// A negative substr bound and an oversized string are answers and user
// errors on both UDF paths: the sandbox is not quarantined, and the
// in-process baseline does not panic the engine.
func TestUDFArgumentEdgesOnBothPaths(t *testing.T) {
	for _, inProcess := range []bool{false, true} {
		w := newWorld(t)
		w.engine.UnsafeInProcessUDFs = inProcess
		b, err := w.udfQuery(t, "return substr(s, 0, -1) + '|' + substr(s, 1, 99)", types.KindString,
			"SELECT f(seller, amount) AS c FROM sales WHERE seller = 'ann' ORDER BY amount")
		if err != nil {
			t.Fatalf("inProcess=%v: %v", inProcess, err)
		}
		if b.NumRows() != 2 || col(b, "c").StringAt(0) != "|nn" {
			t.Errorf("inProcess=%v: substr result\n%s", inProcess, b.String())
		}
		_, err = w.udfQuery(t, "return s * 1000000000000", types.KindString, "SELECT f(seller, amount) AS c FROM sales")
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
// that fallback is counted. (The projection itself, which holds the UDF
// calls, counts its own UDFCall fallbacks.)
func TestUDFArgumentsUseVectorKernels(t *testing.T) {
	w := newWorld(t)
	w.engine.Metrics = telemetry.NewRegistry()
	b, err := w.udfQuery(t, "return s + ':' + str(x)", types.KindString,
		"SELECT f(seller, amount + 1) AS a, f(upper(seller), amount) AS b FROM sales WHERE region = 'EU' ORDER BY amount")
	if err != nil {
		t.Fatal(err)
	}
	if got := col(b, "a").StringAt(0) + " " + col(b, "b").StringAt(1); got != "ben:201 BEN:300" {
		t.Errorf("got %q\n%s", got, b.String())
	}
	fallbacks := 0
	for _, line := range strings.Split(w.engine.Metrics.RenderPrometheus(), "\n") {
		if strings.HasPrefix(line, "exec_vec_fallback_") && !strings.HasPrefix(line, "exec_vec_fallback_UDFCall") {
			fallbacks++
		}
	}
	if fallbacks != 1 || w.engine.Metrics.Counter("exec.vec.fallback.ScalarFunc").Value() == 0 {
		t.Errorf("fallback counters:\n%s", w.engine.Metrics.RenderPrometheus())
	}
}

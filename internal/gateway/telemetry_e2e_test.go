package gateway

import (
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"lakeguard/internal/catalog"
	"lakeguard/internal/connect"
	"lakeguard/internal/core"
	"lakeguard/internal/storage"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// newTracedFleet is newFleet plus a tracer on the Connect service, so every
// query mints a full end-to-end trace.
func newTracedFleet(t *testing.T, parallelism int) (*catalog.Catalog, *telemetry.Tracer, *httptest.Server) {
	t.Helper()
	cat := catalog.New(storage.NewStore(), nil)
	cat.AddAdmin(admin)
	g := New(Config{
		Provision: func(name string) *core.Server {
			return core.NewServer(core.Config{
				Name: name, Catalog: cat, Compute: catalog.ComputeServerless,
				Parallelism: parallelism,
			})
		},
	})
	tracer := telemetry.NewTracer()
	svc := connect.NewService(g, connect.TokenMap{"tok": admin})
	svc.SetTracer(tracer)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return cat, tracer, ts
}

// lastTrace returns the most recently completed trace.
func lastTrace(t *testing.T, tracer *telemetry.Tracer) *telemetry.Trace {
	t.Helper()
	recent := tracer.Recent()
	if len(recent) == 0 {
		t.Fatal("no completed traces")
	}
	return recent[len(recent)-1]
}

// TestEndToEndQueryTrace walks one query's trace through every layer: the
// Connect entry mints the trace, the gateway and core record their handling,
// the planning phases (analyze, optimize, sentinel verify) appear as spans,
// and execution contributes one span per physical operator with per-worker
// morsel spans and per-file storage GET spans underneath the parallel scan.
func TestEndToEndQueryTrace(t *testing.T) {
	cat, tracer, ts := newTracedFleet(t, 2)
	c := connect.Dial(ts.URL, "tok")
	if _, err := c.ExecSQL("CREATE TABLE ev (x BIGINT, tag STRING)"); err != nil {
		t.Fatal(err)
	}
	// Three INSERTs -> three data files, so the scan has morsels to
	// distribute across its two workers.
	for _, stmt := range []string{
		"INSERT INTO ev VALUES (1, 'a'), (2, 'b'), (3, 'a')",
		"INSERT INTO ev VALUES (4, 'b'), (5, 'a'), (6, 'b')",
		"INSERT INTO ev VALUES (7, 'a'), (8, 'b'), (9, 'a')",
	} {
		if _, err := c.ExecSQL(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Sql("SELECT tag, SUM(x) AS total FROM ev WHERE x > 1 GROUP BY tag").Collect(); err != nil {
		t.Fatal(err)
	}

	tr := lastTrace(t, tracer)
	if tr.Name() != "query" {
		t.Fatalf("last trace is %q, want query", tr.Name())
	}
	for _, name := range []string{
		"gateway.execute", "core.execute",
		"analyzer.analyze", "optimizer.optimize", "sentinel.verify",
		"exec.Aggregate", "exec.Scan", "exec.worker", "storage.get",
	} {
		if len(tr.Find(name)) == 0 {
			t.Errorf("trace has no %q span; spans: %v", name, spanNames(tr))
		}
	}
	// The pushed filter is absorbed into the scan, so the scan span carries
	// the predicate detail via the operator label; workers hang off the scan
	// subtree and each reports the morsels it pulled.
	// Both the parallel scan and the parallel aggregate contribute worker
	// pools of Parallelism=2 each, as direct children of their operator's
	// span.
	for _, op := range []string{"exec.Scan", "exec.Aggregate"} {
		for _, s := range tr.Find(op) {
			if !slices.ContainsFunc(s.Children(), func(c *telemetry.Span) bool { return c.Name() == "exec.worker" }) {
				t.Errorf("%s span has no exec.worker child", op)
			}
		}
	}
	workers := tr.Find("exec.worker")
	if len(workers) < 4 {
		t.Fatalf("want >= 4 worker spans, got %d", len(workers))
	}
	morsels := int64(0)
	for _, w := range workers {
		morsels += w.CountValue("morsels")
	}
	if morsels < 3 {
		t.Errorf("workers pulled %d morsels, want >= 3 (one per file)", morsels)
	}
	gets := tr.Find("storage.get")
	if len(gets) < 3 {
		t.Errorf("want >= 3 storage.get spans (one per data file), got %d", len(gets))
	}
	for _, g := range gets {
		if path, ok := g.Attr("path"); !ok || path == "" {
			t.Errorf("storage.get span missing path attribute")
		}
	}
	// The root span carries the caller identity stamped at the entry point.
	if user, _ := tr.Root().Attr("user"); user != admin {
		t.Errorf("root span user = %q, want %q", user, admin)
	}

	// Satellite: governance audit events are stamped with the same trace ID,
	// so a trace joins to its audit trail.
	if events := cat.Audit().ByTrace(tr.ID()); len(events) == 0 {
		t.Errorf("no audit events joined to trace %s", tr.ID())
	}

	// Every span that was opened during the session is closed again.
	if open := tracer.OpenSpans(); open != 0 {
		t.Errorf("%d spans left open", open)
	}
}

// TestTraceCoversSandboxCrossing runs a UDF query and asserts the trace
// reaches into the isolation layer: the sandbox crossing appears as a span
// in the same tree as the operators that fed it.
func TestTraceCoversSandboxCrossing(t *testing.T) {
	_, tracer, ts := newTracedFleet(t, 0)
	c := connect.Dial(ts.URL, "tok")
	if _, err := c.ExecSQL("CREATE TABLE nums (a BIGINT, b BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecSQL("INSERT INTO nums VALUES (1, 10), (2, 20), (3, 30)"); err != nil {
		t.Fatal(err)
	}
	params := []types.Field{
		{Name: "a", Kind: types.KindInt64},
		{Name: "b", Kind: types.KindInt64},
	}
	if err := c.RegisterFunction("addup", params, types.KindInt64, "return a + b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sql("SELECT addup(a, b) AS s FROM nums").Collect(); err != nil {
		t.Fatal(err)
	}

	tr := lastTrace(t, tracer)
	sandboxSpans := tr.Find("sandbox.execute")
	if len(sandboxSpans) == 0 {
		t.Fatalf("UDF query trace has no sandbox.execute span; spans: %v", spanNames(tr))
	}
	if len(tr.Find("exec.Project")) == 0 {
		t.Errorf("UDF query trace has no exec.Project span; spans: %v", spanNames(tr))
	}
	if open := tracer.OpenSpans(); open != 0 {
		t.Errorf("%d spans left open", open)
	}
}

// TestTraceIDReachesClient asserts the X-Trace-Id response header matches a
// retained trace, so a user can quote it against /debug/queries.
func TestTraceIDReachesClient(t *testing.T) {
	_, tracer, ts := newTracedFleet(t, 0)
	c := connect.Dial(ts.URL, "tok")
	if _, err := c.ExecSQL("CREATE TABLE h (x BIGINT)"); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, tr := range tracer.Recent() {
		ids = append(ids, tr.ID())
	}
	if len(ids) == 0 || ids[len(ids)-1] == "" {
		t.Fatalf("no trace IDs retained: %v", ids)
	}
}

func spanNames(tr *telemetry.Trace) string {
	var names []string
	for _, s := range tr.Spans() {
		names = append(names, s.Name())
	}
	return strings.Join(names, ", ")
}

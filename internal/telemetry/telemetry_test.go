package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartTrace(context.Background(), "query")
	if root == nil {
		t.Fatal("root span is nil")
	}
	root.SetAttr("user", "alice@corp.com")

	ctx2, child := StartSpan(ctx, "analyze")
	child.SetInt("nodes", 7)
	child.End()

	_, grand := StartSpan(ctx2, "inner")
	grand.Count("rows", 3)
	grand.Count("rows", 4)
	grand.End()

	if tr.OpenSpans() != 1 { // only root open
		t.Fatalf("OpenSpans = %d, want 1", tr.OpenSpans())
	}
	root.End()
	root.End() // idempotent
	if tr.OpenSpans() != 0 {
		t.Fatalf("OpenSpans after End = %d, want 0", tr.OpenSpans())
	}

	trace := root.trace
	if trace.ID() == "" || root.TraceID() != trace.ID() {
		t.Fatalf("trace id mismatch: %q vs %q", trace.ID(), root.TraceID())
	}
	if got := len(trace.Spans()); got != 3 {
		t.Fatalf("span count = %d, want 3", got)
	}
	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "analyze" {
		t.Fatalf("root children = %v", kids)
	}
	// "inner" is a child of "analyze" because StartSpan used analyze's ctx.
	if gk := kids[0].Children(); len(gk) != 1 || gk[0].Name() != "inner" {
		t.Fatalf("analyze children wrong: %v", gk)
	}
	if v := gk(trace); v != 7 {
		t.Fatalf("counted rows via helper = %d", v)
	}
	if u, ok := root.Attr("user"); !ok || u != "alice@corp.com" {
		t.Fatalf("attr user = %q, %v", u, ok)
	}
	if rows := trace.Find("inner")[0].CountValue("rows"); rows != 7 {
		t.Fatalf("rows count = %d, want 7", rows)
	}
	if len(tr.Recent()) != 1 {
		t.Fatalf("recent traces = %d, want 1", len(tr.Recent()))
	}
}

// gk pulls the accumulated rows count out of the trace to exercise Find.
func gk(trace *Trace) int64 {
	spans := trace.Find("inner")
	if len(spans) != 1 {
		return -1
	}
	return spans[0].CountValue("rows")
}

func TestSpanErrorStatus(t *testing.T) {
	tr := NewTracer()
	_, root := tr.StartTrace(context.Background(), "q")
	ctx := ContextWithSpan(context.Background(), root)
	_, s := StartSpan(ctx, "exec.scan")
	s.SetAttr("fault.site", "storage.get")
	s.EndErr(errors.New("injected: boom"))
	root.End()
	if s.Err() != "injected: boom" {
		t.Fatalf("err = %q", s.Err())
	}
	snap := s.snapshot()
	if snap.Status != "error" || snap.Attrs["fault.site"] != "storage.get" {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestNilSafety(t *testing.T) {
	var tracer *Tracer
	ctx, span := tracer.StartTrace(context.Background(), "q")
	if span != nil {
		t.Fatal("nil tracer minted a span")
	}
	ctx2, child := StartSpan(ctx, "x")
	if child != nil || ctx2 != ctx {
		t.Fatal("StartSpan on untraced ctx should return (ctx, nil)")
	}
	child.SetAttr("k", "v")
	child.SetInt("n", 1)
	child.Count("c", 1)
	child.Fail(errors.New("x"))
	child.EndErr(nil)
	child.End()
	if child.TraceID() != "" || child.Err() != "" || !child.Ended() {
		t.Fatal("nil span accessors")
	}
	if tracer.OpenSpans() != 0 || tracer.Recent() != nil {
		t.Fatal("nil tracer accessors")
	}

	var reg *Registry
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(5)
	reg.Histogram("h", nil).Observe(1)
	if reg.Counter("c").Value() != 0 {
		t.Fatal("nil registry counter")
	}

	var prof *Profile
	op := prof.NewOp(nil, "Scan", "")
	op.AddBatch(10)
	op.AddWall(time.Millisecond)
	op.CountEval()
	if prof.Render() != "" || op.Rows() != 0 {
		t.Fatal("nil profile")
	}
}

func TestSlowRing(t *testing.T) {
	tr := NewTracer()
	tr.SetRetain(2)
	tr.SetSlowThreshold(time.Nanosecond) // everything is slow
	for i := 0; i < 4; i++ {
		_, root := tr.StartTrace(context.Background(), "q")
		root.End()
	}
	if len(tr.Recent()) != 2 || len(tr.Slow()) != 2 {
		t.Fatalf("rings: recent=%d slow=%d, want 2/2", len(tr.Recent()), len(tr.Slow()))
	}
	tr2 := NewTracer() // threshold 0: slow ring disabled
	_, root := tr2.StartTrace(context.Background(), "q")
	root.End()
	if len(tr2.Slow()) != 0 {
		t.Fatal("slow ring should be disabled at threshold 0")
	}
}

func TestSpanConcurrentCounts(t *testing.T) {
	tr := NewTracer()
	_, root := tr.StartTrace(context.Background(), "q")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				root.Count("morsels", 1)
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := root.CountValue("morsels"); got != 800 {
		t.Fatalf("morsels = %d, want 800", got)
	}
}

func TestRegistryJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("queries.total").Add(3)
	reg.Gauge("sandbox.active").Set(2)
	h := reg.Histogram("query.total_ms", []float64{1, 10, 100})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000) // +Inf bucket
	if h.Count() != 4 || h.Sum() != 5055.5 {
		t.Fatalf("hist count=%d sum=%v", h.Count(), h.Sum())
	}
	if h.BucketCount(0) != 1 || h.BucketCount(1) != 1 || h.BucketCount(2) != 1 || h.BucketCount(3) != 1 {
		t.Fatalf("bucket spread wrong")
	}
	// Same name returns the same instrument.
	if reg.Counter("queries.total") != reg.Counter("queries.total") {
		t.Fatal("counter identity")
	}

	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var payload struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]struct {
			Count int64 `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, rec.Body.String())
	}
	if payload.Counters["queries.total"] != 3 || payload.Gauges["sandbox.active"] != 2 {
		t.Fatalf("payload = %+v", payload)
	}
	if payload.Histograms["query.total_ms"].Count != 4 {
		t.Fatalf("hist payload = %+v", payload.Histograms)
	}
}

func TestProfileRender(t *testing.T) {
	p := NewProfile()
	p.AnalyzeNanos = int64(400 * time.Microsecond)
	p.ExecNanos = int64(2 * time.Millisecond)
	p.TotalNanos = int64(3 * time.Millisecond)
	sortOp := p.NewOp(nil, "Sort", "amount")
	sortOp.AddWall(time.Millisecond)
	sortOp.AddBatch(4)
	filter := p.NewOp(sortOp, "Filter", "region = 'US'")
	filter.AddBatch(4)
	filter.CountEval()
	filter.CountEval()
	scan := p.NewOp(filter, "Scan", "main.default.sales")
	scan.AddBatch(8)

	out := p.Render()
	for _, want := range []string{
		"EXPLAIN ANALYZE",
		"Sort (amount)",
		"rows 4",
		"Filter (region = 'US')",
		"evaluated 2",
		"  Scan", // child indentation
		"rows 8",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestDebugQueriesHandler(t *testing.T) {
	tr := NewTracer()
	tr.SetSlowThreshold(time.Nanosecond)
	ctx, root := tr.StartTrace(context.Background(), "query")
	_, s := StartSpan(ctx, "exec.scan")
	s.End()
	root.End()

	rec := httptest.NewRecorder()
	DebugQueriesHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries", nil))
	var payload struct {
		OpenSpans int64 `json:"open_spans"`
		Recent    []struct {
			TraceID string `json:"trace_id"`
			Spans   int    `json:"spans"`
			Root    struct {
				Name     string `json:"name"`
				Children []struct {
					Name string `json:"name"`
				} `json:"children"`
			} `json:"root"`
		} `json:"recent"`
		Slow []json.RawMessage `json:"slow"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("debug JSON: %v\n%s", err, rec.Body.String())
	}
	if payload.OpenSpans != 0 || len(payload.Recent) != 1 || len(payload.Slow) != 1 {
		t.Fatalf("payload = %+v", payload)
	}
	got := payload.Recent[0]
	if got.Spans != 2 || got.Root.Name != "query" || len(got.Root.Children) != 1 || got.Root.Children[0].Name != "exec.scan" {
		t.Fatalf("trace snapshot = %+v", got)
	}
}

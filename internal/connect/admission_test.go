package connect

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lakeguard/internal/admission"
	"lakeguard/internal/audit"
	"lakeguard/internal/plan"
	"lakeguard/internal/proto"
	"lakeguard/internal/telemetry"
)

// newAdmissionService wires a service with a 1-slot admission controller,
// metrics, audit, and tracing — the full multi-tenant front door.
func newAdmissionService(t *testing.T, fb *fakeBackend) (*Service, *admission.Controller, *telemetry.Registry, *audit.Log, string) {
	t.Helper()
	met := telemetry.NewRegistry()
	aud := audit.NewLog()
	ctrl := admission.NewController(admission.Config{MaxConcurrent: 1, Metrics: met})
	svc, ts := newTestService(t, fb)
	svc.SetAdmission(ctrl)
	svc.SetAudit(aud)
	svc.SetTracer(telemetry.NewTracer())
	return svc, ctrl, met, aud, ts.URL
}

func (f *fakeBackend) executed() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.executions
}

// A request whose deadline budget cannot survive the predicted queue wait is
// shed in microseconds at the front door: the backend is never invoked, no
// plan is decoded, and the decision is audited exactly once.
func TestDeadlineShedBeforeBackend(t *testing.T) {
	schema, batches := intBatches([]int64{1})
	fb := &fakeBackend{schema: schema, batches: batches}
	_, ctrl, met, aud, url := newAdmissionService(t, fb)

	// Occupy the single execution slot so new arrivals must queue.
	busy, err := ctrl.Acquire(context.Background(), "occupier")
	if err != nil {
		t.Fatal(err)
	}

	c := Dial(url, "tok")
	c.SetTimeout(time.Millisecond) // far below the 10ms service estimate
	c.SetMaxRetries(0)
	start := time.Now()
	_, err = c.Sql("SELECT 1").Collect()
	elapsed := time.Since(start)

	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *OverloadedError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", oe.RetryAfter)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("shed took %v, want O(µs) (never queued, never executed)", elapsed)
	}
	if n := fb.executed(); n != 0 {
		t.Errorf("backend executions = %d, want 0 (shed before backend)", n)
	}
	if v := met.Counter("admission.shed").Value(); v != 1 {
		t.Errorf("admission.shed = %d, want 1", v)
	}
	if v := met.Counter("admission.queued").Value(); v != 0 {
		t.Errorf("admission.queued = %d, want 0 (shed pre-enqueue)", v)
	}
	sheds := aud.Events(func(e audit.Event) bool { return e.Action == "ADMISSION_SHED" })
	if len(sheds) != 1 {
		t.Fatalf("ADMISSION_SHED audit events = %d, want exactly 1", len(sheds))
	}
	if e := sheds[0]; e.User != "user@x" || e.Decision != audit.DecisionDeny || e.TraceID == "" {
		t.Errorf("audit event = %+v", e)
	}

	// Once the slot frees, the same client (with a sane budget) succeeds and
	// no second shed is recorded.
	busy.Release()
	c.SetTimeout(0)
	if _, err := c.Sql("SELECT 1").Collect(); err != nil {
		t.Fatalf("post-release query: %v", err)
	}
	if n := aud.Count(func(e audit.Event) bool { return e.Action == "ADMISSION_SHED" }); n != 1 {
		t.Errorf("ADMISSION_SHED count after success = %d, want 1 (no double count)", n)
	}
}

// The raw shed response carries both Retry-After (seconds, standard) and
// X-Retry-After-Millis (precise hint) on a 429 status.
func TestShedResponseHeaders(t *testing.T) {
	schema, batches := intBatches([]int64{1})
	_, ctrl, _, _, url := newAdmissionService(t, &fakeBackend{schema: schema, batches: batches})
	busy, err := ctrl.Acquire(context.Background(), "occupier")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Release()

	req, _ := http.NewRequest(http.MethodPost, url+"/v1/execute", nil)
	req.Header.Set("Authorization", "Bearer tok")
	req.Header.Set("X-Session-Id", "s1")
	req.Header.Set(TimeoutHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After header")
	}
	if resp.Header.Get(RetryAfterMillisHeader) == "" {
		t.Error("missing X-Retry-After-Millis header")
	}
}

// The EXPLAIN endpoints pass the same front door as /v1/execute: while the
// tenant's slots are held they are shed with 429 and Retry-After before the
// backend runs, and once admitted the client's deadline reaches the backend.
func TestExplainEndpointsAdmittedAndDeadlineBound(t *testing.T) {
	schema, batches := intBatches([]int64{1})
	fb := &fakeBackend{schema: schema, batches: batches}
	_, ctrl, _, _, url := newAdmissionService(t, fb)
	body, err := proto.EncodePlan(&plan.SQLRelation{Query: "SELECT 1"})
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, timeoutMillis string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer tok")
		req.Header.Set("X-Session-Id", "s1")
		req.Header.Set(TimeoutHeader, timeoutMillis)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	paths := []string{"/v1/analyze", "/v1/analyzeVerified"}

	busy, err := ctrl.Acquire(context.Background(), "occupier")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		resp := post(path, "1")
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("%s with slots held: status = %d, want 429", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" || resp.Header.Get(RetryAfterMillisHeader) == "" {
			t.Errorf("%s: shed response lacks Retry-After headers: %v", path, resp.Header)
		}
	}
	fb.mu.Lock()
	ran := len(fb.explainDeadlines)
	fb.mu.Unlock()
	if ran != 0 {
		t.Fatalf("backend ran %d shed EXPLAIN(s)", ran)
	}
	busy.Release()

	for _, path := range paths {
		if resp := post(path, "60000"); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s once admitted: status = %d", path, resp.StatusCode)
		}
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if len(fb.explainDeadlines) != len(paths) {
		t.Fatalf("backend EXPLAIN calls = %d, want %d", len(fb.explainDeadlines), len(paths))
	}
	for i, ok := range fb.explainDeadlines {
		if !ok {
			t.Errorf("%s: backend context has no deadline despite %s", paths[i], TimeoutHeader)
		}
	}
}

// A shed client retries with backoff and succeeds once capacity frees up.
func TestClientRetriesAfterShed(t *testing.T) {
	schema, batches := intBatches([]int64{7})
	fb := &fakeBackend{schema: schema, batches: batches}
	_, ctrl, _, _, url := newAdmissionService(t, fb)
	busy, err := ctrl.Acquire(context.Background(), "occupier")
	if err != nil {
		t.Fatal(err)
	}

	c := Dial(url, "tok")
	c.SetTimeout(time.Millisecond) // first attempt is deadline-shed
	var slept []time.Duration
	c.sleep = func(d time.Duration) {
		slept = append(slept, d)
		// Capacity returns while the client backs off; lift the tiny
		// deadline so the retry is admitted on the fast path.
		busy.Release()
		c.SetTimeout(0)
	}

	b, err := c.Sql("SELECT 7").Collect()
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if b.NumRows() != 1 || b.Cols[0].Int64(0) != 7 {
		t.Fatalf("result:\n%s", b.String())
	}
	if len(slept) != 1 {
		t.Fatalf("backoff sleeps = %d, want 1", len(slept))
	}
	if slept[0] <= 0 || slept[0] > 2*time.Second {
		t.Errorf("backoff = %v, want in (0, 2s]", slept[0])
	}
}

// ExplainAnalyze surfaces the admission queue wait in its rendered profile
// when the request had to wait for a slot.
func TestExplainAnalyzeShowsQueueWait(t *testing.T) {
	schema, batches := intBatches([]int64{1})
	fb := &fakeBackend{schema: schema, batches: batches}
	ctrl := admission.NewController(admission.Config{MaxConcurrent: 1})
	svc := NewService(fb, TokenMap{"tok": "user@x"})
	svc.SetAdmission(ctrl)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	busy, err := ctrl.Acquire(context.Background(), "occupier")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		busy.Release()
	}()

	c := Dial(ts.URL, "tok")
	analyze, _, err := c.SqlExplainAnalyze("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(analyze, "queue wait") {
		t.Fatalf("analyze output missing queue wait line:\n%s", analyze)
	}
}

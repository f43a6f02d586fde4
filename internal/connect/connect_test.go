package connect

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lakeguard/internal/arrowipc"
	"lakeguard/internal/plan"
	"lakeguard/internal/proto"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// fakeBackend returns canned batches and records calls (thread-safe: the
// sweeper closes sessions from its own goroutine).
type fakeBackend struct {
	schema  *types.Schema
	batches []*types.Batch
	err     error

	mu         sync.Mutex
	closed     []string
	executions int
	// explainDeadlines records, per Explain call, whether its context
	// carried a deadline.
	explainDeadlines []bool
}

func (f *fakeBackend) Execute(ctx context.Context, sessionID, user string, pl *proto.Plan) (*types.Schema, []*types.Batch, error) {
	f.mu.Lock()
	f.executions++
	f.mu.Unlock()
	if f.err != nil {
		return nil, nil, f.err
	}
	return f.schema, f.batches, nil
}

// Explain renders the relation, or under ExplainAnalyze a profile carrying
// the admission queue wait stamped on the request context, the same contract
// the core server honors.
func (f *fakeBackend) Explain(ctx context.Context, sessionID, user string, pl *proto.Plan, mode ExplainMode) (*types.Schema, string, int, error) {
	_, hasDeadline := ctx.Deadline()
	f.mu.Lock()
	f.explainDeadlines = append(f.explainDeadlines, hasDeadline)
	f.mu.Unlock()
	if f.err != nil {
		return nil, "", 0, f.err
	}
	if mode == ExplainAnalyze {
		prof := telemetry.NewProfile()
		prof.QueueWaitNanos = int64(telemetry.QueueWaitFrom(ctx))
		return f.schema, prof.Render(), 0, nil
	}
	return f.schema, "Explain: " + pl.Relation.String(), 0, nil
}

func (f *fakeBackend) CloseSession(sessionID string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = append(f.closed, sessionID)
}

func (f *fakeBackend) closedSessions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.closed)
}

func intBatches(groups ...[]int64) (*types.Schema, []*types.Batch) {
	schema := types.NewSchema(types.Field{Name: "n", Kind: types.KindInt64})
	var out []*types.Batch
	for _, vals := range groups {
		bb := types.NewBatchBuilder(schema, len(vals))
		for _, v := range vals {
			bb.AppendRow([]types.Value{types.Int64(v)})
		}
		out = append(out, bb.Build())
	}
	return schema, out
}

func newTestService(t *testing.T, backend Backend) (*Service, *httptest.Server) {
	t.Helper()
	svc := NewService(backend, TokenMap{"tok": "user@x", "tok2": "other@x"})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// heldBatches is a two-frame answer: the service holds it as an operation
// for reattach until it is released or swept.
func heldBatches() (*types.Schema, []*types.Batch) {
	return intBatches([]int64{1}, []int64{2})
}

// heldOps reports how many operations, tombstones included, svc holds.
func heldOps(svc *Service) int {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return len(svc.operations)
}

func TestClientServerRoundTrip(t *testing.T) {
	schema, batches := intBatches([]int64{1, 2}, []int64{3})
	fb := &fakeBackend{schema: schema, batches: batches}
	_, ts := newTestService(t, fb)
	c := Dial(ts.URL, "tok")
	b, err := c.Sql("SELECT n FROM t").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 3 || b.Cols[0].Int64(2) != 3 {
		t.Fatalf("result:\n%s", b.String())
	}
}

func TestAuthRequired(t *testing.T) {
	schema, batches := intBatches([]int64{1})
	_, ts := newTestService(t, &fakeBackend{schema: schema, batches: batches})
	// Bad token.
	c := Dial(ts.URL, "wrong")
	if _, err := c.Sql("SELECT 1").Collect(); err == nil {
		t.Error("bad token accepted")
	}
	// Missing session header.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/execute", bytes.NewReader(nil))
	req.Header.Set("Authorization", "Bearer tok")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestBackendErrorPropagates(t *testing.T) {
	fb := &fakeBackend{err: errors.New("permission denied: nope")}
	_, ts := newTestService(t, fb)
	c := Dial(ts.URL, "tok")
	_, err := c.Sql("SELECT 1").Collect()
	if err == nil || !strings.Contains(err.Error(), "permission denied") {
		t.Fatalf("err = %v", err)
	}
}

// execRaw posts a plan and returns the raw response without reading the
// stream fully.
func execRaw(t *testing.T, ts *httptest.Server, token, session string) (*http.Response, string) {
	t.Helper()
	body, err := proto.EncodeRootPlan(&proto.Plan{Relation: &plan.SQLRelation{Query: "SELECT 1"}})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/execute", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("X-Session-Id", session)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, resp.Header.Get("X-Operation-Id")
}

func TestReattachResumesFromOffset(t *testing.T) {
	schema, batches := intBatches([]int64{1}, []int64{2}, []int64{3})
	_, ts := newTestService(t, &fakeBackend{schema: schema, batches: batches})
	resp, opID := execRaw(t, ts, "tok", "s1")
	// Read only part of the stream, then drop the connection.
	_, partial, _ := func() (*types.Schema, []*types.Batch, error) {
		rd, err := arrowipc.NewReader(resp.Body)
		if err != nil {
			return nil, nil, err
		}
		b, err := rd.Next()
		return rd.Schema(), []*types.Batch{b}, err
	}()
	resp.Body.Close()
	if len(partial) != 1 {
		t.Fatal("setup: expected one batch read")
	}

	// Reattach from batch 1.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/reattach?operation="+opID+"&start=1", nil)
	req.Header.Set("Authorization", "Bearer tok")
	req.Header.Set("X-Session-Id", "s1")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	rd, err := arrowipc.NewReader(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	rest, frames, err := rd.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if frames != 2 || rest.NumRows() != 2 || rest.Cols[0].Int64(0) != 2 || rest.Cols[0].Int64(1) != 3 {
		t.Fatalf("reattach delivered %d batches", frames)
	}
}

func TestReattachCrossSessionForbidden(t *testing.T) {
	schema, batches := heldBatches()
	_, ts := newTestService(t, &fakeBackend{schema: schema, batches: batches})
	resp, opID := execRaw(t, ts, "tok", "s1")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if opID == "" {
		t.Fatal("a multi-frame answer named no operation")
	}

	// A different user (different session namespace) cannot reattach.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/reattach?operation="+opID+"&start=0", nil)
	req.Header.Set("Authorization", "Bearer tok2")
	req.Header.Set("X-Session-Id", "s1")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusForbidden {
		t.Errorf("status = %d", resp2.StatusCode)
	}
}

func TestTombstoningAfterIdle(t *testing.T) {
	schema, batches := heldBatches()
	svc, ts := newTestService(t, &fakeBackend{schema: schema, batches: batches})
	now := time.Unix(1000, 0)
	svc.SetClock(func() time.Time { return now })

	resp, opID := execRaw(t, ts, "tok", "s1")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	now = now.Add(time.Hour)
	ops, _ := svc.SweepIdle(10 * time.Minute)
	if ops != 1 {
		t.Fatalf("tombstoned %d operations", ops)
	}
	st, ok := svc.OperationStateOf(opID)
	if !ok || st != OpTombstoned {
		t.Fatalf("state = %v", st)
	}
	// Reattach now fails with Gone.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/reattach?operation="+opID+"&start=0", nil)
	req.Header.Set("Authorization", "Bearer tok")
	req.Header.Set("X-Session-Id", "s1")
	resp2, _ := http.DefaultClient.Do(req)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusGone {
		t.Errorf("status = %d", resp2.StatusCode)
	}
}

func TestIdleSessionSweepNotifiesBackend(t *testing.T) {
	schema, batches := intBatches([]int64{1})
	fb := &fakeBackend{schema: schema, batches: batches}
	svc, ts := newTestService(t, fb)
	now := time.Unix(1000, 0)
	svc.SetClock(func() time.Time { return now })
	resp, _ := execRaw(t, ts, "tok", "s1")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if svc.ActiveSessions() != 1 {
		t.Fatal("session not tracked")
	}
	now = now.Add(time.Hour)
	_, sessions := svc.SweepIdle(10 * time.Minute)
	if sessions != 1 || fb.closedSessions() != 1 {
		t.Fatalf("swept %d sessions, backend closed %d", sessions, fb.closedSessions())
	}
}

func TestAnalyzeEndpoint(t *testing.T) {
	schema, _ := intBatches()
	_, ts := newTestService(t, &fakeBackend{schema: schema})
	c := Dial(ts.URL, "tok")
	got, explain, err := c.AnalyzePlan(plan.NewUnresolvedRelation("t"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Fields[0].Name != "n" {
		t.Errorf("schema = %v", got)
	}
	if !strings.Contains(explain, "UnresolvedRelation t") {
		t.Errorf("explain = %q", explain)
	}
}

func TestReleaseFreesOperation(t *testing.T) {
	schema, batches := heldBatches()
	svc, ts := newTestService(t, &fakeBackend{schema: schema, batches: batches})
	resp, opID := execRaw(t, ts, "tok", "s1")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if _, ok := svc.OperationStateOf(opID); !ok {
		t.Fatalf("operation %q not held before release", opID)
	}
	c := DialSession(ts.URL, "tok", "s1")
	c.release(opID)
	if _, ok := svc.OperationStateOf(opID); ok {
		t.Error("operation not released")
	}
	// Client auto-releases after a successful collect.
	if _, err := c.Sql("SELECT 1").Collect(); err != nil {
		t.Fatal(err)
	}
	if n := heldOps(svc); n != 0 {
		t.Errorf("%d operations held after collect", n)
	}
}

func TestOperationTableStaysBounded(t *testing.T) {
	schema, batches := heldBatches()
	fb := &fakeBackend{schema: schema, batches: batches}
	svc, ts := newTestService(t, fb)
	now := time.Unix(1000, 0)
	svc.SetClock(func() time.Time { return now })
	drain := func(resp *http.Response) {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// A failing statement holds nothing, with or without a client release.
	fb.err = errors.New("boom")
	c := Dial(ts.URL, "tok")
	for i := 0; i < 10; i++ {
		if _, err := c.Sql("SELECT 1").Collect(); err == nil {
			t.Fatal("failing statement succeeded")
		}
		resp, opID := execRaw(t, ts, "tok", "s-fail")
		drain(resp)
		if opID != "" {
			t.Fatalf("a failed statement named operation %q", opID)
		}
	}
	if n := heldOps(svc); n != 0 {
		t.Fatalf("%d operations held after failed statements", n)
	}
	// Neither does a one-frame answer, read to the end or not.
	fb.err = nil
	fb.schema, fb.batches = intBatches([]int64{1, 2, 3})
	for i := 0; i < 10; i++ {
		resp, opID := execRaw(t, ts, "tok", "s-one")
		if i%2 == 0 {
			drain(resp)
		} else {
			resp.Body.Close()
		}
		if opID != "" {
			t.Fatalf("a one-frame answer named operation %q", opID)
		}
	}
	if n := heldOps(svc); n != 0 {
		t.Fatalf("%d operations held after one-frame answers", n)
	}

	// Clients that never release held answers, on sessions that go idle, with
	// failing statements in between: each sweep tombstones the idle
	// operations and evicts the tombstones of the sweep before, so at most
	// two windows of operations are held.
	fb.schema, fb.batches = schema, batches
	const maxAge = 10 * time.Minute
	const perWindow = 6
	for round := 0; round < 5; round++ {
		for i := 0; i < 2*perWindow; i++ {
			fb.err = nil
			if i%2 == 0 {
				fb.err = errors.New("boom")
			}
			resp, _ := execRaw(t, ts, "tok", "s"+string(rune('a'+round)))
			drain(resp)
		}
		now = now.Add(maxAge + time.Second)
		if ops, _ := svc.SweepIdle(maxAge); ops != perWindow {
			t.Fatalf("round %d: tombstoned %d operations, want %d", round, ops, perWindow)
		}
		if n := heldOps(svc); n > 2*perWindow {
			t.Fatalf("round %d: %d operations held, want at most %d", round, n, 2*perWindow)
		}
	}
	now = now.Add(maxAge + time.Second)
	svc.SweepIdle(maxAge)
	if n := heldOps(svc); n != 0 {
		t.Fatalf("%d operations held after every session closed and every tombstone aged out", n)
	}
}

func TestDataFrameBuilderShapes(t *testing.T) {
	schema, batches := intBatches([]int64{1})
	_, ts := newTestService(t, &fakeBackend{schema: schema, batches: batches})
	c := Dial(ts.URL, "tok")
	df := c.Table("main.default.sales").
		Where(Col("region").Eq(Lit("US")).And(Col("amount").Gt(Lit(10)))).
		Select(Col("seller"), Col("amount").Mul(Lit(2)).As("double"), "region").
		OrderBy(Col("double").Desc(), Col("seller").Asc()).
		Limit(7)
	explain := plan.Explain(df.Plan())
	for _, want := range []string{"Limit 7", "Sort", "Project", "Filter", "UnresolvedRelation main.default.sales", "double DESC"} {
		if !strings.Contains(explain, want) {
			t.Errorf("plan missing %q:\n%s", want, explain)
		}
	}
	// The captured plan round-trips through the wire format.
	data, err := proto.EncodePlan(df.Plan())
	if err != nil {
		t.Fatal(err)
	}
	back, err := proto.DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Explain(back) != explain {
		t.Error("wire round trip changed the plan")
	}
}

func TestColumnDSL(t *testing.T) {
	cases := []struct {
		col  Column
		want string
	}{
		{Col("a").Add(Lit(1)), "(a + 1)"},
		{Col("a").Sub(Lit(1)).Mul(Lit(2)), "((a - 1) * 2)"},
		{Col("a").Div(Lit(2.0)), "(a / 2)"},
		{Col("a").Neq(Lit("x")), "(a <> 'x')"},
		{Col("a").Lte(Lit(5)).Or(Col("b").Gte(Lit(6))), "((a <= 5) OR (b >= 6))"},
		{Col("a").IsNull(), "(a IS NULL)"},
		{Col("a").IsNotNull(), "(a IS NOT NULL)"},
		{Col("a").Like("x%"), "(a LIKE 'x%')"},
		{Col("a").In(Lit(1), Lit(2)), "(a IN (1, 2))"},
		{Col("a").Cast("STRING"), "CAST(a AS STRING)"},
		{Col("a").Not(), "(NOT a)"},
		{CurrentUser(), "CURRENT_USER()"},
		{Sum(Col("x")), "SUM(x)"},
		{CountAll(), "COUNT(*)"},
		{Lit(true), "true"},
		{Lit(int64(9)), "9"},
	}
	for _, c := range cases {
		if got := c.col.Expr().String(); got != c.want {
			t.Errorf("DSL: got %s want %s", got, c.want)
		}
	}
}

func TestStartSweeper(t *testing.T) {
	schema, batches := intBatches([]int64{1})
	fb := &fakeBackend{schema: schema, batches: batches}
	svc, ts := newTestService(t, fb)
	resp, _ := execRaw(t, ts, "tok", "s-sweep")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	stop := svc.StartSweeper(5*time.Millisecond, 1*time.Nanosecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if fb.closedSessions() > 0 {
			stop()
			stop() // double stop is safe
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("sweeper never swept the idle session")
}

// blockingBackend holds every Execute until release is closed, after
// signalling started.
type blockingBackend struct {
	*fakeBackend
	started, release chan struct{}
}

func (b *blockingBackend) Execute(ctx context.Context, sessionID, user string, pl *proto.Plan) (*types.Schema, []*types.Batch, error) {
	close(b.started)
	<-b.release
	return b.fakeBackend.Execute(ctx, sessionID, user, pl)
}

// A statement that runs longer than the idle limit keeps its session: the
// sweep that runs while it is in flight closes nothing, and the answer
// arrives.
func TestInFlightStatementKeepsItsSession(t *testing.T) {
	schema, batches := intBatches([]int64{1, 2})
	fb := &blockingBackend{
		fakeBackend: &fakeBackend{schema: schema, batches: batches},
		started:     make(chan struct{}),
		release:     make(chan struct{}),
	}
	svc, ts := newTestService(t, fb)
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	svc.SetClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	})

	type answer struct {
		b   *types.Batch
		err error
	}
	done := make(chan answer, 1)
	go func() {
		b, err := Dial(ts.URL, "tok").Sql("SELECT n FROM t").Collect()
		done <- answer{b, err}
	}()
	<-fb.started
	mu.Lock()
	now = now.Add(time.Hour)
	mu.Unlock()
	_, swept := svc.SweepIdle(10 * time.Minute)
	close(fb.release)
	got := <-done

	if swept != 0 || fb.closedSessions() != 0 {
		t.Fatalf("swept %d sessions, backend closed %d, with a statement in flight", swept, fb.closedSessions())
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.b.NumRows() != 2 || got.b.Cols[0].Int64(1) != 2 {
		t.Fatalf("answer:\n%s", got.b.String())
	}
	if svc.ActiveSessions() != 1 {
		t.Fatalf("%d active sessions, want 1", svc.ActiveSessions())
	}
}

// Reattaches racing the sweeper see a whole answer, 410 Gone once the
// operation is tombstoned, or 404 once the tombstone is evicted; the handler
// reads the operation only under the service lock (run under -race). Every
// sweep sees a later clock, so each operation is tombstoned and evicted
// while its reattaches are in flight.
func TestReattachRacesSweeper(t *testing.T) {
	schema, batches := heldBatches()
	svc, ts := newTestService(t, &fakeBackend{schema: schema, batches: batches})
	var ticks atomic.Int64
	svc.SetClock(func() time.Time { return time.Unix(1000+ticks.Add(1), 0) })
	body, err := proto.EncodeRootPlan(&proto.Plan{Relation: &plan.SQLRelation{Query: "SELECT 1"}})
	if err != nil {
		t.Fatal(err)
	}
	do := func(method, path string, body []byte) (*http.Response, error) {
		req, _ := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer tok")
		req.Header.Set("X-Session-Id", "s1")
		return http.DefaultClient.Do(req)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := do("POST", "/v1/execute", body)
				if err != nil {
					t.Error(err)
					return
				}
				opID := resp.Header.Get("X-Operation-Id")
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				for j := 0; j < 3; j++ {
					resp, err := do("GET", "/v1/reattach?operation="+opID+"&start=0", nil)
					if err != nil {
						t.Error(err)
						return
					}
					switch resp.StatusCode {
					case http.StatusOK:
						if b, _, err := new(frameBuffer).drain(resp.Body); err != nil || b.NumRows() != 2 {
							t.Errorf("reattach answered a partial stream: %v", err)
						}
					case http.StatusGone, http.StatusNotFound:
					default:
						t.Errorf("reattach status %d", resp.StatusCode)
					}
					resp.Body.Close()
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			return
		default:
			svc.SweepIdle(time.Second)
		}
	}
}

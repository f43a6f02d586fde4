package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/arrowipc"
	"lakeguard/internal/catalog"
	"lakeguard/internal/delta"
	"lakeguard/internal/eval"
	"lakeguard/internal/exec"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/proto"
	"lakeguard/internal/sentinel"
	"lakeguard/internal/sql"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// counts are the non-time measurements of one traced statement, by name.
type counts map[string]float64

// tracedClient runs one client's statements with benchmark-owned spans
// around every call into a layer's public functions: a staged copy of
// connect.Client, and for reads a staged in-process replay that mirrors
// core.runQueryPhases against the same catalog, principal and session.
type tracedClient struct {
	env    *env
	client int
	rec    *recorder
	http   *http.Client

	stmts    []tracedStmt   // by statement id
	dmlTurns map[string]int // per DML class: alternate HTTP and in-process
}

// tracedStmt is the class and the counts of one traced statement.
type tracedStmt struct {
	class string
	c     counts
}

func newTracedClient(e *env, client int, rec *recorder) *tracedClient {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 64
	return &tracedClient{
		env: e, client: client, rec: rec, http: &http.Client{Transport: tr},
		dmlTurns: map[string]int{},
	}
}

func (tc *tracedClient) close() { tc.http.CloseIdleConnections() }

// handleSink returns the world's sink for server-side handler times: it
// files each one as a connect.handle span of the statement that sent the
// request.
func handleSink(tcs []*tracedClient) func(tag string, start, end time.Time) {
	return func(tag string, start, end time.Time) {
		var client, stmt, parent int
		var class string
		if _, err := fmt.Sscanf(tag, "%d %d %d %s", &client, &stmt, &parent, &class); err != nil || client < 0 || client >= len(tcs) {
			return // not one of ours
		}
		tcs[client].rec.record(parent, stmt, class, "connect.handle", start, end)
	}
}

func planOf(s stmt) *proto.Plan {
	if s.dml {
		return &proto.Plan{Command: &proto.Command{SQL: s.sql}}
	}
	return &proto.Plan{Relation: &plan.SQLRelation{Query: s.sql}}
}

// run executes one statement exactly once against workload state and returns
// its answer for the oracle and the client-observed latency in ns (0 when
// the statement was a DML turn timed in-process).
func (tc *tracedClient) run(s stmt) (*types.Batch, int64, error) {
	id := len(tc.stmts)
	c := counts{}
	tc.stmts = append(tc.stmts, tracedStmt{class: s.class, c: c})
	token := tc.env.token(s)
	user := tokens[token]
	// The Connect service keys session state by user + "/" + client session.
	sessionID := user + "/" + tc.env.clients[tc.client][token].SessionID()

	if s.dml {
		turn := tc.dmlTurns[s.class]
		tc.dmlTurns[s.class]++
		if turn%2 == 1 {
			b, err := tc.coreDML(id, s, sessionID, user)
			if err == nil && s.commitTwin != nil {
				err = tc.scratchCommit(id, s)
			}
			return b, 0, err
		}
	}
	b, body, lat, err := tc.stagedExecute(id, s, token, c)
	if err != nil || s.dml {
		return b, lat, err
	}
	if err := tc.replay(id, s, body, sessionID, user, b, c); err != nil {
		return nil, lat, fmt.Errorf("replay: %w", err)
	}
	return b, lat, nil
}

// countingReader counts the bytes of a response body.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// stagedExecute is connect.Client.ExecutePlan with a span per stage: encode
// the plan, POST it, read and decode the Arrow-IPC stream, concatenate the
// batches, release the operation.
func (tc *tracedClient) stagedExecute(id int, s stmt, token string, c counts) (*types.Batch, []byte, int64, error) {
	sid := tc.env.clients[tc.client][token].SessionID()
	root := tc.rec.begin(-1, id, s.class, "client.stmt")
	defer tc.rec.end(root)
	start := tc.rec.now()

	sp := tc.rec.begin(root, id, s.class, "proto.encode")
	body, err := proto.EncodeRootPlan(planOf(s))
	tc.rec.end(sp)
	if err != nil {
		return nil, nil, 0, err
	}
	c["plan_bytes"] = float64(len(body))

	newReq := func(path string, payload []byte) (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, tc.env.world.http.URL+path, bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Authorization", "Bearer "+token)
		req.Header.Set("X-Session-Id", sid)
		return req, nil
	}

	sp = tc.rec.begin(root, id, s.class, "connect.execute")
	req, err := newReq("/v1/execute", body)
	if err != nil {
		tc.rec.end(sp)
		return nil, nil, 0, err
	}
	req.Header.Set(spanHeader, fmt.Sprintf("%d %d %d %s", tc.client, id, root, s.class))
	resp, err := tc.http.Do(req)
	tc.rec.end(sp)
	if err != nil {
		return nil, nil, 0, err
	}
	defer resp.Body.Close()
	opID := resp.Header.Get("X-Operation-Id")
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, nil, 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}

	sp = tc.rec.begin(root, id, s.class, "connect.read_stream")
	cr := &countingReader{r: resp.Body}
	schema, batches, err := readStream(cr)
	tc.rec.end(sp)
	if err != nil {
		return nil, nil, 0, err
	}
	c["result_bytes"] = float64(cr.n)

	sp = tc.rec.begin(root, id, s.class, "arrowipc.concat")
	out, err := arrowipc.ConcatBatches(schema, batches)
	tc.rec.end(sp)
	if err != nil {
		return nil, nil, 0, err
	}
	c["result_rows"] = float64(out.NumRows())

	sp = tc.rec.begin(root, id, s.class, "connect.release")
	req, err = newReq("/v1/release?operation="+opID, nil)
	if err == nil {
		var rel *http.Response
		if rel, err = tc.http.Do(req); err == nil {
			rel.Body.Close()
		}
	}
	tc.rec.end(sp)
	if err != nil {
		return nil, nil, 0, err
	}
	return out, body, tc.rec.now() - start, nil
}

func readStream(r io.Reader) (*types.Schema, []*types.Batch, error) {
	rd, err := arrowipc.NewReader(r)
	if err != nil {
		return nil, nil, err
	}
	var batches []*types.Batch
	for {
		b, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return rd.Schema(), batches, nil
		}
		if err != nil {
			return nil, nil, err
		}
		batches = append(batches, b)
	}
}

// coreDML times a mutating statement at core.Server.Execute; it is the
// statement's only execution.
func (tc *tracedClient) coreDML(id int, s stmt, sessionID, user string) (*types.Batch, error) {
	root := tc.rec.begin(-1, id, s.class, "replay.stmt")
	defer tc.rec.end(root)
	sp := tc.rec.begin(root, id, s.class, "core.execute")
	schema, batches, err := tc.env.world.server().Execute(context.Background(), sessionID, user, planOf(s))
	tc.rec.end(sp)
	if err != nil {
		return nil, err
	}
	return arrowipc.ConcatBatches(schema, batches)
}

// scratchCommit appends the batch an INSERT just wrote to a scratch table
// through catalog.AppendToTable: the commit path (data-file encode and PUT,
// log CAS, checkpoint) without parse and cast.
func (tc *tracedClient) scratchCommit(id int, s stmt) error {
	parts, batches := s.commitTwin()
	sp := tc.rec.begin(-1, id, s.class, "delta.commit")
	_, err := tc.env.world.cat.AppendToTable(reqCtx(tc.env.inst.mainOwner), parts, batches)
	tc.rec.end(sp)
	return err
}

// timedTables wraps the catalog as the engine's table provider with a span
// around every snapshot open and every data-file read.
type timedTables struct {
	tc    *tracedClient
	id    int
	class string
	exec  int // parent span
	rows  *atomic.Int64
}

func (t *timedTables) OpenSnapshot(ctx catalog.RequestContext, table string, version int64) (*delta.Snapshot, func(string) (*types.Batch, error), error) {
	sp := t.tc.rec.begin(t.exec, t.id, t.class, "catalog.open_snapshot")
	snap, read, err := t.tc.env.world.cat.OpenSnapshot(ctx, table, version)
	t.tc.rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	return snap, func(path string) (*types.Batch, error) {
		sp := t.tc.rec.begin(t.exec, t.id, t.class, "catalog.read_file")
		b, err := read(path)
		t.tc.rec.end(sp)
		if err == nil {
			t.rows.Add(int64(b.NumRows()))
		}
		return b, err
	}, nil
}

// replay re-runs a read statement in process, one span per stage of
// core.runQueryPhases, then the whole calls gateway.Execute and
// core.Server.Execute for the same plan. answer is what the staged client
// got; the replay must return the same rows.
func (tc *tracedClient) replay(id int, s stmt, body []byte, sessionID, user string, answer *types.Batch, c counts) error {
	w := tc.env.world
	bg := context.Background()
	root := tc.rec.begin(-1, id, s.class, "replay.stmt")
	defer tc.rec.end(root)
	stage := func(name string) func() {
		sp := tc.rec.begin(root, id, s.class, name)
		return func() { tc.rec.end(sp) }
	}

	done := stage("proto.decode")
	pl, err := proto.DecodeRootPlan(body)
	done()
	if err != nil {
		return err
	}

	done = stage("admission.acquire")
	ticket, err := w.ctrl.Acquire(bg, user)
	if err == nil {
		ticket.Release()
	}
	done()
	if err != nil {
		return err
	}

	done = stage("gateway.execute")
	_, _, err = w.gw.Execute(bg, sessionID, user, pl)
	done()
	if err != nil {
		return err
	}
	if pl, err = proto.DecodeRootPlan(body); err != nil {
		return err
	}
	done = stage("core.execute")
	_, _, err = w.server().Execute(bg, sessionID, user, pl)
	done()
	if err != nil {
		return err
	}

	if g := tc.env.inst.governedTwin; g != nil && g.class == s.class {
		// The ungoverned twin of this statement, at the same seam.
		done = stage("core.execute_twin")
		_, _, err = w.server().Execute(bg, sessionID, user, planOf(*tc.env.inst.twin))
		done()
		if err != nil {
			return err
		}
	}

	done = stage("sql.parse")
	rel, err := sql.ParseQuery(s.sql)
	done()
	if err != nil {
		return err
	}

	rctx := catalog.RequestContext{User: user, Compute: catalog.ComputeServerless, ClusterID: "serverless-0", SessionID: sessionID}
	done = stage("analyzer.analyze")
	an := analyzer.New(w.cat, rctx)
	if st, ok := w.sessions.Get(sessionID); ok {
		an.TempViews, an.TempFuncs = st.TempViews, st.TempFuncs
	}
	resolved, err := an.AnalyzeCtx(bg, rel)
	done()
	if err != nil {
		return err
	}

	done = stage("optimizer.optimize")
	optimized := optimizer.OptimizeCtx(bg, resolved, optimizer.DefaultOptions())
	done()

	done = stage("sentinel.verify")
	report := sentinel.VerifyCtx(bg, resolved, optimized)
	done()
	if err := report.Err(); err != nil {
		return err
	}

	done = stage("sentinel.seal")
	sealed, err := sentinel.Seal(optimized, report)
	done()
	if err != nil {
		return err
	}

	done = stage("sentinel.check")
	err = sealed.Check()
	done()
	if err != nil {
		return err
	}

	prof := telemetry.NewProfile()
	var scanned atomic.Int64
	execSpan := tc.rec.begin(root, id, s.class, "exec.execute")
	engine := &exec.Engine{
		Tables:     &timedTables{tc: tc, id: id, class: s.class, exec: execSpan, rows: &scanned},
		Dispatcher: w.server().Dispatcher(), FuseUDFs: true, Parallelism: pinnedParallelism,
	}
	qc := exec.NewQueryContext(w.cat, rctx)
	qc.Context = bg
	qc.Profile = prof
	qc.VerifiedPlan = sealed.Fingerprint()
	batches, err := engine.Execute(qc, sealed.Plan)
	tc.rec.end(execSpan)
	if err != nil {
		return err
	}

	if tc.env.inst.udfCalls[s.class] > 0 {
		// The same sealed plan with user code run inside the engine: the
		// difference to exec.execute is the price of the isolation boundary.
		unsafe := *engine
		unsafe.Tables = w.cat
		unsafe.UnsafeInProcessUDFs = true
		uqc := exec.NewQueryContext(w.cat, rctx)
		uqc.Context = bg
		uqc.VerifiedPlan = sealed.Fingerprint()
		done = stage("exec.execute_inproc")
		_, err = unsafe.Execute(uqc, sealed.Plan)
		done()
		if err != nil {
			return err
		}
	}

	var wire bytes.Buffer
	done = stage("arrowipc.encode")
	wr, err := arrowipc.NewWriter(&wire, resolved.Schema())
	for i := 0; err == nil && i < len(batches); i++ {
		err = wr.WriteBatch(batches[i])
	}
	if err == nil {
		err = wr.Close()
	}
	done()
	if err != nil {
		return err
	}

	done = stage("arrowipc.decode")
	schema, decoded, err := readStream(&wire)
	done()
	if err != nil {
		return err
	}
	got, err := arrowipc.ConcatBatches(schema, decoded)
	if err != nil {
		return err
	}
	// With writers beside the readers the table moves between the client's
	// read and its replay; only a read-only workload must replay identically.
	if !tc.env.wl.mutates() {
		var dg digester
		if want, have := dg.batch(answer), dg.batch(got); want != have {
			return fmt.Errorf("%s: replay returned %v, the client got %v", s.class, have, want)
		}
	}

	c["replayed"] = 1
	c["rows_scanned"] = float64(scanned.Load())
	profileCounts(prof, c)
	ok, total := compileVecShare(sealed.Plan)
	c["vec_exprs_ok"], c["vec_exprs"] = float64(ok), float64(total)
	return nil
}

// opBucket maps an operator name of the profile tree to a metric suffix.
var opBucket = map[string]string{
	"Scan": "scan", "Filter": "filter", "Project": "project", "SecureView": "secureview",
	"Aggregate": "agg", "Join": "join", "Sort": "sort",
}

// profileCounts folds a query profile into counts: per-operator self time
// (wall minus the children's wall; wall is inclusive) and the scan, runtime
// filter, spill and vectorization counters.
func profileCounts(prof *telemetry.Profile, c counts) {
	rootOp := prof.Root()
	if rootOp == nil {
		return
	}
	c["rows_out"] = float64(rootOp.Rows())
	var walk func(o *telemetry.OpStats)
	walk = func(o *telemetry.OpStats) {
		self := o.Wall()
		for _, k := range o.Children() {
			self -= k.Wall()
			walk(k)
		}
		if self < 0 {
			self = 0
		}
		if b, ok := opBucket[o.Name]; ok {
			c["op:"+b] += float64(self)
		}
		c["files_scanned"] += float64(o.FilesScanned())
		c["files_pruned"] += float64(o.FilesPruned())
		c["rf_files_pruned"] += float64(o.RuntimeFilePruned())
		c["rf_rows_filtered"] += float64(o.RuntimeFilteredRows())
		c["spill_bytes"] += float64(o.SpillBytes())
		c["read_bytes"] += float64(o.ReadBytes())
		c["vec_batches"] += float64(o.VecBatches())
		c["row_batches"] += float64(o.RowFallbackBatches())
	}
	walk(rootOp)
}

// compileVecShare counts the filter, projection and pushed-scan expressions
// of a plan for which eval.CompileVec accepts the expression.
func compileVecShare(p plan.Node) (ok, total int) {
	kinds := func(s *types.Schema) []types.Kind {
		ks := make([]types.Kind, len(s.Fields))
		for i, f := range s.Fields {
			ks[i] = f.Kind
		}
		return ks
	}
	try := func(exprs []plan.Expr, in *types.Schema) {
		for _, e := range exprs {
			total++
			if _, compiled := eval.CompileVec(e, kinds(in)); compiled {
				ok++
			}
		}
	}
	plan.Walk(p, func(n plan.Node) bool {
		switch t := n.(type) {
		case *plan.Filter:
			try([]plan.Expr{t.Cond}, t.Child.Schema())
		case *plan.Project:
			try(t.Exprs, t.Child.Schema())
		case *plan.Scan:
			try(t.PushedFilters, t.Schema())
		}
		return true
	})
	return ok, total
}

package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lakeguard/internal/audit"
	"lakeguard/internal/catalog"
	"lakeguard/internal/exec"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/sentinel"
	"lakeguard/internal/session"
	"lakeguard/internal/sql"
	"lakeguard/internal/systemtables"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// The query seam: every relation a client can submit, through any entry
// point, passes compile (and, to execute, run); no other path reaches the
// optimizer, the sentinel or the engine. Each phase's span, histogram and
// profile slot attaches here, once.

// compiled is a relation that cleared the compile stage: its analyzed plan
// (whose schema is the result schema), the optimized plan and the sentinel
// report that verified one against the other.
type compiled struct {
	resolved  plan.Node
	optimized plan.Node
	report    *sentinel.Report
}

// compile is the seam's first stage. st supplies the session's temp views
// and functions; nil resolves none, which a materialized view's body needs
// because it must never see its refresher's session state. prof, when
// non-nil, receives the phase timings.
func (s *Server) compile(qctx context.Context, ctx catalog.RequestContext, st *session.State, rel plan.Node, prof *telemetry.Profile) (compiled, error) {
	rel, err := substituteSQL(rel)
	if err != nil {
		return compiled{}, err
	}
	t0 := time.Now()
	resolved, err := s.newAnalyzer(ctx, st).AnalyzeCtx(qctx, rel)
	d := lap(s.met.hAnalyze, t0)
	if prof != nil {
		prof.AnalyzeNanos = d
	}
	if err != nil {
		return compiled{}, err
	}
	t0 = time.Now()
	optimized := optimizer.OptimizeCtx(qctx, resolved, s.opts)
	d = lap(s.met.hOptimize, t0)
	if prof != nil {
		prof.OptimizeNanos = d
	}
	t0 = time.Now()
	report, err := s.verifyOptimized(qctx, ctx, resolved, optimized)
	d = lap(s.met.hVerify, t0)
	if prof != nil {
		prof.VerifyNanos = d
	}
	if err != nil {
		return compiled{}, err
	}
	return compiled{resolved: resolved, optimized: optimized, report: report}, nil
}

// run is the seam's second stage: it compiles the relation, seals the
// verified plan, executes the sealed copy on the Workload Environment's
// engine, counts the rows out and, when the server spools system tables,
// records the query-history row, on success and error alike. With a spooler
// every query is profiled, so that row carries operator totals; prof, when
// non-nil, is the caller's EXPLAIN ANALYZE profile.
func (s *Server) run(qctx context.Context, ctx catalog.RequestContext, st *session.State, rel plan.Node, env string, prof *telemetry.Profile) (schema *types.Schema, batches []*types.Batch, err error) {
	spool := s.cfg.SystemTables
	if prof == nil && spool != nil {
		prof = telemetry.NewProfile()
	}
	if prof != nil {
		prof.QueueWaitNanos = int64(telemetry.QueueWaitFrom(qctx))
		start := time.Now()
		defer func() {
			prof.TotalNanos = int64(time.Since(start))
			if spool != nil {
				spool.RecordQuery(queryRecord(ctx, sqlTextOf(qctx, rel), prof, err))
			}
		}()
	}
	engine, err := s.engineFor(env)
	if err != nil {
		return nil, nil, err
	}
	c, err := s.compile(qctx, ctx, st, rel, prof)
	if err != nil {
		return nil, nil, err
	}
	// Execute the sealed copy, never the optimizer's tree: nothing holding a
	// reference to the verified plan can rewrite what actually runs.
	sealed, err := s.sealVerified(ctx, c.report, c.optimized)
	if err != nil {
		return nil, nil, err
	}
	qc := exec.NewQueryContext(s.cat, ctx)
	qc.Context = qctx
	qc.Profile = prof
	qc.VerifiedPlan = sealed.Fingerprint()
	t0 := time.Now()
	batches, err = engine.Execute(qc, sealed.Plan)
	d := lap(s.met.hExec, t0)
	if prof != nil {
		prof.ExecNanos = d
	}
	if err != nil {
		return nil, nil, err
	}
	s.met.rowsOut.Add(numRows(batches))
	return c.resolved.Schema(), batches, nil
}

// lap observes the time since t0 on a phase histogram and returns it in
// nanoseconds for the phase's profile slot.
func lap(h *telemetry.Histogram, t0 time.Time) int64 {
	d := time.Since(t0)
	h.Observe(ms(d))
	return int64(d)
}

// numRows totals the rows of a result.
func numRows(batches []*types.Batch) int64 {
	var n int64
	for _, b := range batches {
		n += int64(b.NumRows())
	}
	return n
}

// verifyOptimized is the mandatory sentinel gate between the optimizer and
// everything that consumes an optimized plan (execution, EXPLAIN, MV
// refresh). It statically proves the optimizer preserved every policy
// obligation of the analyzed plan and records an audit event for the
// verification itself — pass or fail — attributed to the requesting user,
// session, and plan fingerprint. A violating plan never reaches the engine.
func (s *Server) verifyOptimized(qctx context.Context, ctx catalog.RequestContext, resolved, optimized plan.Node) (*sentinel.Report, error) {
	report := sentinel.VerifyCtx(qctx, resolved, optimized)
	decision := audit.DecisionAllow
	reason := fmt.Sprintf("verified: %d barrier(s), %d remote scan(s)", report.Barriers, report.RemoteScans)
	err := report.Err()
	if err != nil {
		decision = audit.DecisionDeny
		// The audit event enumerates every violation, not the error's
		// first-plus-count summary: the trail must attribute each violated
		// invariant and governance label.
		parts := make([]string, len(report.Violations))
		for i, v := range report.Violations {
			parts[i] = v.String()
		}
		reason = strings.Join(parts, "; ")
	}
	s.cat.Audit().Record(audit.Event{
		User: ctx.User, Compute: string(ctx.Compute), SessionID: ctx.SessionID,
		Action: "SENTINEL_VERIFY", Securable: "plan:" + report.Fingerprint,
		Decision: decision, Reason: reason, TraceID: ctx.TraceID,
	})
	return report, err
}

// sealVerified closes the time-of-check/time-of-use window between sentinel
// verification and execution: the verified plan is deep-copied into a
// private tree pinned to the verified fingerprint, and the seal is
// re-checked immediately before the copy is handed to the engine. A plan
// that drifted in that window — a hostile ExtraRule holding a reference, a
// misbehaving cache — is refused with a SENTINEL_VERIFY deny audit event,
// exactly like a plan that failed verification outright.
func (s *Server) sealVerified(ctx catalog.RequestContext, report *sentinel.Report, optimized plan.Node) (*sentinel.Sealed, error) {
	sealed, err := sentinel.Seal(optimized, report)
	if err == nil {
		err = sealed.Check()
	}
	if err != nil {
		s.cat.Audit().Record(audit.Event{
			User: ctx.User, Compute: string(ctx.Compute), SessionID: ctx.SessionID,
			Action: "SENTINEL_VERIFY", Securable: "plan:" + report.Fingerprint,
			Decision: audit.DecisionDeny, Reason: err.Error(), TraceID: ctx.TraceID,
		})
		return nil, err
	}
	return sealed, nil
}

// substituteSQL replaces SQLRelation nodes with their parsed plans.
func substituteSQL(n plan.Node) (plan.Node, error) {
	var firstErr error
	out := plan.Transform(n, func(x plan.Node) plan.Node {
		if sr, ok := x.(*plan.SQLRelation); ok {
			q, err := sql.ParseQuery(sr.Query)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return x
			}
			return q
		}
		return x
	})
	return out, firstErr
}

// sqlTextKey carries the raw statement text from the SQL command entry
// point down to the history spooler.
type sqlTextKey struct{}

// withSQLText annotates a query context with the statement being executed.
func withSQLText(qctx context.Context, text string) context.Context {
	return context.WithValue(qctx, sqlTextKey{}, text)
}

// sqlTextOf extracts the original statement for the query-history row: the
// annotated command text when the query entered as SQL, else the first
// SQL-bearing relation in the submitted tree. Plans submitted as raw
// relation trees spool a placeholder rather than a policy-leaking render.
func sqlTextOf(qctx context.Context, rel plan.Node) string {
	if text, ok := qctx.Value(sqlTextKey{}).(string); ok && text != "" {
		return text
	}
	var text string
	plan.Walk(rel, func(n plan.Node) bool {
		if sr, ok := n.(*plan.SQLRelation); ok {
			text = sr.Query
			return false
		}
		return true
	})
	if text != "" {
		return text
	}
	return "<relation plan>"
}

// queryRecord derives the spooled history row from a completed query.
func queryRecord(ctx catalog.RequestContext, sqlText string, prof *telemetry.Profile, err error) systemtables.QueryRecord {
	totals := prof.Totals()
	rec := systemtables.QueryRecord{
		Time:           time.Now(),
		Tenant:         ctx.User,
		SessionID:      ctx.SessionID,
		TraceID:        ctx.TraceID,
		SQLText:        sqlText,
		Status:         "OK",
		QueueWaitNanos: prof.QueueWaitNanos,
		AnalyzeNanos:   prof.AnalyzeNanos,
		OptimizeNanos:  prof.OptimizeNanos,
		VerifyNanos:    prof.VerifyNanos,
		ExecNanos:      prof.ExecNanos,
		TotalNanos:     prof.TotalNanos,
		RowsOut:        totals.RowsOut,
		FilesScanned:   totals.FilesScanned,
		FilesPruned:    totals.FilesPruned,
		BytesRead:      totals.ReadBytes,
		SpillBytes:     totals.SpillBytes,
	}
	if err != nil {
		rec.Status = "ERROR"
		rec.Error = err.Error()
	}
	return rec
}

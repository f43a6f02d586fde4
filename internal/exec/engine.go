// Package exec compiles optimized logical plans into physical operators and
// runs them. Operators are pull-based batch iterators. UDF evaluation never
// happens in-process: projection and filter expressions containing UDF calls
// are split by the optimizer's fusion planner into sandbox crossings, routed
// through the dispatcher (paper §3.3). RemoteScan leaves delegate to a
// pluggable remote executor (eFGAC, §3.4).
package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"lakeguard/internal/arrowipc"
	"lakeguard/internal/delta"
	"lakeguard/internal/eval"
	"lakeguard/internal/plan"
	"lakeguard/internal/sandbox"
	"lakeguard/internal/security"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// RemoteExecutor runs an eFGAC subquery on external compute and returns the
// result batches. Implemented by the Lakeguard core (Serverless Spark path).
type RemoteExecutor interface {
	ExecuteRemote(qc *QueryContext, rs *plan.RemoteScan) ([]*types.Batch, error)
}

// TableProvider is the engine's only route to governed table data: resolve a
// table, enforce privileges, vend a credential, and return the snapshot plus
// a reader bound to that credential. The reader returns decoded batches so
// the provider may serve them from a credential-scoped cache — every call
// still revalidates the caller's credential before any bytes flow.
// catalog.Catalog satisfies it structurally; exec deliberately does not
// import the catalog or storage packages (an import boundary lakeguard-lint
// enforces), so the only data the engine can read is what a vended
// credential covers.
type TableProvider interface {
	OpenSnapshot(ctx security.RequestContext, table string, version int64) (*delta.Snapshot, func(path string) (*types.Batch, error), error)
}

// GroupChecker resolves a principal's account groups for dynamic views and
// IS_ACCOUNT_GROUP_MEMBER. catalog.Catalog satisfies it structurally.
type GroupChecker interface {
	GroupsOf(user string) []string
}

// Engine executes plans against governed tables with sandboxed user code.
type Engine struct {
	// Tables opens governed table snapshots through vended credentials.
	Tables TableProvider
	// Dispatcher provides sandboxes for UDF execution. Nil engines can run
	// UDF-free plans only.
	Dispatcher *sandbox.Dispatcher
	// Remote serves RemoteScan leaves; nil means eFGAC is unavailable.
	Remote RemoteExecutor
	// FuseUDFs groups the UDF calls of one trust domain into a single
	// sandbox crossing per batch (see optimizer.PlanUDFs). Servers always
	// fuse; the unfused engine is the A1 ablation's baseline.
	FuseUDFs bool
	// Parallelism is the number of executor workers for sandboxed UDF
	// execution (0 or 1 = serial). Large batches split into partitions that
	// run on separate sandboxes of the same trust domain concurrently.
	Parallelism int
	// UnsafeInProcessUDFs executes user code directly in the engine without
	// isolation. It exists ONLY as the pre-Lakeguard baseline for the
	// Table 2 benchmark; never enable it in a governed deployment.
	UnsafeInProcessUDFs bool
	// Metrics, when non-nil, receives scan-level data-skipping counters
	// (scan.files.scanned, scan.files.pruned).
	Metrics *telemetry.Registry
	// SpillBytes bounds the in-memory footprint of each equi-join build
	// table and aggregation group table; past it the operator partitions to
	// temp files and recurses (results stay byte-identical). Keyless join
	// builds and DISTINCT tables stay in memory. 0 means a 256 MiB default;
	// negative disables spilling entirely.
	SpillBytes int64
	// disableSkipping turns off statistics-based file pruning, and
	// disableRuntimeFilters stops hash joins from pushing build-side
	// bloom/min-max filters into probe scans. Both exist only for the
	// reference runs of the package's equivalence tests: results are
	// identical either way; only the rows and files touched change.
	disableSkipping, disableRuntimeFilters bool
}

// spillLimit resolves SpillBytes to an effective per-operator budget.
func (e *Engine) spillLimit() int64 {
	switch {
	case e.SpillBytes < 0:
		return 1 << 62 // effectively unbounded
	case e.SpillBytes == 0:
		return defaultSpillBytes
	default:
		return e.SpillBytes
	}
}

// QueryContext carries the identity and session a query runs under.
type QueryContext struct {
	// Ctx is the security request context (user identity + compute scope).
	Ctx security.RequestContext
	// Eval supplies session functions (CURRENT_USER, group membership).
	Eval *eval.Context
	// SessionID keys sandbox pooling.
	SessionID string
	// Context carries the caller's deadline/cancellation into sandbox
	// crossings and remote execution (nil = context.Background()). When it
	// carries a telemetry span, every operator, worker, storage read and
	// sandbox crossing reports into that trace.
	Context context.Context
	// Profile, when non-nil, collects EXPLAIN ANALYZE operator statistics.
	Profile *telemetry.Profile
	// VerifiedPlan is the sentinel fingerprint of the sealed plan this query
	// executes ("" when the caller did not verify, e.g. a direct engine
	// test). It is stamped on every sandbox crossing so sandboxes configured
	// with RequireVerifiedPlans can refuse argument batches that never
	// passed SENTINEL_VERIFY.
	VerifiedPlan string
	// opParent is the enclosing operator's stats sink during build (the
	// profile tree mirrors the operator tree).
	opParent *telemetry.OpStats
	// rf is the per-execution runtime-filter registry: scans register here
	// during build, hash joins look their probe side up to install filters.
	rf *rfRegistry
}

// GoContext returns the query's Go context, never nil.
func (qc *QueryContext) GoContext() context.Context {
	if qc.Context != nil {
		return qc.Context
	}
	return context.Background()
}

// NewQueryContext builds a query context whose evaluator resolves group
// membership through the governance catalog (or any other GroupChecker), as
// NewEvalContext describes.
func NewQueryContext(groups GroupChecker, ctx security.RequestContext) *QueryContext {
	return &QueryContext{Ctx: ctx, Eval: NewEvalContext(groups, ctx.User), SessionID: ctx.SessionID}
}

// NewEvalContext builds the evaluator's session context for one statement.
// The user's group set is resolved once, on the first
// IS_ACCOUNT_GROUP_MEMBER, and then frozen: every row the statement
// evaluates, on every worker, answers against that one set, so a group change
// landing mid-query can never split one answer between two identities.
func NewEvalContext(groups GroupChecker, user string) *eval.Context {
	groupsOf := sync.OnceValue(func() []string { return groups.GroupsOf(user) })
	return &eval.Context{User: user, IsGroupMember: func(group string) bool {
		for _, g := range groupsOf() {
			if strings.EqualFold(g, group) {
				return true
			}
		}
		return false
	}}
}

// operator is a pull-based batch iterator.
type operator interface {
	// Next returns the next batch or io.EOF.
	Next() (*types.Batch, error)
	// Close releases operator resources. Parallel operators cancel and join
	// their workers here, so abandoning a stream early (LIMIT) never leaks
	// goroutines. Close must be safe after Next returned an error or EOF.
	Close() error
}

// Execute runs a plan to completion and returns all result batches. The
// query context's deadline is honored between batches, so a cancelled query
// stops pulling instead of running to completion.
func (e *Engine) Execute(qc *QueryContext, p plan.Node) ([]*types.Batch, error) {
	// Each execution gets a fresh runtime-filter registry on a copied context
	// so the caller's QueryContext is never mutated and registries never leak
	// across executions of the same context.
	root := *qc
	root.rf = newRFRegistry()
	op, err := e.build(&root, p)
	if err != nil {
		return nil, err
	}
	defer op.Close()
	ctx := qc.GoContext()
	var out []*types.Batch
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("exec: query cancelled: %w", err)
		}
		b, err := op.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if b.NumRows() > 0 || len(out) == 0 {
			out = append(out, b)
		}
	}
}

// ExecuteToBatch runs a plan and concatenates the result into one batch.
func (e *Engine) ExecuteToBatch(qc *QueryContext, p plan.Node) (*types.Batch, error) {
	batches, err := e.Execute(qc, p)
	if err != nil {
		return nil, err
	}
	return arrowipc.ConcatBatches(p.Schema(), batches)
}

// build compiles a plan node into an operator tree, instrumenting each
// operator when the query is traced or profiled. A scan and every chain of
// row-preserving nodes run as one pipeline (pipeline.go), which accounts for
// each of its nodes itself.
func (e *Engine) build(qc *QueryContext, p plan.Node) (operator, error) {
	if _, scan := p.(*plan.Scan); scan || isChainNode(p) {
		pl, err := e.buildPipeline(qc, p, nil)
		if err != nil {
			return nil, err
		}
		return pl, nil
	}
	return e.instrument(qc, p, func(sub *QueryContext) (operator, error) { return e.buildNode(sub, p) })
}

// instrument runs buildOp, the builder of plan node p's operator, under a
// span and profile entry named for p when the query is traced or profiled.
// Untraced, unprofiled queries call buildOp directly and pay nothing.
func (e *Engine) instrument(qc *QueryContext, p plan.Node, buildOp func(*QueryContext) (operator, error)) (operator, error) {
	sub, stats, span := opScope(qc, p)
	if sub == qc {
		return buildOp(qc)
	}
	op, err := buildOp(sub)
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	return &instrumentedOp{op: op, span: span, stats: stats}, nil
}

// opScope opens plan node p's profile entry and span when the query is
// traced or profiled, and returns the context p's operator and children
// build in. Otherwise it returns qc itself and no sinks.
func opScope(qc *QueryContext, p plan.Node) (*QueryContext, *telemetry.OpStats, *telemetry.Span) {
	ctx := qc.GoContext()
	if qc.Profile == nil && telemetry.SpanFrom(ctx) == nil {
		return qc, nil, nil
	}
	name, detail := opLabel(p)
	var stats *telemetry.OpStats
	if qc.Profile != nil {
		stats = qc.Profile.NewOp(qc.opParent, name, detail)
	}
	sctx, span := telemetry.StartSpan(ctx, "exec."+name)
	sub := *qc
	sub.Context = sctx
	sub.opParent = stats
	return &sub, stats, span
}

// buildNode compiles one plan node; child compilation recurses through
// build so every level is instrumented.
func (e *Engine) buildNode(qc *QueryContext, p plan.Node) (operator, error) {
	switch t := p.(type) {
	case *plan.LocalRelation:
		return &localOp{batch: t.Data}, nil

	case *plan.RemoteScan:
		if e.Remote == nil {
			return nil, fmt.Errorf("exec: plan requires external FGAC but no remote executor is configured (relation %s)", t.Relation)
		}
		batches, err := e.Remote.ExecuteRemote(qc, t)
		if err != nil {
			return nil, fmt.Errorf("exec: remote scan %s: %w", t.Relation, err)
		}
		return &batchesOp{batches: batches}, nil

	case *plan.Aggregate:
		op, err := e.newVecAggOp(qc, t)
		if err != nil {
			return nil, err
		}
		return op, nil

	case *plan.Join:
		return e.buildJoin(qc, t)

	case *plan.Sort:
		return e.buildSort(qc, t, -1)

	case *plan.Limit:
		// LIMIT over ORDER BY bounds the sort to the rows the limit can
		// emit; the sort keeps its own instrumented node either way.
		var child operator
		var err error
		if s, ok := t.Child.(*plan.Sort); ok {
			child, err = e.instrument(qc, s, func(sub *QueryContext) (operator, error) {
				return e.buildSort(sub, s, sortBound(t))
			})
		} else {
			child, err = e.build(qc, t.Child)
		}
		if err != nil {
			return nil, err
		}
		return &limitOp{child: child, n: t.N, offset: t.Offset}, nil

	case *plan.Distinct:
		child, err := e.build(qc, t.Child)
		if err != nil {
			return nil, err
		}
		return &vecDistinctOp{child: child, table: newVecAggTable(nil)}, nil

	case *plan.Union:
		l, err := e.build(qc, t.L)
		if err != nil {
			return nil, err
		}
		r, err := e.build(qc, t.R)
		if err != nil {
			l.Close() // release the built left side (its span ends with it)
			return nil, err
		}
		return &unionOp{children: []operator{l, r}, schema: t.Schema()}, nil
	}
	return nil, fmt.Errorf("exec: unsupported plan node %T", p)
}

// newScanSource opens a scan's snapshot and prunes its files: by zone maps
// against the pushed filters, and by deletion vectors that cover a whole
// file. The pipeline above reads what is left, one file per morsel.
func (e *Engine) newScanSource(qc *QueryContext, t *plan.Scan) (*scanSource, error) {
	// Definer rights: views resolve (and therefore read) their underlying
	// tables as the view owner; the analyzer recorded that identity.
	ctx := qc.Ctx
	if t.RunAsUser != "" {
		ctx.User = t.RunAsUser
	}
	snap, read, err := e.Tables.OpenSnapshot(ctx, t.Table, t.Version)
	if err != nil {
		return nil, err
	}
	// Zone-map pruning: drop files whose statistics prove no row can pass
	// the pushed filters, before any storage read. Pruning preserves file
	// order, so the ordered exchange below produces the same output with
	// fewer morsels.
	files := make([]int, len(snap.Files))
	for i := range files {
		files[i] = i
	}
	if !e.disableSkipping && len(t.PushedFilters) > 0 {
		files = pruneFiles(t, snap.Files)
	}
	// Deletion-vector file pruning: a file whose DV covers every row is
	// logically empty — skip it before any storage GET, exactly like a
	// zone-map prune. Partial DVs are masked per-row after the read.
	dvPruned := 0
	live := files[:0]
	for _, i := range files {
		if f := snap.Files[i]; f.DV.Covers(f.NumRecords) {
			dvPruned++
			continue
		}
		live = append(live, i)
	}
	files = live
	if dvPruned > 0 && e.Metrics != nil {
		e.Metrics.Counter("scan.files.dv_pruned").Add(int64(dvPruned))
	}
	pruned := len(snap.Files) - len(files)
	qc.opParent.AddFiles(len(files), pruned)
	if span := telemetry.SpanFrom(qc.GoContext()); span != nil {
		span.Count("files.scanned", int64(len(files)))
		span.Count("files.pruned", int64(pruned))
	}
	if e.Metrics != nil {
		e.Metrics.Counter("scan.files.scanned").Add(int64(len(files)))
		e.Metrics.Counter("scan.files.pruned").Add(int64(pruned))
	}
	src := &scanSource{
		scan: t, snap: snap, files: files, read: read, stats: qc.opParent,
		metrics: e.Metrics,
		filters: compileProgs(qc.Eval, qc.opParent, t.PushedFilters, t.Schema().Kinds(), boolKinds(len(t.PushedFilters))),
	}
	// Register the scan so a hash join built above it can install runtime
	// filters onto src before the first file is read.
	qc.rf.register(t, src)
	return src, nil
}

func boolKinds(n int) []types.Kind {
	ks := make([]types.Kind, n)
	for i := range ks {
		ks[i] = types.KindBool
	}
	return ks
}

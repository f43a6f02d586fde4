// Package core is the Lakeguard layer: it ties the catalog, analyzer,
// optimizer, executor, sandbox dispatcher, and cluster manager into one
// governed multi-user server that implements the Connect backend interface.
// It owns per-session state (temp views, ephemeral UDFs, sandbox pools),
// dispatches commands, enforces the compute-type capability model (Standard
// vs Dedicated, paper §4), and performs external fine-grained access control
// (eFGAC, §3.4) when governed relations cannot be processed locally.
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/catalog"
	"lakeguard/internal/cluster"
	"lakeguard/internal/connect"
	"lakeguard/internal/exec"
	"lakeguard/internal/faults"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/proto"
	"lakeguard/internal/sandbox"
	"lakeguard/internal/sentinel"
	"lakeguard/internal/session"
	"lakeguard/internal/systemtables"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// Config parametrizes a Lakeguard server (one cluster).
type Config struct {
	// Catalog is the shared governance catalog.
	Catalog *catalog.Catalog
	// Name labels the cluster.
	Name string
	// Compute is the cluster's compute type; it drives privilege scoping
	// and whether user code isolation is available.
	Compute catalog.ComputeType
	// Hosts is the cluster size.
	Hosts int
	// Sandbox configures user-code isolation (cold start, fuel, egress).
	Sandbox sandbox.Config
	// ResourcePools defines specialized execution environments (paper §3.3)
	// that UDFs can target via RESOURCE declarations.
	ResourcePools map[string]cluster.PoolConfig
	// Optimizer selects rule toggles; zero value means DefaultOptions.
	Optimizer *optimizer.Options
	// Remote executes eFGAC subqueries (required for Dedicated compute to
	// read governed relations).
	Remote exec.RemoteExecutor
	// SpillThreshold switches large results to cloud-spill mode when the
	// client allows it (0 = never spill).
	SpillThreshold int
	// GroupScope, when set on a Dedicated cluster, allows every member of
	// the group to attach, with all permissions down-scoped to the group's
	// grants (paper §4.2).
	GroupScope string
	// Environments are the versioned Workload Environments clients may pin
	// user code to (paper §6.3): each version carries its own sandbox
	// configuration (interpreter fuel, egress policy, cold start). The
	// default environment is Config.Sandbox.
	Environments map[string]sandbox.Config
	// Parallelism is the engine's morsel-parallel worker count: scans,
	// filters, projections, aggregate input and join-build evaluation
	// partition work across this many workers with a deterministic ordered
	// gather. 0 reads LAKEGUARD_PARALLELISM, defaulting to runtime.NumCPU();
	// 1 forces serial execution.
	Parallelism int
	// SpillBytes is the per-operator hash-table budget for joins and grouped
	// aggregation: past it the operator spills partitions to temp storage and
	// grace-hash merges them. 0 reads LAKEGUARD_SPILL_BYTES, defaulting to
	// 256 MiB; negative disables spilling.
	SpillBytes int64
	// Faults is the chaos-test fault injector threaded into the cluster,
	// sandboxes, and the eFGAC client. Nil falls back to the FAULTS
	// environment variable (also nil when unset).
	Faults *faults.Injector
	// Supervisor tunes sandbox failure handling (circuit breaker,
	// provisioning retries). Zero value selects the defaults; the audit log
	// defaults to the catalog's.
	Supervisor sandbox.SupervisorConfig
	// Metrics, when non-nil, receives query latency histograms, row/error
	// counters, and (threaded into the supervisor) sandbox fleet metrics.
	Metrics *telemetry.Registry
	// Sessions is the session store. Nil creates a private store; a
	// serverless fleet may hand every cluster the same store, making session
	// state shareable and migration a cluster-local rebind (see
	// Gateway.Drain).
	Sessions *session.Store
	// SystemTables, when non-nil, receives a QueryRecord for every completed
	// query (success or error) for durable spooling into
	// system.query.history and the per-tenant usage rollup. Setting it also
	// turns on operator profiling for every query, so the spooled rows carry
	// rows/files-pruned/bytes-read — the cost rides inside the CI-enforced
	// telemetry overhead budget.
	SystemTables *systemtables.Spooler
}

// Server is one Lakeguard cluster.
type Server struct {
	cfg        Config
	cat        *catalog.Catalog
	clusterMgr *cluster.Manager
	dispatcher *sandbox.Dispatcher
	engine     *exec.Engine
	opts       optimizer.Options

	met serverMetrics

	// sessions is the (possibly fleet-shared) session store.
	sessions *session.Store

	mu sync.Mutex
	// envEngines are lazily built per Workload Environment.
	envEngines map[string]*exec.Engine
	// pinnedUser enforces single-identity semantics on Dedicated clusters
	// without a group scope.
	pinnedUser string
}

// serverMetrics are the per-cluster query instruments; all fields are nil
// (and every update a no-op) when Config.Metrics is unset.
type serverMetrics struct {
	hTotal, hAnalyze, hOptimize, hVerify, hExec *telemetry.Histogram
	queries, errors, rowsOut                    *telemetry.Counter
}

// ErrDedicatedSharing is returned when a second identity attaches to a
// dedicated cluster.
var ErrDedicatedSharing = errors.New("core: dedicated clusters cannot be shared by multiple identities")

// NewServer builds a Lakeguard cluster server.
func NewServer(cfg Config) *Server {
	if cfg.Name == "" {
		cfg.Name = "cluster"
	}
	if cfg.Hosts < 1 {
		cfg.Hosts = 2
	}
	if cfg.Compute == "" {
		cfg.Compute = catalog.ComputeStandard
	}
	if cfg.Faults == nil {
		// Chaos CI opts in via FAULTS/FAULTS_SEED; a malformed spec is an
		// operator error and must fail loudly, not silently run faultless.
		inj, err := faults.FromEnv()
		if err != nil {
			panic(err)
		}
		cfg.Faults = inj
	}
	if cfg.Supervisor.Audit == nil && cfg.Catalog != nil {
		cfg.Supervisor.Audit = cfg.Catalog.Audit()
	}
	if cfg.Supervisor.Metrics == nil {
		cfg.Supervisor.Metrics = cfg.Metrics
	}
	cfg.Parallelism = resolveParallelism(cfg.Parallelism)
	cfg.SpillBytes = resolveSpillBytes(cfg.SpillBytes)
	if cfg.Supervisor.Compute == "" {
		cfg.Supervisor.Compute = string(cfg.Compute)
	}
	// The server plane only ever executes sealed, sentinel-verified plans, so
	// its sandboxes enforce that end of the contract too: a crossing without
	// a verified-plan fingerprint is refused even if some engine path were
	// tricked into issuing one.
	cfg.Sandbox.RequireVerifiedPlans = true
	mgr := cluster.NewManager(cluster.Config{
		Name: cfg.Name, Compute: cfg.Compute, Hosts: cfg.Hosts, Sandbox: cfg.Sandbox,
		ResourcePools: cfg.ResourcePools, Faults: cfg.Faults,
	})
	dispatcher := sandbox.NewSupervised(mgr, cfg.Supervisor)
	opts := optimizer.DefaultOptions()
	if cfg.Optimizer != nil {
		opts = *cfg.Optimizer
	}
	if cfg.Sessions == nil {
		cfg.Sessions = session.NewStore()
	}
	s := &Server{
		cfg:        cfg,
		cat:        cfg.Catalog,
		clusterMgr: mgr,
		dispatcher: dispatcher,
		opts:       opts,
		sessions:   cfg.Sessions,
		envEngines: map[string]*exec.Engine{},
	}
	s.engine = &exec.Engine{
		Tables:      cfg.Catalog,
		Dispatcher:  dispatcher,
		Remote:      cfg.Remote,
		FuseUDFs:    true,
		Parallelism: cfg.Parallelism,
		SpillBytes:  cfg.SpillBytes,
		Metrics:     cfg.Metrics,
	}
	s.met = serverMetrics{
		hTotal:    cfg.Metrics.Histogram("query.total_ms", telemetry.DefLatencyBuckets),
		hAnalyze:  cfg.Metrics.Histogram("query.analyze_ms", telemetry.DefLatencyBuckets),
		hOptimize: cfg.Metrics.Histogram("query.optimize_ms", telemetry.DefLatencyBuckets),
		hVerify:   cfg.Metrics.Histogram("query.verify_ms", telemetry.DefLatencyBuckets),
		hExec:     cfg.Metrics.Histogram("query.exec_ms", telemetry.DefLatencyBuckets),
		queries:   cfg.Metrics.Counter("queries.total"),
		errors:    cfg.Metrics.Counter("queries.errors"),
		rowsOut:   cfg.Metrics.Counter("exec.rows_out"),
	}
	return s
}

// ms converts a duration to float milliseconds for histogram observation.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resolveParallelism resolves the engine worker count: an explicit config
// value wins, then LAKEGUARD_PARALLELISM, then runtime.NumCPU(). Like a
// malformed FAULTS spec, a malformed value is an operator error and fails
// loudly instead of silently running serial.
func resolveParallelism(explicit int) int {
	if explicit > 0 {
		return explicit
	}
	if v := os.Getenv("LAKEGUARD_PARALLELISM"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			panic(fmt.Sprintf("core: malformed LAKEGUARD_PARALLELISM %q: want a positive integer", v))
		}
		return n
	}
	return runtime.NumCPU()
}

// resolveSpillBytes resolves the hash-table spill budget: an explicit config
// value wins (negative = never spill), then LAKEGUARD_SPILL_BYTES, then the
// engine default (256 MiB). A malformed value fails loudly.
func resolveSpillBytes(explicit int64) int64 {
	if explicit != 0 {
		return explicit
	}
	if v := os.Getenv("LAKEGUARD_SPILL_BYTES"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n == 0 {
			panic(fmt.Sprintf("core: malformed LAKEGUARD_SPILL_BYTES %q: want a non-zero integer (negative disables spilling)", v))
		}
		return n
	}
	return 0
}

// Catalog returns the governance catalog.
func (s *Server) Catalog() *catalog.Catalog { return s.cat }

// Dispatcher exposes sandbox statistics.
func (s *Server) Dispatcher() *sandbox.Dispatcher { return s.dispatcher }

// ClusterManager exposes the cluster plane.
func (s *Server) ClusterManager() *cluster.Manager { return s.clusterMgr }

// Compute returns the server's compute type.
func (s *Server) Compute() catalog.ComputeType { return s.cfg.Compute }

// ActiveSessions reports how many sessions hold state in this server's
// session store (fleet-wide when the store is shared).
func (s *Server) ActiveSessions() int {
	return s.sessions.Len()
}

// SessionStore exposes the server's session store, so a gateway can detect
// clusters sharing state and migrate sessions by rebinding instead of
// export/import.
func (s *Server) SessionStore() *session.Store { return s.sessions }

// session returns (creating if needed) the state for a session, enforcing
// the compute type's identity rules.
func (s *Server) session(sessionID, user string) (*session.State, error) {
	return s.sessions.Attach(sessionID, user, s.admitUser)
}

// admitUser is the compute-type identity gate applied before a new session is
// created (the session store calls it under its lock, so check-and-create is
// atomic).
func (s *Server) admitUser(user string) error {
	if s.cfg.Compute != catalog.ComputeDedicated {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.cfg.GroupScope != "":
		if !s.cat.IsGroupMember(user, s.cfg.GroupScope) {
			return fmt.Errorf("core: user %q is not a member of this dedicated cluster's group %q", user, s.cfg.GroupScope)
		}
	case s.pinnedUser == "":
		s.pinnedUser = user
	case s.pinnedUser != user:
		return fmt.Errorf("%w (cluster pinned to %q)", ErrDedicatedSharing, s.pinnedUser)
	}
	return nil
}

// requestContext builds the catalog context for a session, applying
// dedicated-group down-scoping. The query's trace ID (if qctx carries a
// span) is stamped in, so every audit event recorded under this context
// joins back to the query's trace.
func (s *Server) requestContext(qctx context.Context, sessionID, user string) catalog.RequestContext {
	return catalog.RequestContext{
		User:       user,
		Compute:    s.cfg.Compute,
		ClusterID:  s.cfg.Name,
		SessionID:  sessionID,
		GroupScope: s.dedicatedGroupScope(),
		TraceID:    telemetry.TraceIDFrom(qctx),
	}
}

func (s *Server) dedicatedGroupScope() string {
	if s.cfg.Compute == catalog.ComputeDedicated {
		return s.cfg.GroupScope
	}
	return ""
}

// newAnalyzer builds an analyzer bound to a session's temp state; a nil
// session resolves no temp views or functions.
func (s *Server) newAnalyzer(ctx catalog.RequestContext, st *session.State) *analyzer.Analyzer {
	a := analyzer.New(s.cat, ctx)
	if st != nil {
		a.TempViews, a.TempFuncs = st.TempViews, st.TempFuncs
	}
	return a
}

// engineFor returns the execution engine for a Workload Environment. Each
// named environment gets its own sandbox fleet (own cluster-manager plane
// and dispatcher), so user code pinned to "v1" executes exactly in v1's
// interpreter configuration regardless of the server's default (§6.3).
func (s *Server) engineFor(env string) (*exec.Engine, error) {
	if env == "" {
		return s.engine, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.envEngines[env]; ok {
		return e, nil
	}
	spec, ok := s.cfg.Environments[env]
	if !ok {
		available := make([]string, 0, len(s.cfg.Environments))
		for name := range s.cfg.Environments {
			available = append(available, name)
		}
		return nil, fmt.Errorf("core: unknown workload environment %q (available: %v)", env, available)
	}
	spec.RequireVerifiedPlans = true
	mgr := cluster.NewManager(cluster.Config{
		Name: s.cfg.Name + "-env-" + env, Compute: s.cfg.Compute,
		Hosts: s.cfg.Hosts, Sandbox: spec, Faults: s.cfg.Faults,
	})
	e := &exec.Engine{
		Tables:      s.cat,
		Dispatcher:  sandbox.NewSupervised(mgr, s.cfg.Supervisor),
		Remote:      s.cfg.Remote,
		FuseUDFs:    true,
		Parallelism: s.cfg.Parallelism,
		SpillBytes:  s.cfg.SpillBytes,
		Metrics:     s.cfg.Metrics,
	}
	s.envEngines[env] = e
	return e, nil
}

// Execute implements connect.Backend. qctx bounds the whole execution: its
// deadline propagates through sandbox crossings and eFGAC submissions, and
// its span (if any) parents the whole server-side trace.
func (s *Server) Execute(qctx context.Context, sessionID, user string, pl *proto.Plan) (*types.Schema, []*types.Batch, error) {
	return s.execute(qctx, sessionID, user, pl, nil)
}

// execute runs one statement under the core.execute span; prof, when
// non-nil, is the EXPLAIN ANALYZE profile of a query.
func (s *Server) execute(qctx context.Context, sessionID, user string, pl *proto.Plan, prof *telemetry.Profile) (schema *types.Schema, batches []*types.Batch, err error) {
	qctx, end := s.startQuery(qctx, user)
	defer func() { end(err) }()
	st, err := s.session(sessionID, user)
	if err != nil {
		return nil, nil, err
	}
	ctx := s.requestContext(qctx, sessionID, user)
	if pl.Command != nil {
		schema, batch, err := s.executeCommand(qctx, ctx, st, pl.Command)
		if err != nil {
			return nil, nil, err
		}
		return schema, []*types.Batch{batch}, nil
	}
	schema, batches, err = s.run(qctx, ctx, st, pl.Relation, pl.WorkloadEnv, prof)
	if err == nil && pl.AllowSpill && s.cfg.SpillThreshold > 0 {
		return s.maybeSpill(ctx, schema, batches)
	}
	return schema, batches, err
}

// startQuery opens the core.execute span of one executed statement. The
// returned func closes it and counts the statement in queries.total,
// queries.errors and query.total_ms.
func (s *Server) startQuery(qctx context.Context, user string) (context.Context, func(error)) {
	if qctx == nil {
		qctx = context.Background()
	}
	qctx, sp := telemetry.StartSpan(qctx, "core.execute")
	sp.SetAttr("cluster", s.cfg.Name)
	sp.SetAttr("user", user)
	start := time.Now()
	return qctx, func(err error) {
		s.met.hTotal.Observe(ms(time.Since(start)))
		s.met.queries.Inc()
		if err != nil {
			s.met.errors.Inc()
		}
		sp.EndErr(err)
	}
}

// Explain implements connect.Backend. ExplainPlan and ExplainVerified stop
// after the seam's compile stage, so a plan that fails verification is
// rejected exactly as execution would reject it; ExplainVerified annotates
// each policy operator with the sentinel invariants that cleared it.
// ExplainAnalyze executes the query as Execute does and renders its
// operator profile.
func (s *Server) Explain(qctx context.Context, sessionID, user string, pl *proto.Plan, mode connect.ExplainMode) (*types.Schema, string, int, error) {
	if pl.Command != nil {
		return nil, "", 0, errors.New("core: EXPLAIN supports queries only, not commands")
	}
	if mode == connect.ExplainAnalyze {
		// The profile counts the query's own rows, so the result is never
		// swapped for a spill manifest.
		prof := telemetry.NewProfile()
		schema, batches, err := s.execute(qctx, sessionID, user, &proto.Plan{Relation: pl.Relation, WorkloadEnv: pl.WorkloadEnv}, prof)
		if err != nil {
			return nil, "", 0, err
		}
		return schema, prof.Render(), int(numRows(batches)), nil
	}
	st, err := s.session(sessionID, user)
	if err != nil {
		return nil, "", 0, err
	}
	c, err := s.compile(qctx, s.requestContext(qctx, sessionID, user), st, pl.Relation, nil)
	if err != nil {
		return nil, "", 0, err
	}
	text := plan.ExplainRedacted(c.optimized)
	if mode == connect.ExplainVerified {
		text = sentinel.ExplainVerified(c.optimized, c.report)
	}
	return c.resolved.Schema(), text, 0, nil
}

// CloseSession implements connect.Backend: the session's state is removed
// from the store and its cluster-local resources are released.
func (s *Server) CloseSession(sessionID string) {
	s.sessions.Remove(sessionID)
	s.DetachSession(sessionID)
}

// DetachSession releases the cluster-local resources of a session — warm
// sandboxes in every engine's dispatcher — without touching the session
// store. A gateway migrating a session between clusters that share a store
// detaches it from the old cluster instead of closing it, so the state the
// new cluster already sees is never destroyed.
func (s *Server) DetachSession(sessionID string) {
	s.mu.Lock()
	envs := make([]*exec.Engine, 0, len(s.envEngines))
	for _, e := range s.envEngines {
		envs = append(envs, e)
	}
	s.mu.Unlock()
	s.dispatcher.EndSession(sessionID)
	for _, e := range envs {
		e.Dispatcher.EndSession(sessionID)
	}
}

// ExportSession snapshots a session's replayable state for migration to
// another backend (paper §6.2: seamless session migration).
func (s *Server) ExportSession(sessionID string) (*SessionSnapshot, bool) {
	return s.sessions.Export(sessionID)
}

// ImportSession installs a migrated session's state, subject to the same
// compute-type identity rules as a fresh attach.
func (s *Server) ImportSession(sessionID string, snap *SessionSnapshot) error {
	return s.sessions.Import(sessionID, snap, s.admitUser)
}

// SessionSnapshot is the replayable state of one session (see
// session.Snapshot).
type SessionSnapshot = session.Snapshot

// TempViewSnapshot is one temp view's definition.
type TempViewSnapshot = session.TempViewSnapshot

// TempFuncSnapshot is one ephemeral UDF's definition.
type TempFuncSnapshot = session.TempFuncSnapshot

var _ connect.Backend = (*Server)(nil)

// okBatch is the conventional result of a successful command.
func okBatch(message string) (*types.Schema, *types.Batch) {
	schema := types.NewSchema(types.Field{Name: "result", Kind: types.KindString})
	bb := types.NewBatchBuilder(schema, 1)
	bb.AppendRow([]types.Value{types.String(message)})
	return schema, bb.Build()
}

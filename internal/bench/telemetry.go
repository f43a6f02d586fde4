package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/catalog"
	"lakeguard/internal/exec"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/sandbox"
	"lakeguard/internal/sentinel"
	"lakeguard/internal/sql"
	"lakeguard/internal/systemtables"
	"lakeguard/internal/telemetry"
)

// ExecScalingQuery is the telemetry workload: a multi-file scan with a pushed
// filter feeding a grouped aggregate — every parallel operator shape in one
// plan.
const ExecScalingQuery = "SELECT cat, SUM(v) AS total, COUNT(*) AS n FROM events WHERE v > 250 GROUP BY cat"

// telemetryWorkers is the engine parallelism of both series.
const telemetryWorkers = 4

// TelemetryOverheadConfig sizes the instrumentation-cost experiment: the
// ExecScalingQuery workload run with telemetry fully off vs fully on. Data
// files are read from the in-memory store with no modeled latency, which
// keeps the workload CPU-bound: the harshest setting for measuring
// instrumentation overhead (nothing to hide the atomics behind).
type TelemetryOverheadConfig struct {
	// Rows is the total table size.
	Rows int
	// RowsPerFile sets file granularity (morsel count).
	RowsPerFile int
	// Repetitions per series, alternating the series; the median wall time
	// of each is kept.
	Repetitions int
}

// DefaultTelemetryOverheadConfig is the recorded experiment.
func DefaultTelemetryOverheadConfig() TelemetryOverheadConfig {
	return TelemetryOverheadConfig{
		Rows:        500_000,
		RowsPerFile: 8192,
		Repetitions: 5,
	}
}

// TelemetryOverheadResult compares the two series. The acceptance bar for
// the instrumentation is OverheadPct <= 10.
type TelemetryOverheadResult struct {
	Rows           int     `json:"rows"`
	Files          int     `json:"files"`
	Workers        int     `json:"workers"`
	Repetitions    int     `json:"repetitions"`
	Query          string  `json:"query"`
	BaselineMS     float64 `json:"baseline_ms"`
	InstrumentedMS float64 `json:"instrumented_ms"`
	OverheadPct    float64 `json:"overhead_pct"`
	// OpsProfiled is the number of operator nodes in the EXPLAIN ANALYZE
	// tree of the instrumented run (sanity: instrumentation was really on).
	OpsProfiled int `json:"ops_profiled"`
	// VerifyMS is the per-query cost of the sentinel gate (Verify + Seal +
	// pre-execute Check) on the governed form of the workload query.
	VerifyMS float64 `json:"verify_ms"`
	// VerifyOverheadPct is VerifyMS relative to the baseline execution time:
	// what SENTINEL_VERIFY adds to every query. Shares the ≤10% acceptance
	// bar with OverheadPct.
	VerifyOverheadPct float64 `json:"verify_overhead_pct"`
	// SpooledQueries confirms the instrumented series really fed the
	// system-table spooler and every record landed in system.query.history.
	SpooledQueries int64 `json:"spooled_queries"`
	// P50MS/P90MS/P99MS are instrumented per-query latency percentiles,
	// interpolated from the same Histogram type that backs /metrics.
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
}

// FormatJSON renders the result for BENCH_telemetry.json.
func (r *TelemetryOverheadResult) FormatJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// RunTelemetryOverhead measures the wall-time cost of full instrumentation:
// the same scan→filter→aggregate workload executed bare (no trace context,
// no profile — the zero-alloc skip path in Engine.build) and, alternating
// with it, with a tracer-minted root span plus an EXPLAIN ANALYZE profile,
// which switches on per-operator spans, per-worker morsel spans, storage.get
// spans, and all OpStats atomics.
func RunTelemetryOverhead(cfg TelemetryOverheadConfig) (*TelemetryOverheadResult, error) {
	w := NewWorld(sandbox.Config{})
	files, err := w.SeedEvents(cfg.Rows, cfg.RowsPerFile)
	if err != nil {
		return nil, err
	}
	p, err := w.PreparePlan(ExecScalingQuery, nil, optimizer.DefaultOptions())
	if err != nil {
		return nil, err
	}
	w.Engine.Parallelism = telemetryWorkers
	defer func() { w.Engine.Parallelism = 0 }()

	runOnce := func(qc *exec.QueryContext) error {
		batches, err := w.Engine.Execute(qc, p)
		if err != nil {
			return err
		}
		n := 0
		for _, b := range batches {
			n += b.NumRows()
		}
		if n == 0 {
			return fmt.Errorf("bench: telemetry workload returned no rows")
		}
		return nil
	}

	// The instrumented series also feeds the system-table spooler per rep —
	// the exact hot-path cost a production query pays (building the record
	// and the non-blocking enqueue) — so spooling shares the ≤10% gate. The
	// background flush is intentionally not started: its cost is amortized
	// off the query path, and a deterministic Flush below proves the records
	// actually landed in system.query.history.
	reg := telemetry.NewRegistry()
	spool, err := systemtables.New(systemtables.Config{Catalog: w.Cat, Metrics: reg})
	if err != nil {
		return nil, err
	}
	latencies := reg.Histogram("bench.query_ms", nil)

	tracer := telemetry.NewTracer()
	var lastProfile *telemetry.Profile
	baseline := func() error {
		return runOnce(exec.NewQueryContext(w.Cat, w.Ctx()))
	}
	instrumented := func() error {
		repStart := time.Now()
		ctx, root := tracer.StartTrace(context.Background(), "query")
		qc := exec.NewQueryContext(w.Cat, w.Ctx())
		qc.Context = ctx
		qc.Profile = telemetry.NewProfile()
		lastProfile = qc.Profile
		err := runOnce(qc)
		root.EndErr(err)
		tot := qc.Profile.Totals()
		spool.RecordQuery(systemtables.QueryRecord{
			Tenant: Admin, SessionID: "bench", SQLText: ExecScalingQuery,
			Status: "OK", TotalNanos: int64(time.Since(repStart)),
			RowsOut: tot.RowsOut, FilesScanned: tot.FilesScanned,
			FilesPruned: tot.FilesPruned, BytesRead: tot.ReadBytes,
		})
		latencies.Observe(float64(time.Since(repStart)) / float64(time.Millisecond))
		return err
	}

	// The two series alternate, one run each per repetition and each going
	// first in every other one, so host noise that drifts over the
	// experiment (another process, frequency scaling, GC of earlier reps)
	// lands on both alike. Each series reports its median: on a shared host
	// the fastest run of a few-millisecond query is an outlier, and the
	// difference of two minima swings by more than the 10% budget.
	series := [2]func() error{baseline, instrumented}
	var took [2][]time.Duration
	for rep := 0; rep < cfg.Repetitions; rep++ {
		for k := 0; k < 2; k++ {
			i := (rep + k) % 2
			start := time.Now()
			if err := series[i](); err != nil {
				return nil, err
			}
			took[i] = append(took[i], time.Since(start))
		}
	}
	baseD, instD := median(took[0]), median(took[1])
	if open := tracer.OpenSpans(); open != 0 {
		return nil, fmt.Errorf("bench: %d spans left open after instrumented runs", open)
	}
	if err := spool.Flush(); err != nil {
		return nil, err
	}
	spooled, err := w.Cat.SystemTableCount(systemtables.HistoryTableParts)
	if err != nil {
		return nil, err
	}
	if spooled != int64(cfg.Repetitions) {
		return nil, fmt.Errorf("bench: spooled %d query records, want %d", spooled, cfg.Repetitions)
	}
	p50, _ := latencies.Quantile(0.50)
	p90, _ := latencies.Quantile(0.90)
	p99, _ := latencies.Quantile(0.99)

	verifyD, err := measureVerify(w, cfg.Repetitions)
	if err != nil {
		return nil, err
	}

	return &TelemetryOverheadResult{
		Rows:              cfg.Rows,
		Files:             files,
		Workers:           telemetryWorkers,
		Repetitions:       cfg.Repetitions,
		Query:             ExecScalingQuery,
		BaselineMS:        float64(baseD) / float64(time.Millisecond),
		InstrumentedMS:    float64(instD) / float64(time.Millisecond),
		OverheadPct:       (float64(instD)/float64(baseD) - 1) * 100,
		OpsProfiled:       countOps(lastProfile.Root()),
		VerifyMS:          float64(verifyD) / float64(time.Millisecond),
		VerifyOverheadPct: float64(verifyD) / float64(baseD) * 100,
		SpooledQueries:    spooled,
		P50MS:             p50,
		P90MS:             p90,
		P99MS:             p99,
	}, nil
}

// measureVerify times one full sentinel gate pass — Verify, Seal, and the
// pre-execute Check — on the governed form of the workload query: the events
// table is given a row filter and a column mask and read by a non-admin, so
// the dataflow pass has real obligations to discharge. Returns the best
// per-query gate cost over the repetitions.
func measureVerify(w *World, reps int) (time.Duration, error) {
	const reader = "reader@corp.com"
	if err := w.Cat.SetRowFilter(w.Ctx(), []string{"events"}, "v >= 0", false); err != nil {
		return 0, err
	}
	if err := w.Cat.SetColumnMask(w.Ctx(), []string{"events"}, "cat", "'***'", false); err != nil {
		return 0, err
	}
	if err := w.Cat.Grant(w.Ctx(), catalog.PrivSelect, []string{"events"}, reader); err != nil {
		return 0, err
	}
	q, err := sql.ParseQuery(ExecScalingQuery)
	if err != nil {
		return 0, err
	}
	rctx := catalog.RequestContext{User: reader, Compute: catalog.ComputeStandard, SessionID: "bench-verify"}
	analyzed, err := analyzer.New(w.Cat, rctx).Analyze(q)
	if err != nil {
		return 0, err
	}
	optimized := optimizer.Optimize(analyzed, optimizer.DefaultOptions())

	gate := func() error {
		report := sentinel.Verify(analyzed, optimized)
		if err := report.Err(); err != nil {
			return fmt.Errorf("bench: governed workload plan rejected: %w", err)
		}
		sealed, err := sentinel.Seal(optimized, report)
		if err != nil {
			return err
		}
		return sealed.Check()
	}

	// The gate is microseconds-scale; time a fixed inner loop per repetition
	// and keep the best per-query cost.
	const inner = 50
	var best time.Duration
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		for i := 0; i < inner; i++ {
			if err := gate(); err != nil {
				return 0, err
			}
		}
		per := time.Since(start) / inner
		if rep == 0 || per < best {
			best = per
		}
	}
	return best, nil
}

func countOps(o *telemetry.OpStats) int {
	if o == nil {
		return 0
	}
	n := 1
	for _, c := range o.Children() {
		n += countOps(c)
	}
	return n
}

// FormatTelemetryOverhead renders the experiment.
func FormatTelemetryOverhead(r *TelemetryOverheadResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Telemetry overhead: exec workload bare vs fully instrumented (%d rows, %d files, %d workers)\n",
		r.Rows, r.Files, r.Workers)
	fmt.Fprintf(&sb, "instrumented = trace + root span + per-operator spans + worker/morsel spans + storage.get spans + profile atomics + system-table spooler enqueue (%d ops profiled)\n\n", r.OpsProfiled)
	fmt.Fprintf(&sb, "  baseline:     %8.1fms\n", r.BaselineMS)
	fmt.Fprintf(&sb, "  instrumented: %8.1fms\n", r.InstrumentedMS)
	fmt.Fprintf(&sb, "  overhead:     %+7.1f%%\n\n", r.OverheadPct)
	fmt.Fprintf(&sb, "  sentinel gate (verify+seal+check, governed plan): %.3fms = %+.2f%% of baseline\n",
		r.VerifyMS, r.VerifyOverheadPct)
	fmt.Fprintf(&sb, "  system tables: %d query record(s) spooled into system.query.history\n", r.SpooledQueries)
	fmt.Fprintf(&sb, "  instrumented latency percentiles: p50 %.1fms  p90 %.1fms  p99 %.1fms\n", r.P50MS, r.P90MS, r.P99MS)
	return sb.String()
}

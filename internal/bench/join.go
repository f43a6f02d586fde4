package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"lakeguard/internal/exec"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/sandbox"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// JoinConfig sizes the vectorized-join experiment.
type JoinConfig struct {
	// Rows is the probe-side (events) table size.
	Rows int
	// RowsPerFile sets probe-side file granularity (id is clustered, so the
	// runtime filter can prune at file granularity).
	RowsPerFile int
	// BuildRows is the build-side (dims) table size.
	BuildRows int
	// SpillBytes is the hash-table budget for the spill-equivalence series.
	SpillBytes int64
}

// DefaultJoinConfig is the recorded experiment: a 400k-row probe side over
// ~98 files against a 500-key build side, spilling under a 1 MiB budget.
func DefaultJoinConfig() JoinConfig {
	return JoinConfig{
		Rows:        400_000,
		RowsPerFile: 4096,
		BuildRows:   500,
		SpillBytes:  1 << 20,
	}
}

// JoinResult is the full recorded experiment, serialized to BENCH_join.json.
type JoinResult struct {
	Rows      int `json:"rows"`
	Files     int `json:"files"`
	BuildRows int `json:"build_rows"`
	// Runtime-filter series: object-store GETs for a selective join with the
	// build-side filter disabled vs enabled (composes with zone maps).
	RFQuery        string  `json:"rf_query"`
	BaselineGets   int64   `json:"baseline_gets"`
	FilteredGets   int64   `json:"rf_gets"`
	GetReduction   float64 `json:"rf_get_reduction"`
	RFFilesPruned  int64   `json:"rf_files_pruned"`
	RFRowsFiltered int64   `json:"rf_rows_filtered"`
	// Spill series: the same join + aggregation under a tiny hash-table
	// budget must produce byte-identical output to the in-memory run.
	SpillQuery      string `json:"spill_query"`
	SpillBytesLimit int64  `json:"spill_bytes_limit"`
	SpillPartitions int64  `json:"spill_partitions"`
	SpillBytes      int64  `json:"spill_bytes"`
	SpillIdentical  bool   `json:"spill_identical"`
}

// FormatJSON renders the result for BENCH_join.json.
func (r *JoinResult) FormatJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// seedDims creates the build-side table `dims` with keys 0..n-1, so roughly
// n/1000 of the events rows' v values match.
func seedDims(w *World, n int) error {
	schema := types.NewSchema(
		types.Field{Name: "k", Kind: types.KindInt64},
		types.Field{Name: "label", Kind: types.KindString},
	)
	if err := w.Cat.CreateTable(w.Ctx(), []string{"dims"}, schema, false, ""); err != nil {
		return err
	}
	bb := types.NewBatchBuilder(schema, n)
	for i := 0; i < n; i++ {
		bb.Column(0).AppendInt64(int64(i))
		bb.Column(1).AppendString(fmt.Sprintf("d%04d", i))
	}
	_, err := w.Cat.AppendToTable(w.Ctx(), []string{"dims"}, []*types.Batch{bb.Build()})
	return err
}

// runRows executes a plan and renders every output row in order, for
// byte-identical result comparison between engine configurations.
func runRows(w *World, p plan.Node) (string, int, error) {
	qc := exec.NewQueryContext(w.Cat, w.Ctx())
	batches, err := w.Engine.Execute(qc, p)
	if err != nil {
		return "", 0, err
	}
	var sb strings.Builder
	n := 0
	for _, b := range batches {
		for i := 0; i < b.NumRows(); i++ {
			fmt.Fprintln(&sb, b.Row(i))
			n++
		}
	}
	return sb.String(), n, nil
}

// joinWorld builds a fresh world with the events and dims tables and metrics
// wired.
func joinWorld(cfg JoinConfig) (*World, *telemetry.Registry, int, error) {
	w := NewWorld(sandbox.Config{})
	m := telemetry.NewRegistry()
	w.Cat.SetMetrics(m)
	w.Engine.Metrics = m
	files, err := w.SeedEvents(cfg.Rows, cfg.RowsPerFile)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := seedDims(w, cfg.BuildRows); err != nil {
		return nil, nil, 0, err
	}
	return w, m, files, nil
}

// RunJoin measures the join experiment: runtime-filter GET reduction on a
// selective join, and spilled-vs-in-memory result equivalence.
func RunJoin(cfg JoinConfig) (*JoinResult, error) {
	res := &JoinResult{Rows: cfg.Rows, BuildRows: cfg.BuildRows, SpillBytesLimit: cfg.SpillBytes}

	// Runtime-filter series: a selective join whose build keys all live in
	// one probe file's id range. Every other probe file must be skipped by
	// the build-side min/max against the same zone maps data skipping uses,
	// before any object-store GET.
	res.RFQuery = "SELECT COUNT(*) AS n FROM events e JOIN (SELECT k FROM dims WHERE k < 16) t ON e.id = t.k"
	rfSeries := func(disable bool) (int64, *telemetry.Registry, error) {
		w, m, files, err := joinWorld(cfg)
		if err != nil {
			return 0, nil, err
		}
		res.Files = files
		w.Engine.DisableRuntimeFilters = disable
		p, err := w.PreparePlan(res.RFQuery, nil, optimizer.DefaultOptions())
		if err != nil {
			return 0, nil, err
		}
		getsBefore, _ := w.Cat.Store().Stats()
		if _, err := w.Run(p); err != nil {
			return 0, nil, err
		}
		getsAfter, _ := w.Cat.Store().Stats()
		return getsAfter - getsBefore, m, nil
	}
	baseGets, _, err := rfSeries(true)
	if err != nil {
		return nil, err
	}
	rfGets, m, err := rfSeries(false)
	if err != nil {
		return nil, err
	}
	res.BaselineGets, res.FilteredGets = baseGets, rfGets
	if rfGets > 0 {
		res.GetReduction = float64(baseGets) / float64(rfGets)
	}
	res.RFFilesPruned = m.Counter("scan.files.rf_pruned").Value()
	res.RFRowsFiltered = m.Counter("join.rf.rows_filtered").Value()

	// Spill series: same world, same plan, in-memory vs a tiny hash-table
	// budget. The spilled run must reproduce the in-memory output
	// byte-for-byte and actually spill (partition count from /metrics).
	res.SpillQuery = "SELECT e.cat, COUNT(*) AS n, SUM(f.v) AS sv FROM events e JOIN events f ON e.id = f.id GROUP BY e.cat"
	w, m2, _, err := joinWorld(cfg)
	if err != nil {
		return nil, err
	}
	p, err := w.PreparePlan(res.SpillQuery, nil, optimizer.DefaultOptions())
	if err != nil {
		return nil, err
	}
	memRows, n, err := runRows(w, p)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("bench: spill query returned no rows")
	}
	w.Engine.SpillBytes = cfg.SpillBytes
	spillRows, _, err := runRows(w, p)
	if err != nil {
		return nil, err
	}
	res.SpillIdentical = memRows == spillRows
	res.SpillPartitions = m2.Counter("exec.spill.partitions").Value()
	res.SpillBytes = m2.Counter("exec.spill.bytes").Value()
	if res.SpillPartitions == 0 {
		return nil, fmt.Errorf("bench: spill budget %d did not trigger spilling", cfg.SpillBytes)
	}
	return res, nil
}

// FormatJoin renders the experiment in the report layout.
func FormatJoin(r *JoinResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hash join: %d probe rows in %d files, %d build keys\n\n", r.Rows, r.Files, r.BuildRows)
	fmt.Fprintf(&b, "runtime filter (selective join): %d GETs -> %d GETs (%.1fx fewer), %d files pruned, %d probe rows filtered\n",
		r.BaselineGets, r.FilteredGets, r.GetReduction, r.RFFilesPruned, r.RFRowsFiltered)
	fmt.Fprintf(&b, "spill-to-storage: budget %d bytes -> %d partitions / %d bytes spilled, identical output: %v\n",
		r.SpillBytesLimit, r.SpillPartitions, r.SpillBytes, r.SpillIdentical)
	return b.String()
}

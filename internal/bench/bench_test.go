package bench

import (
	"strings"
	"testing"
	"time"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/exec"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/sandbox"
	"lakeguard/internal/types"
)

// TestTable2Shape verifies the headline result of the paper's evaluation at
// reduced scale: sandboxed execution costs extra, the movement-bound simple
// UDF pays a larger relative overhead than the CPU-bound hash UDF, and
// fusion keeps overhead from exploding with the UDF count.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Table2Config{SimpleRows: 60_000, HashRows: 2_000, UDFCounts: []int{5, 10}, Repetitions: table2Repetitions, Fuse: true}
	rows, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var meanSimple, meanHash float64
	for _, r := range rows {
		t.Logf("n=%d simple=%.1f%% hash=%.1f%%", r.NumUDFs, r.SimpleOverheadPct, r.HashOverheadPct)
		if r.SimpleIsolated <= 0 || r.HashIsolated <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
		meanSimple += r.SimpleOverheadPct
		meanHash += r.HashOverheadPct
	}
	meanSimple /= float64(len(rows))
	meanHash /= float64(len(rows))
	// Timing assertions are only meaningful when this process has stable
	// CPU time; under concurrent test packages on a shared core the
	// measurements are noise (use cmd/lakeguard-bench standalone for the
	// real numbers).
	if noise := EnvironmentNoise(); noise > 0.15 {
		t.Skipf("environment too noisy for timing assertions (%.0f%% run-to-run drift); measured means: simple=%.1f%% hash=%.1f%%",
			noise*100, meanSimple, meanHash)
	}
	// CPU-bound user code amortizes the crossing: its mean relative
	// overhead must stay below the movement-bound kernel's across the
	// sweep (individual points carry timing noise).
	if meanHash >= meanSimple {
		t.Errorf("mean hash overhead %.1f%% should be below mean simple overhead %.1f%%", meanHash, meanSimple)
	}
	// Fusion keeps overhead bounded even at 10 UDFs.
	last := rows[len(rows)-1]
	if last.SimpleOverheadPct > 80 {
		t.Errorf("simple overhead at n=10 is %.1f%%; fusion appears broken", last.SimpleOverheadPct)
	}
}

// TestFusionKeepsOverheadFlat is ablation A1. Wall-clock comparisons are
// too noisy on shared single-core CI boxes, so the assertion is on the
// deterministic mechanism: with fusion, all 10 UDFs share one sandbox
// crossing per batch; without it, every UDF pays its own crossing.
func TestFusionKeepsOverheadFlat(t *testing.T) {
	crossings := func(fuse bool) int64 {
		w := NewWorld(sandbox.Config{})
		w.Engine.FuseUDFs = fuse
		if err := w.SeedPairs(20_000); err != nil {
			t.Fatal(err)
		}
		opts := optimizer.DefaultOptions()
		opts.FuseUDFs = fuse
		pl, err := w.PreparePlan(UDFQuery(udfNames(10)), func(a *analyzer.Analyzer) {
			RegisterBenchUDFs(a, 10, SimpleUDFBody, types.KindInt64, Admin)
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(pl); err != nil {
			t.Fatal(err)
		}
		st := w.Dispatcher.Stats()
		return st.ColdStarts + st.Reuses // = sandbox acquisitions = crossings
	}
	fused := crossings(true)
	unfused := crossings(false)
	t.Logf("crossings: fused=%d unfused=%d", fused, unfused)
	if unfused != 10*fused {
		t.Errorf("unfused crossings = %d, want 10x fused (%d)", unfused, 10*fused)
	}
}

func TestColdStartAmortization(t *testing.T) {
	cfg := ColdStartConfig{Provision: 150 * time.Millisecond, Rows: 2_000, WarmQueries: 3}
	res, err := RunColdStart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("first=%v warm=%v coldStarts=%d", res.FirstQuery, res.WarmMedian(), res.ColdStarts)
	if res.ColdStarts != 1 {
		t.Errorf("cold start paid %d times, want once per session", res.ColdStarts)
	}
	if res.FirstQuery < cfg.Provision {
		t.Errorf("first query %v should include the %v provisioning delay", res.FirstQuery, cfg.Provision)
	}
	if res.WarmMedian() >= cfg.Provision {
		t.Errorf("warm queries (%v) should not pay provisioning (%v)", res.WarmMedian(), cfg.Provision)
	}
}

func TestTable1AllCapabilitiesProbeGreen(t *testing.T) {
	rows, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("expected 9 capability rows, got %d", len(rows))
	}
	for _, r := range rows {
		if !r.Probed {
			t.Errorf("%s: not probed", r.Property)
		}
		if r.Lakeguard == "FAILED" {
			t.Errorf("capability probe failed: %s", r.Property)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "Row-Filter") {
		t.Error("formatted table incomplete")
	}
}

func TestMembraneComparisonShape(t *testing.T) {
	res := RunMembraneComparison(DefaultMembraneConfig())
	t.Logf("lakeguard util=%.2f backlog=%.1f | membrane util=%.2f backlog=%.1f",
		res.LakeguardUtilization, res.LakeguardBacklog, res.MembraneUtilization, res.MembraneBacklog)
	// The shared pool must dominate the static split under bursty load.
	if res.LakeguardUtilization <= res.MembraneUtilization {
		t.Errorf("shared pool utilization %.3f should exceed static split %.3f",
			res.LakeguardUtilization, res.MembraneUtilization)
	}
	if res.LakeguardBacklog >= res.MembraneBacklog {
		t.Errorf("shared pool backlog %.1f should be below static split %.1f",
			res.LakeguardBacklog, res.MembraneBacklog)
	}
}

func TestEFGACModesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := RunEFGACModes(EFGACModesConfig{RowCounts: []int{50, 2_000}, Repetitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("rows=%d inline=%v spill=%v", r.Rows, r.Inline, r.Spill)
		if r.Inline <= 0 || r.Spill <= 0 {
			t.Fatalf("bad timings: %+v", r)
		}
	}
}

func TestWorldSeedPairs(t *testing.T) {
	w := NewWorld(sandbox.Config{})
	if err := w.SeedPairs(5_000); err != nil {
		t.Fatal(err)
	}
	pl, err := w.PreparePlan("SELECT COUNT(*) AS n, SUM(a) AS s FROM pairs", nil, optimizer.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	qc := exec.NewQueryContext(w.Cat, w.Ctx())
	b, err := w.Engine.ExecuteToBatch(qc, pl)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cols[0].Int64(0) != 5_000 {
		t.Fatalf("seeded %d rows", b.Cols[0].Int64(0))
	}
	// SUM(0..4999) = 4999*5000/2
	if b.Cols[1].Int64(0) != 4999*5000/2 {
		t.Fatalf("seed content wrong: %d", b.Cols[1].Int64(0))
	}
}

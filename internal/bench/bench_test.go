package bench

import (
	"strings"
	"testing"

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
	if raceEnabled {
		t.Skip("race build skews the sandboxed path's timing (see race_test.go); TestFusionKeepsOverheadFlat asserts the shape by counts")
	}
	// Fifteen interleaved repetitions resolve a gap of a few points between
	// the simple and the hash UDF's overhead.
	cfg := Table2Config{SimpleRows: 60_000, HashRows: 2_000, UDFCounts: []int{5, 10}, Repetitions: 15}
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

// TestFusionKeepsOverheadFlat is ablation A1 and the deterministic
// companion of TestTable2Shape: it asserts Table 2's shape from crossing
// counts instead of wall time, so it holds on any host and under the race
// detector. With fusion, every UDF count pays the crossings one UDF pays
// (one per batch, shared by the whole fused set); without it, n UDFs pay n
// times as many. Both of the paper's kernels are checked: the movement-bound
// simple UDF over several batches and the CPU-bound hash UDF.
func TestFusionKeepsOverheadFlat(t *testing.T) {
	kernels := []struct {
		name    string
		body    string
		returns types.Kind
		rows    int
	}{
		{"simple", SimpleUDFBody, types.KindInt64, 20_000},
		{"hash", HashUDFBody, types.KindString, 100},
	}
	for _, k := range kernels {
		crossings := func(n int, fuse bool) int64 {
			w := NewWorld(sandbox.Config{})
			w.Engine.FuseUDFs = fuse
			if err := w.SeedPairs(k.rows); err != nil {
				t.Fatal(err)
			}
			pl, err := w.PreparePlan(UDFQuery(udfNames(n)), func(a *analyzer.Analyzer) {
				RegisterBenchUDFs(a, n, k.body, k.returns, Admin)
			}, optimizer.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got, err := w.Run(pl); err != nil {
				t.Fatal(err)
			} else if got != k.rows {
				t.Fatalf("%s n=%d: %d rows, want %d", k.name, n, got, k.rows)
			}
			st := w.Dispatcher.Stats()
			return st.ColdStarts + st.Reuses // = sandbox acquisitions = crossings
		}
		one := crossings(1, true)
		if one == 0 {
			t.Fatalf("%s: a UDF query crossed into no sandbox", k.name)
		}
		for _, n := range []int{1, 2, 5, 10} {
			fused, unfused := crossings(n, true), crossings(n, false)
			t.Logf("%s n=%d: crossings fused=%d unfused=%d", k.name, n, fused, unfused)
			if fused != one {
				t.Errorf("%s n=%d: fused crossings = %d, want %d as at n=1", k.name, n, fused, one)
			}
			if unfused != int64(n)*fused {
				t.Errorf("%s n=%d: unfused crossings = %d, want %dx fused (%d)", k.name, n, unfused, n, int64(n)*fused)
			}
		}
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

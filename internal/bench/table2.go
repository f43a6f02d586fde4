package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/sandbox"
	"lakeguard/internal/types"
)

// Table2Config parametrizes the Table 2 reproduction.
type Table2Config struct {
	// SimpleRows is the row count for the movement-bound Sum(a+b) kernel.
	SimpleRows int
	// HashRows is the row count for the CPU-bound 100x SHA256 kernel. It is
	// smaller because each row costs 100 interpreted hash iterations; the
	// paper's metric is a ratio, which is row-count independent once the
	// run is long enough to measure.
	HashRows int
	// UDFCounts are the "Num UDF" sweep points (paper: 1, 2, 5, 10).
	UDFCounts []int
	// Repetitions per measurement (medians are reported).
	Repetitions int
}

// DefaultTable2Config matches the paper's sweep at laptop scale.
func DefaultTable2Config() Table2Config {
	return Table2Config{SimpleRows: 120_000, HashRows: 4_000, UDFCounts: []int{1, 2, 5, 10}, Repetitions: 3}
}

// Table2Row is one row of the reproduced Table 2.
type Table2Row struct {
	NumUDFs int
	// SimpleOverheadPct is the relative worst-case overhead of sandboxed vs
	// unisolated execution of the Sum(a+b) UDF.
	SimpleOverheadPct float64
	// HashOverheadPct is the same for the 100x SHA256 UDF.
	HashOverheadPct float64
	// Raw timings for EXPERIMENTS.md.
	SimpleIsolated, SimpleUnisolated time.Duration
	HashIsolated, HashUnisolated     time.Duration
}

// RunTable2 reproduces Table 2: the relative overhead of executing user code
// in a sandbox versus unisolated in-engine execution, for a movement-bound
// and a CPU-bound UDF, across UDF counts.
func RunTable2(cfg Table2Config) ([]Table2Row, error) {
	if cfg.SimpleRows == 0 {
		cfg = DefaultTable2Config()
	}
	if cfg.HashRows == 0 {
		cfg.HashRows = cfg.SimpleRows / 30
		if cfg.HashRows < 200 {
			cfg.HashRows = 200
		}
	}
	var out []Table2Row
	for _, n := range cfg.UDFCounts {
		row, err := measureRow(cfg, n)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

func overheadPct(isolated, unisolated time.Duration) float64 {
	if unisolated <= 0 {
		return 0
	}
	return (float64(isolated) - float64(unisolated)) / float64(unisolated) * 100
}

// measureRow times the simple and the hash UDF query, each with and without
// isolation. All four worlds are built and warmed up before any timing, and
// every repetition runs the four queries back to back, so a swing in machine
// load lands on every side rather than on whichever side happened to run
// during it. Each side reports the median of its repetitions. An overhead is
// the median of the per-repetition overheads: the isolated and unisolated
// runs of one repetition are adjacent in time and share the machine's load,
// so their ratio is steadier than a ratio of two separately taken medians.
func measureRow(cfg Table2Config, numUDFs int) (Table2Row, error) {
	row := Table2Row{NumUDFs: numUDFs}
	sides := []struct {
		name      string
		rows      int
		body      string
		returns   types.Kind
		inProcess bool
		median    *time.Duration
	}{
		{"simple", cfg.SimpleRows, SimpleUDFBody, types.KindInt64, false, &row.SimpleIsolated},
		{"simple", cfg.SimpleRows, SimpleUDFBody, types.KindInt64, true, &row.SimpleUnisolated},
		{"hash", cfg.HashRows, HashUDFBody, types.KindString, false, &row.HashIsolated},
		{"hash", cfg.HashRows, HashUDFBody, types.KindString, true, &row.HashUnisolated},
	}
	runs := make([]func() (time.Duration, error), len(sides))
	for i, s := range sides {
		run, err := prepareTimedRun(cfg, s.rows, numUDFs, s.body, s.returns, s.inProcess)
		if err != nil {
			return row, fmt.Errorf("bench: %s udf x%d: %w", s.name, numUDFs, err)
		}
		runs[i] = run
	}
	reps := max(cfg.Repetitions, 1)
	times := make([][]time.Duration, len(sides))
	var simplePct, hashPct []float64
	for rep := 0; rep < reps; rep++ {
		for i, s := range sides {
			d, err := runs[i]()
			if err != nil {
				return row, fmt.Errorf("bench: %s udf x%d: %w", s.name, numUDFs, err)
			}
			times[i] = append(times[i], d)
		}
		simplePct = append(simplePct, overheadPct(times[0][rep], times[1][rep]))
		hashPct = append(hashPct, overheadPct(times[2][rep], times[3][rep]))
	}
	for i, s := range sides {
		*s.median = median(times[i])
	}
	row.SimpleOverheadPct = medianPct(simplePct)
	row.HashOverheadPct = medianPct(hashPct)
	return row, nil
}

// prepareTimedRun builds a world for the UDF query, runs it once to warm up
// (sandbox provisioning, plan caches) and returns a function timing one more
// run of it. Each timed run starts from a collected heap, so it does not pay
// for garbage the other side of the pair left behind.
func prepareTimedRun(cfg Table2Config, rows, numUDFs int, body string, returns types.Kind, inProcess bool) (func() (time.Duration, error), error) {
	w := NewWorld(sandbox.Config{}) // no cold-start delay: continuous overhead only
	w.Engine.UnsafeInProcessUDFs = inProcess
	w.Engine.Parallelism = 1
	if err := w.SeedPairs(rows); err != nil {
		return nil, err
	}
	opts := optimizer.DefaultOptions()
	// UDF names are deterministic (udf0..udfN-1), so the query can be built
	// up front and the UDFs registered during analysis.
	query := UDFQuery(udfNames(numUDFs))
	pl, err := w.PreparePlan(query, func(an *analyzer.Analyzer) {
		RegisterBenchUDFs(an, numUDFs, body, returns, Admin)
	}, opts)
	if err != nil {
		return nil, err
	}
	if _, err := w.Run(pl); err != nil {
		return nil, err
	}
	return func() (time.Duration, error) {
		runtime.GC()
		start := time.Now()
		got, err := w.Run(pl)
		if err != nil {
			return 0, err
		}
		if got != rows {
			return 0, fmt.Errorf("bench: expected %d rows, got %d", rows, got)
		}
		return time.Since(start), nil
	}, nil
}

// EnvironmentNoise estimates timing instability by running a fixed CPU
// workload twice and returning the relative difference. CI environments
// sharing cores across concurrent test processes can exceed 0.15, at which
// point timing-based shape assertions are meaningless and tests should
// fall back to structural checks.
func EnvironmentNoise() float64 {
	work := func() time.Duration {
		start := time.Now()
		var acc uint64 = 1469598103934665603
		for i := 0; i < 40_000_000; i++ {
			acc = (acc ^ uint64(i)) * 1099511628211
		}
		if acc == 0 { // defeat dead-code elimination
			return 0
		}
		return time.Since(start)
	}
	a, b := work(), work()
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo <= 0 {
		return 1
	}
	return float64(hi-lo) / float64(lo)
}

func medianPct(ps []float64) float64 {
	sort.Float64s(ps)
	return ps[len(ps)/2]
}

func median(ts []time.Duration) time.Duration {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	return ts[len(ts)/2]
}

// FormatTable2 renders results in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Relative worst-case overhead of executing user code in a\n")
	b.WriteString("sandbox vs unisolated execution.\n\n")
	b.WriteString("| Num UDF | Simple UDF Sum(a+b) | Hash UDF 100x SHA256 |\n")
	b.WriteString("|---------|---------------------|----------------------|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %7d | %18.2f%% | %19.2f%% |\n", r.NumUDFs, r.SimpleOverheadPct, r.HashOverheadPct)
	}
	b.WriteString("\nRaw timings (median):\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  n=%2d simple: sandbox=%v in-process=%v | hash: sandbox=%v in-process=%v\n",
			r.NumUDFs, r.SimpleIsolated, r.SimpleUnisolated, r.HashIsolated, r.HashUnisolated)
	}
	return b.String()
}

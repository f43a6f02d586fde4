// lakeguard-bench regenerates the paper's evaluation tables and figures in
// their published layout. See DESIGN.md §2 for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured results.
//
// Usage:
//
//	go run ./cmd/lakeguard-bench                      # run everything
//	go run ./cmd/lakeguard-bench -experiment table2   # one experiment
//	go run ./cmd/lakeguard-bench -quick               # reduced sizes
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"lakeguard/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: table1, table2, coldstart, membrane, efgac-modes, exec, skipping, join, telemetry, churn, tenancy, all")
	quick := flag.Bool("quick", false, "reduced problem sizes for a fast smoke run")
	jsonOut := flag.String("json", "", "also write machine-readable results to this file (exec experiment → BENCH_exec.json)")
	maxOverheadPct := flag.Float64("max-overhead-pct", 0,
		"telemetry experiment: fail (non-zero exit) if instrumentation overhead exceeds this percentage (0 = report only)")
	flag.Parse()

	run := func(name string, fn func() error) {
		switch *experiment {
		case "all", name:
			fmt.Printf("==== %s ====\n\n", name)
			start := time.Now()
			if err := fn(); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
	ran := false
	wrap := func(name string, fn func() error) {
		if *experiment == "all" || *experiment == name {
			ran = true
		}
		run(name, fn)
	}

	wrap("table1", func() error {
		rows, err := bench.RunTable1()
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable1(rows))
		return nil
	})

	wrap("table2", func() error {
		cfg := bench.DefaultTable2Config()
		if *quick {
			cfg = bench.Table2Config{SimpleRows: 20_000, HashRows: 800, UDFCounts: []int{1, 2, 5, 10}, Repetitions: 3, Fuse: true}
		}
		rows, err := bench.RunTable2(cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable2(rows))
		return nil
	})

	wrap("coldstart", func() error {
		cfg := bench.DefaultColdStartConfig()
		if *quick {
			cfg.Provision = 100 * time.Millisecond
			cfg.Rows = 2_000
		}
		res, err := bench.RunColdStart(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("Sandbox startup (§5): simulated provisioning delay %v\n\n", cfg.Provision)
		fmt.Printf("  first UDF query of the session: %v  (includes cold start)\n", res.FirstQuery.Round(time.Millisecond))
		fmt.Printf("  warm queries (sandbox reused):  %v\n", res.WarmMedian().Round(time.Microsecond))
		fmt.Printf("  sandbox provisions in session:  %d (paid once, then amortized)\n", res.ColdStarts)
		return nil
	})

	wrap("membrane", func() error {
		res := bench.RunMembraneComparison(bench.DefaultMembraneConfig())
		fmt.Println(bench.FormatMembrane(res))
		return nil
	})

	wrap("efgac-modes", func() error {
		cfg := bench.DefaultEFGACModesConfig()
		if *quick {
			cfg = bench.EFGACModesConfig{RowCounts: []int{100, 2_000}, Repetitions: 2}
		}
		rows, err := bench.RunEFGACModes(cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatEFGACModes(rows))
		return nil
	})

	wrap("exec", func() error {
		cfg := bench.DefaultExecScalingConfig()
		if *quick {
			cfg.Rows = 40_000
			cfg.RowsPerFile = 2048
			cfg.ReadLatency = 2 * time.Millisecond
			cfg.Repetitions = 1
		}
		res, err := bench.RunExecScaling(cfg)
		if err != nil {
			return err
		}
		res.FilterKernel, err = bench.RunFilterKernel(8192, 5)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatExecScaling(res))
		if *jsonOut != "" {
			data, err := res.FormatJSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})

	wrap("skipping", func() error {
		cfg := bench.DefaultSkippingConfig()
		if *quick {
			cfg.Rows = 40_000
			cfg.RowsPerFile = 2048
			cfg.ReadLatency = 2 * time.Millisecond
			cfg.Repetitions = 1
		}
		res, err := bench.RunSkipping(cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatSkipping(res))
		if res.GetReduction < 3 {
			return fmt.Errorf("data skipping reduced GETs only %.1fx (want >= 3x)", res.GetReduction)
		}
		if res.WarmRepeat.LogEntriesReplayed != 0 {
			return fmt.Errorf("warm repeat replayed %d log entries (want 0)", res.WarmRepeat.LogEntriesReplayed)
		}
		if *jsonOut != "" {
			data, err := res.FormatJSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})

	wrap("join", func() error {
		cfg := bench.DefaultJoinConfig()
		if *quick {
			cfg = bench.JoinConfig{Rows: 150_000, RowsPerFile: 4096, BuildRows: 300, SpillBytes: 1 << 19}
		}
		res, err := bench.RunJoin(cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatJoin(res))
		if res.GetReduction < 3 {
			return fmt.Errorf("runtime filter reduced probe GETs only %.1fx (want >= 3x)", res.GetReduction)
		}
		if !res.SpillIdentical {
			return fmt.Errorf("spilled run did not reproduce the in-memory result")
		}
		if *jsonOut != "" {
			data, err := res.FormatJSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})

	wrap("telemetry", func() error {
		cfg := bench.DefaultTelemetryOverheadConfig()
		if *quick {
			cfg.Rows = 60_000
			cfg.RowsPerFile = 2048
			cfg.Repetitions = 3
		}
		res, err := bench.RunTelemetryOverhead(cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTelemetryOverhead(res))
		if *jsonOut != "" {
			data, err := res.FormatJSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		if *maxOverheadPct > 0 && res.OverheadPct > *maxOverheadPct {
			return fmt.Errorf("telemetry overhead %.1f%% exceeds budget %.1f%%", res.OverheadPct, *maxOverheadPct)
		}
		if *maxOverheadPct > 0 && res.VerifyOverheadPct > *maxOverheadPct {
			return fmt.Errorf("sentinel verify overhead %.1f%% exceeds budget %.1f%%", res.VerifyOverheadPct, *maxOverheadPct)
		}
		return nil
	})

	wrap("churn", func() error {
		cfg := bench.DefaultChurnConfig()
		if *quick {
			cfg.Commits = 200
			cfg.Duration = 400 * time.Millisecond
			cfg.MinSpeedup = 3
			cfg.Rows = 8_192
			cfg.RowsPerFile = 512
		}
		res, err := bench.RunChurn(cfg)
		if res != nil {
			fmt.Println(bench.FormatChurn(res))
		}
		if err != nil {
			return err
		}
		if *jsonOut != "" {
			data, err := res.FormatJSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})

	wrap("tenancy", func() error {
		cfg := bench.DefaultTenancyConfig()
		if *quick {
			cfg.Duration = time.Second
		}
		res, err := bench.RunTenancy(cfg)
		if res != nil {
			fmt.Println(bench.FormatTenancy(res))
		}
		if err != nil {
			return err
		}
		if *jsonOut != "" {
			data, err := res.FormatJSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})

	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
}

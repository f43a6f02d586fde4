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
		"which experiment to run: table1, table2, telemetry, tenancy, all")
	quick := flag.Bool("quick", false, "reduced problem sizes for a fast smoke run")
	jsonOut := flag.String("json", "", "also write machine-readable results to this file (telemetry and tenancy experiments)")
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
			cfg = bench.Table2Config{SimpleRows: 20_000, HashRows: 800, UDFCounts: []int{1, 2, 5, 10}, Repetitions: 3}
		}
		rows, err := bench.RunTable2(cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable2(rows))
		return nil
	})

	wrap("telemetry", func() error {
		cfg := bench.DefaultTelemetryOverheadConfig()
		if *quick {
			cfg.Rows = 60_000
			cfg.RowsPerFile = 2048
			cfg.Repetitions = 60
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

	wrap("tenancy", func() error {
		window := bench.DefaultTenancyWindow
		if *quick {
			window = time.Second
		}
		res, err := bench.RunTenancy(window)
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

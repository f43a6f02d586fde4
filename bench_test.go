// Benchmarks regenerating the paper's evaluation (one per table/figure plus
// the ablations DESIGN.md calls out). Absolute numbers come from this Go
// simulator, not the authors' production testbed; the shape is what is
// reproduced. Run:
//
//	go test -bench=. -benchmem
//
// For the formatted paper-style tables, use: go run ./cmd/lakeguard-bench
package lakeguard

import (
	"fmt"
	"testing"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/bench"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/sandbox"
	"lakeguard/internal/types"
)

// benchWorld prepares a seeded world and a UDF query plan once per config.
func benchWorld(b *testing.B, rows, numUDFs int, body string, returns types.Kind, inProcess, fuse bool) (*bench.World, func() error) {
	b.Helper()
	w := bench.NewWorld(sandbox.Config{})
	w.Engine.UnsafeInProcessUDFs = inProcess
	w.Engine.FuseUDFs = fuse
	if err := w.SeedPairs(rows); err != nil {
		b.Fatal(err)
	}
	names := make([]string, numUDFs)
	for i := range names {
		names[i] = fmt.Sprintf("udf%d", i)
	}
	pl, err := w.PreparePlan(bench.UDFQuery(names), func(a *analyzer.Analyzer) {
		bench.RegisterBenchUDFs(a, numUDFs, body, returns, bench.Admin)
	}, optimizer.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	run := func() error {
		got, err := w.Run(pl)
		if err != nil {
			return err
		}
		if got != rows {
			return fmt.Errorf("expected %d rows, got %d", rows, got)
		}
		return nil
	}
	// Warm up: provision the sandbox outside the timed region.
	if err := run(); err != nil {
		b.Fatal(err)
	}
	return w, run
}

// BenchmarkTable2 regenerates Table 2: sandboxed vs unisolated execution of
// the simple Sum(a+b) and 100x-SHA256 UDFs across UDF counts. Compare the
// Sandboxed and InProcess variants of each point to obtain the paper's
// relative-overhead percentages.
func BenchmarkTable2(b *testing.B) {
	kernels := []struct {
		name    string
		body    string
		returns types.Kind
		rows    int
	}{
		{"SimpleUDF", bench.SimpleUDFBody, types.KindInt64, 50_000},
		{"HashUDF", bench.HashUDFBody, types.KindString, 1_500},
	}
	for _, k := range kernels {
		for _, n := range []int{1, 2, 5, 10} {
			for _, mode := range []struct {
				name      string
				inProcess bool
			}{{"Sandboxed", false}, {"InProcess", true}} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", k.name, n, mode.name), func(b *testing.B) {
					_, run := benchWorld(b, k.rows, n, k.body, k.returns, mode.inProcess, true)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := run(); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(k.rows*n*b.N)/b.Elapsed().Seconds(), "udf-rows/s")
				})
			}
		}
	}
}

// BenchmarkTable1CapabilityProbes regenerates Table 1 by timing the full
// end-to-end capability probe suite (every cell is a live probe).
func BenchmarkTable1CapabilityProbes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Lakeguard == "FAILED" {
				b.Fatalf("probe failed: %s", r.Property)
			}
		}
	}
}

// BenchmarkAblationNoFusion is ablation A1: the same 10-UDF query with
// fusion disabled pays one sandbox crossing per UDF per batch.
func BenchmarkAblationNoFusion(b *testing.B) {
	for _, fuse := range []bool{true, false} {
		name := "Fused"
		if !fuse {
			name = "Unfused"
		}
		b.Run(name, func(b *testing.B) {
			_, run := benchWorld(b, 20_000, 10, bench.SimpleUDFBody, types.KindInt64, false, fuse)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTrustDomains is ablation A2: two UDFs of different owners
// never share a sandbox, so mixed-owner projections pay two crossings.
func BenchmarkAblationTrustDomains(b *testing.B) {
	cases := []struct {
		name   string
		owners []string
	}{
		{"SameOwner", []string{"alice", "alice"}},
		{"MixedOwners", []string{"alice", "bob"}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			w := bench.NewWorld(sandbox.Config{})
			if err := w.SeedPairs(20_000); err != nil {
				b.Fatal(err)
			}
			pl, err := w.PreparePlan("SELECT udf0(a, b) AS r0, udf1(a, b) AS r1 FROM pairs",
				func(a *analyzer.Analyzer) {
					a.TempFuncs = map[string]analyzer.TempFunc{}
					for i, owner := range c.owners {
						a.TempFuncs[fmt.Sprintf("udf%d", i)] = analyzer.TempFunc{
							Params: []types.Field{
								{Name: "a", Kind: types.KindInt64},
								{Name: "b", Kind: types.KindInt64},
							},
							Returns: types.KindInt64,
							Body:    bench.SimpleUDFBody,
							Owner:   owner,
						}
					}
				}, optimizer.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := w.Run(pl); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Run(pl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

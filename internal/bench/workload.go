// Package bench implements the experiment harness: workload generators, the
// baselines (unisolated execution, unfused sandboxes), and runners that
// regenerate the paper's Table 1 and Table 2 plus the telemetry overhead and
// tenancy saturation gates (see DESIGN.md §2 for the experiment index).
package bench

import (
	"context"
	"fmt"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/catalog"
	"lakeguard/internal/exec"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/sandbox"
	"lakeguard/internal/sql"
	"lakeguard/internal/storage"
	"lakeguard/internal/types"
)

// Admin is the benchmark administrator identity.
const Admin = "bench-admin"

// World is an in-process deployment used by benchmarks: catalog + engine,
// without the HTTP layer so measurements isolate execution costs.
type World struct {
	Cat        *catalog.Catalog
	Engine     *exec.Engine
	Dispatcher *sandbox.Dispatcher
}

// NewWorld builds a bench world. sandboxCfg controls isolation behavior.
func NewWorld(sandboxCfg sandbox.Config) *World {
	cat := catalog.New(storage.NewStore(), nil)
	cat.AddAdmin(Admin)
	dispatcher := sandbox.NewDispatcher(sandbox.FactoryFunc(func(ctx context.Context, domain string) (*sandbox.Sandbox, error) {
		return sandbox.NewContext(ctx, domain, sandboxCfg)
	}))
	return &World{
		Cat:        cat,
		Dispatcher: dispatcher,
		Engine:     &exec.Engine{Tables: cat, Dispatcher: dispatcher, FuseUDFs: true},
	}
}

// Ctx returns the admin request context.
func (w *World) Ctx() catalog.RequestContext {
	return catalog.RequestContext{User: Admin, Compute: catalog.ComputeStandard, SessionID: "bench"}
}

// SeedPairs creates table `pairs` with n rows of two BIGINT columns — the
// fixed-row-count workload of the Table 2 experiment.
func (w *World) SeedPairs(n int) error {
	schema := types.NewSchema(
		types.Field{Name: "a", Kind: types.KindInt64},
		types.Field{Name: "b", Kind: types.KindInt64},
	)
	if err := w.Cat.CreateTable(w.Ctx(), []string{"pairs"}, schema, false, ""); err != nil {
		return err
	}
	var batches []*types.Batch
	remaining := n
	i := 0
	for remaining > 0 {
		sz := types.DefaultBatchSize * 8
		if sz > remaining {
			sz = remaining
		}
		bb := types.NewBatchBuilder(schema, sz)
		for r := 0; r < sz; r++ {
			bb.Column(0).AppendInt64(int64(i))
			bb.Column(1).AppendInt64(int64(i * 7))
			i++
		}
		batches = append(batches, bb.Build())
		remaining -= sz
	}
	_, err := w.Cat.AppendToTable(w.Ctx(), []string{"pairs"}, batches)
	return err
}

// SeedEvents creates table `events` (id BIGINT, v BIGINT, cat STRING) as
// rows/rowsPerFile separate data files, so the parallel scan has file-granular
// morsels to distribute.
func (w *World) SeedEvents(rows, rowsPerFile int) (files int, err error) {
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "v", Kind: types.KindInt64},
		types.Field{Name: "cat", Kind: types.KindString},
	)
	if err := w.Cat.CreateTable(w.Ctx(), []string{"events"}, schema, false, ""); err != nil {
		return 0, err
	}
	cats := []string{"alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"}
	var batches []*types.Batch
	id := 0
	for id < rows {
		sz := rowsPerFile
		if rows-id < sz {
			sz = rows - id
		}
		bb := types.NewBatchBuilder(schema, sz)
		for r := 0; r < sz; r++ {
			bb.Column(0).AppendInt64(int64(id))
			bb.Column(1).AppendInt64(int64((id * 37) % 1000))
			bb.Column(2).AppendString(cats[id%len(cats)])
			id++
		}
		batches = append(batches, bb.Build())
	}
	if _, err := w.Cat.AppendToTable(w.Ctx(), []string{"events"}, batches); err != nil {
		return 0, err
	}
	return len(batches), nil
}

// UDF kernels matching the paper's two workloads.
const (
	// SimpleUDFBody is the "Sum(a+b)" kernel: negligible compute, overhead
	// dominated by moving batches across the isolation boundary.
	SimpleUDFBody = "return a + b"
	// HashUDFBody is the "100x SHA256" kernel: CPU-bound user code, so the
	// relative isolation overhead shrinks.
	HashUDFBody = `
h = str(a)
for i in range(100):
    h = sha256(h)
return h
`
)

// RegisterBenchUDFs registers n copies of the given kernel as session UDFs
// in the analyzer (same owner = one trust domain, so they fuse).
func RegisterBenchUDFs(a *analyzer.Analyzer, n int, body string, returns types.Kind, owner string) []string {
	if a.TempFuncs == nil {
		a.TempFuncs = map[string]analyzer.TempFunc{}
	}
	names := make([]string, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("udf%d", i)
		params := []types.Field{
			{Name: "a", Kind: types.KindInt64},
			{Name: "b", Kind: types.KindInt64},
		}
		a.TempFuncs[name] = analyzer.TempFunc{Params: params, Returns: returns, Body: body, Owner: owner}
		names[i] = name
	}
	return names
}

// udfNames returns the deterministic names RegisterBenchUDFs assigns.
func udfNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("udf%d", i)
	}
	return names
}

// UDFQuery builds "SELECT udf0(a,b), udf1(a,b), ... FROM pairs".
func UDFQuery(udfNames []string) string {
	q := "SELECT "
	for i, n := range udfNames {
		if i > 0 {
			q += ", "
		}
		q += fmt.Sprintf("%s(a, b) AS r%d", n, i)
	}
	return q + " FROM pairs"
}

// PreparePlan parses, analyzes (with the given UDFs), and optimizes a query.
func (w *World) PreparePlan(query string, prep func(*analyzer.Analyzer), opts optimizer.Options) (plan.Node, error) {
	q, err := sql.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	a := analyzer.New(w.Cat, w.Ctx())
	if prep != nil {
		prep(a)
	}
	resolved, err := a.Analyze(q)
	if err != nil {
		return nil, err
	}
	return optimizer.Optimize(resolved, opts), nil
}

// Run executes a prepared plan to completion and returns the row count.
func (w *World) Run(p plan.Node) (int, error) {
	qc := exec.NewQueryContext(w.Cat, w.Ctx())
	batches, err := w.Engine.Execute(qc, p)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, b := range batches {
		n += b.NumRows()
	}
	return n, nil
}

package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/delta"
	"lakeguard/internal/faults"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/sandbox"
	"lakeguard/internal/security"
	"lakeguard/internal/sql"
	"lakeguard/internal/types"
)

// seedEventsTable creates a multi-file table so the parallel scan actually
// fans out: `files` files of `rowsPerFile` rows with BIGINT, DOUBLE, and
// STRING columns, including NULLs.
func seedEventsTable(t testing.TB, w *world, files, rowsPerFile int) {
	t.Helper()
	seedEventsTableNamed(t, w, "events", files, rowsPerFile)
}

// seedEventsTableNamed is seedEventsTable under another table name.
func seedEventsTableNamed(t testing.TB, w *world, name string, files, rowsPerFile int) {
	t.Helper()
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "v", Kind: types.KindInt64, Nullable: true},
		types.Field{Name: "score", Kind: types.KindFloat64, Nullable: true},
		types.Field{Name: "cat", Kind: types.KindString},
	)
	if err := w.cat.CreateTable(adminCtx(), []string{name}, schema, false, ""); err != nil {
		t.Fatal(err)
	}
	cats := []string{"alpha", "beta", "gamma", "delta"}
	batches := make([]*types.Batch, files)
	id := int64(0)
	for f := 0; f < files; f++ {
		bb := types.NewBatchBuilder(schema, rowsPerFile)
		for r := 0; r < rowsPerFile; r++ {
			row := []types.Value{
				types.Int64(id),
				types.Int64((id * 37) % 1000),
				types.Float64(float64(id%97) * 1.5),
				types.String(cats[id%int64(len(cats))]),
			}
			if id%13 == 0 {
				row[1] = types.Null(types.KindInt64)
			}
			if id%17 == 0 {
				row[2] = types.Null(types.KindFloat64)
			}
			bb.AppendRow(row)
			id++
		}
		batches[f] = bb.Build()
	}
	if _, err := w.cat.AppendToTable(adminCtx(), []string{name}, batches); err != nil {
		t.Fatal(err)
	}
}

// maskEventsFiles commits one deletion-vector DELETE against a seeded events
// table: every 7th physical row of files 1 and 2, and every row of file 3
// (a fully covered file the scan prunes before its GET). It returns the
// number of rows masked.
func maskEventsFiles(t testing.TB, w *world, name string) int {
	t.Helper()
	snap, _, err := w.cat.OpenSnapshot(adminCtx(), "main.default."+name, -1)
	if err != nil {
		t.Fatal(err)
	}
	mut := delta.Mutation{Operation: "DELETE", SetDVs: map[string]*delta.DeletionVector{}}
	masked := 0
	for _, fi := range []int{1, 2, 3} {
		f := snap.Files[fi]
		var rows []int64
		for r := int64(0); r < f.NumRecords; r++ {
			if fi == 3 || r%7 == 0 {
				rows = append(rows, r)
			}
		}
		mut.SetDVs[f.Path] = f.DV.Union(rows)
		mut.Expect = append(mut.Expect, delta.FileExpectation{Path: f.Path})
		masked += len(rows)
	}
	if _, err := w.cat.MutateTable(adminCtx(), []string{name}, mut); err != nil {
		t.Fatal(err)
	}
	return masked
}

// orderedRows renders a batch's rows in their exact output order.
func orderedRows(b *types.Batch) string {
	var sb strings.Builder
	for i := 0; i < b.NumRows(); i++ {
		fmt.Fprintln(&sb, b.Row(i))
	}
	return sb.String()
}

// TestSerialParallelEquivalence asserts the hard determinism contract of the
// morsel exchange: for every query in the corpus, every worker count returns
// row-for-row IDENTICAL results (same rows, same order) as serial execution —
// not just the same multiset.
func TestSerialParallelEquivalence(t *testing.T) {
	w := newWorld(t)
	seedQuotas(t, w)
	seedEventsTable(t, w, 16, 64)
	// The same data with deletion vectors: the DV keep-list must mask the
	// same rows whichever worker reads a file.
	seedEventsTableNamed(t, w, "dv_events", 16, 64)
	live := 16*64 - maskEventsFiles(t, w, "dv_events")

	queries := generateQueries(120, 11)
	queries = append(queries,
		// Multi-file scans that exercise each parallel operator shape.
		"SELECT cat, SUM(v) AS total, COUNT(*) AS n, AVG(score) AS s FROM events WHERE v > 250 GROUP BY cat",
		"SELECT SUM(score) AS s, MIN(v) AS lo, MAX(v) AS hi FROM events",
		"SELECT COUNT(DISTINCT cat) AS c, SUM(DISTINCT v) AS sv FROM events WHERE id < 500",
		"SELECT id, v * 2 AS twice, score / 2 AS half FROM events WHERE v >= 100 AND v < 900 AND score IS NOT NULL",
		"SELECT e.id, e.v FROM events e JOIN events f ON e.id = f.v WHERE e.id < 300",
		"SELECT e.cat, q.quota FROM events e LEFT JOIN quotas q ON e.cat = q.seller WHERE e.id % 111 = 0",
		"SELECT id, score FROM events WHERE cat = 'alpha' ORDER BY score DESC, id LIMIT 17 OFFSET 5",
		"SELECT DISTINCT cat FROM events WHERE v > 500 ORDER BY cat",
		"SELECT id FROM events WHERE id < 64 UNION ALL SELECT id FROM events WHERE id >= 960",
		"SELECT v FROM (SELECT v FROM events WHERE v IS NOT NULL) sub WHERE v % 7 = 0 ORDER BY v LIMIT 25",
		// Deletion-vector-masked files, partially and fully covered.
		"SELECT cat, SUM(v) AS total, COUNT(*) AS n FROM dv_events WHERE v > 250 GROUP BY cat ORDER BY cat",
		"SELECT id, v, cat FROM dv_events WHERE id >= 40 AND id < 300",
		"SELECT COUNT(*) AS n FROM dv_events",
	)

	type result struct {
		rows string
		err  error
	}
	run := func(q string, workers int) result {
		w.engine.Parallelism = workers
		b, err := w.runWithOptions(q, optimizer.DefaultOptions())
		if err != nil {
			return result{err: err}
		}
		return result{rows: orderedRows(b)}
	}
	if got := run("SELECT COUNT(*) AS n FROM dv_events", 1); got.err != nil || got.rows != fmt.Sprintf("[%d]\n", live) {
		t.Fatalf("serial scan of dv_events = %q (err %v), want %d live rows", got.rows, got.err, live)
	}
	for _, q := range queries {
		serial := run(q, 1)
		for _, workers := range []int{2, 8} {
			par := run(q, workers)
			if (serial.err == nil) != (par.err == nil) {
				t.Fatalf("error divergence for %q at workers=%d: serial=%v parallel=%v", q, workers, serial.err, par.err)
			}
			if serial.err != nil {
				continue
			}
			if serial.rows != par.rows {
				t.Fatalf("ordered-result divergence for %q at workers=%d:\nserial:\n%s\nparallel:\n%s",
					q, workers, serial.rows, par.rows)
			}
		}
	}
	w.engine.Parallelism = 0
}

// countingTables wraps a TableProvider and counts file reads.
type countingTables struct {
	inner TableProvider
	reads atomic.Int64
}

func (c *countingTables) OpenSnapshot(ctx security.RequestContext, table string, version int64) (*delta.Snapshot, func(string) (*types.Batch, error), error) {
	snap, read, err := c.inner.OpenSnapshot(ctx, table, version)
	if err != nil {
		return nil, nil, err
	}
	return snap, func(path string) (*types.Batch, error) {
		c.reads.Add(1)
		return read(path)
	}, nil
}

// TestParallelScanChaos injects a storage fault mid-scan and asserts the
// failure contract: exactly one wrapped root-cause error surfaces, and the
// failing worker cancels its siblings before they chew through the remaining
// files.
func TestParallelScanChaos(t *testing.T) {
	w := newWorld(t)
	const files = 64
	seedEventsTable(t, w, files, 32)

	// Fail the 8th data-file read (Delta log reads hit "_delta_log" paths and
	// are left alone so planning succeeds).
	var dataReads atomic.Int64
	injected := fmt.Errorf("%w: synthetic storage outage", faults.ErrInjected)
	w.cat.Store().SetFault(func(op, path string) error {
		if op != "get" || strings.Contains(path, "_delta_log") {
			return nil
		}
		if dataReads.Add(1) == 8 {
			return injected
		}
		return nil
	})
	defer w.cat.Store().SetFault(nil)

	counting := &countingTables{inner: w.cat}
	w.engine.Tables = counting
	w.engine.Parallelism = 4
	defer func() {
		w.engine.Tables = w.cat
		w.engine.Parallelism = 0
	}()

	_, err := w.tryQuery(adminCtx(), "SELECT SUM(v) AS s FROM events")
	if err == nil {
		t.Fatal("expected the injected storage fault to surface")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error lost the injected root cause: %v", err)
	}
	if !strings.Contains(err.Error(), "parallel worker") {
		t.Fatalf("error not attributed to a parallel worker: %v", err)
	}
	// Fail-fast: the scan must stop well short of reading every file. The
	// exchange keeps at most ~3x workers morsels in flight past the failure.
	if got := counting.reads.Load(); got >= files {
		t.Fatalf("scan read all %d files despite mid-scan failure (reads=%d); sibling cancellation broken", files, got)
	}
}

// TestParallelWorkerErrorWrappedOnce fails a UDF under a parallel scan and
// asserts the exchange attributes the failure to a parallel worker exactly
// once, however many exchanges the error crosses, while errors.Is and
// errors.As still reach the root cause.
func TestParallelWorkerErrorWrappedOnce(t *testing.T) {
	const query = "SELECT COUNT(*) AS n FROM events WHERE f(id) > 0"
	run := func(t *testing.T, body string, inj *faults.Injector) error {
		w := newWorld(t)
		w.engine.Dispatcher = sandbox.NewDispatcher(sandbox.FactoryFunc(func(ctx context.Context, domain string) (*sandbox.Sandbox, error) {
			return sandbox.New(domain, sandbox.Config{Faults: inj}), nil
		}))
		seedEventsTable(t, w, 16, 64)
		w.engine.Parallelism = 4
		q, err := sql.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		a := analyzer.New(w.cat, adminCtx())
		a.TempFuncs = map[string]analyzer.TempFunc{"f": {
			Params:  []types.Field{{Name: "x", Kind: types.KindInt64}},
			Returns: types.KindInt64,
			Body:    body,
			Owner:   admin,
		}}
		resolved, err := a.Analyze(q)
		if err != nil {
			t.Fatal(err)
		}
		_, err = w.engine.ExecuteToBatch(NewQueryContext(w.cat, adminCtx()), optimizer.Optimize(resolved, optimizer.DefaultOptions()))
		if err == nil {
			t.Fatal("expected the UDF failure to surface")
		}
		if n := strings.Count(err.Error(), "parallel worker"); n != 1 {
			t.Fatalf("worker prefix appears %d times, want 1: %v", n, err)
		}
		return err
	}

	t.Run("user error", func(t *testing.T) {
		err := run(t, "return 1 / (x - 300)", nil)
		if !strings.Contains(err.Error(), "user code failed") {
			t.Fatalf("error lost the user-code cause: %v", err)
		}
	})
	t.Run("sandbox crash", func(t *testing.T) {
		inj := faults.New(1).Add(faults.Rule{Site: faults.SiteSandboxInterpret, Kind: faults.KindCrash, Skip: 3})
		err := run(t, "return x + 1", inj)
		var crash *sandbox.SandboxCrashError
		if !errors.As(err, &crash) || crash.FaultSite != faults.SiteSandboxInterpret {
			t.Fatalf("errors.As lost the sandbox crash: %v", err)
		}
	})
}

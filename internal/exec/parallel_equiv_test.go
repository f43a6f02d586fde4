package exec

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"lakeguard/internal/faults"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/security"
	"lakeguard/internal/types"

	"lakeguard/internal/delta"
)

// seedEventsTable creates a multi-file table so the parallel scan actually
// fans out: `files` files of `rowsPerFile` rows with BIGINT, DOUBLE, and
// STRING columns, including NULLs.
func seedEventsTable(t testing.TB, w *world, files, rowsPerFile int) {
	t.Helper()
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "v", Kind: types.KindInt64, Nullable: true},
		types.Field{Name: "score", Kind: types.KindFloat64, Nullable: true},
		types.Field{Name: "cat", Kind: types.KindString},
	)
	if err := w.cat.CreateTable(adminCtx(), []string{"events"}, schema, false, ""); err != nil {
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
	if _, err := w.cat.AppendToTable(adminCtx(), []string{"events"}, batches); err != nil {
		t.Fatal(err)
	}
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

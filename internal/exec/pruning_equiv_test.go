package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"lakeguard/internal/faults"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// seedClusteredTable writes `files` files whose id column is clustered (file
// f holds ids [f*rowsPerFile, (f+1)*rowsPerFile)), so range predicates on id
// genuinely prune. v carries NULLs, score carries NULLs plus NaNs in every
// third file, and cat is a low-cardinality string.
func seedClusteredTable(t testing.TB, w *world, files, rowsPerFile int) {
	t.Helper()
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "v", Kind: types.KindInt64, Nullable: true},
		types.Field{Name: "score", Kind: types.KindFloat64, Nullable: true},
		types.Field{Name: "cat", Kind: types.KindString},
	)
	if err := w.cat.CreateTable(adminCtx(), []string{"clustered"}, schema, false, ""); err != nil {
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
			if f%3 == 2 && r == rowsPerFile/2 {
				row[2] = types.Float64(math.NaN())
			}
			bb.AppendRow(row)
			id++
		}
		batches[f] = bb.Build()
	}
	if _, err := w.cat.AppendToTable(adminCtx(), []string{"clustered"}, batches); err != nil {
		t.Fatal(err)
	}
}

// generatePruningPredicates builds a randomized corpus of WHERE clauses over
// ints (with NULLs), floats (with NULLs and NaNs), and strings — the shapes
// the zone-map evaluator handles plus shapes it must pass through untouched.
func generatePruningPredicates(n int, seed int64, maxID int) []string {
	rng := rand.New(rand.NewSource(seed))
	cols := []string{"id", "v", "score"}
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	cmp := func() string {
		c := cols[rng.Intn(len(cols))]
		op := ops[rng.Intn(len(ops))]
		switch c {
		case "id":
			return fmt.Sprintf("id %s %d", op, rng.Intn(maxID+maxID/4))
		case "v":
			return fmt.Sprintf("v %s %d", op, rng.Intn(1100)-50)
		default:
			return fmt.Sprintf("score %s %.1f", op, float64(rng.Intn(300))/2)
		}
	}
	var out []string
	for i := 0; i < n; i++ {
		var p string
		switch rng.Intn(7) {
		case 0:
			p = cmp()
		case 1:
			p = cmp() + " AND " + cmp()
		case 2:
			p = cmp() + " OR " + cmp()
		case 3:
			p = cmp() + " AND (" + cmp() + " OR " + cmp() + ")"
		case 4:
			p = []string{"v IS NULL", "v IS NOT NULL", "score IS NULL", "score IS NOT NULL"}[rng.Intn(4)]
			p += " AND " + cmp()
		case 5:
			p = fmt.Sprintf("cat IN ('alpha', 'nosuch') AND id < %d", rng.Intn(maxID))
		default:
			p = fmt.Sprintf("%d <= id AND id < %d", rng.Intn(maxID), rng.Intn(maxID))
		}
		out = append(out, p)
	}
	return out
}

// TestPruningEquivalence is the data-skipping correctness contract: for a
// randomized predicate corpus over a clustered multi-file table, the pruned
// scan returns row-for-row identical results to the unpruned scan at every
// worker count. Files containing NaN or NULLs must never be wrongly skipped.
func TestPruningEquivalence(t *testing.T) {
	w := newWorld(t)
	const files, rowsPerFile = 24, 48
	seedClusteredTable(t, w, files, rowsPerFile)
	m := telemetry.NewRegistry()
	w.engine.Metrics = m

	preds := generatePruningPredicates(80, 23, files*rowsPerFile)
	preds = append(preds,
		"score = 48.0",            // NaN file overlap: NaN == anything is true in this engine
		"score < 0",               // prunable everywhere except NaN files
		"v IS NULL",               // null-count pruning
		"v IS NOT NULL AND v < 0", // impossible range: every file pruned
		"id >= 100 AND id < 148",  // exactly one file
		"cat = 'nosuch'",          // strings: min/max cover all cats, nothing pruned
	)
	for _, p := range preds {
		q := "SELECT id, v, score, cat FROM clustered WHERE " + p + " ORDER BY id"
		w.engine.disableSkipping = true
		w.engine.Parallelism = 1
		base, berr := w.runWithOptions(q, optimizer.DefaultOptions())
		w.engine.disableSkipping = false
		for _, workers := range []int{1, 2, 8} {
			w.engine.Parallelism = workers
			got, gerr := w.runWithOptions(q, optimizer.DefaultOptions())
			if (berr == nil) != (gerr == nil) {
				t.Fatalf("error divergence for %q workers=%d: base=%v pruned=%v", p, workers, berr, gerr)
			}
			if berr != nil {
				continue
			}
			if orderedRows(base) != orderedRows(got) {
				t.Fatalf("pruned scan diverged for %q at workers=%d:\nbase:\n%s\npruned:\n%s",
					p, workers, orderedRows(base), orderedRows(got))
			}
		}
	}
	w.engine.Parallelism = 0
	if m.Counter("scan.files.pruned").Value() == 0 {
		t.Fatal("corpus never pruned a file; the test is not exercising data skipping")
	}
	if m.Counter("scan.files.scanned").Value() == 0 {
		t.Fatal("scan.files.scanned never counted")
	}
}

// TestPruningChaos asserts two fault-interaction contracts: a pruned file is
// never requested from storage at all (its injected fault cannot fire), and a
// fault on a surviving file surfaces exactly once with its root cause intact.
func TestPruningChaos(t *testing.T) {
	w := newWorld(t)
	const files, rowsPerFile = 16, 32
	seedClusteredTable(t, w, files, rowsPerFile)

	// `id >= 96 AND id < 128` lives entirely in the 4th data file (ids 96..127).
	const q = "SELECT SUM(v) AS s FROM clustered WHERE id >= 96 AND id < 128"

	var prunedGets, faultsFired atomic.Int64
	injected := fmt.Errorf("%w: synthetic storage outage", faults.ErrInjected)
	w.cat.Store().SetFault(func(op, path string) error {
		if op != "get" || strings.Contains(path, "_delta_log") || !strings.Contains(path, "clustered") {
			return nil
		}
		if strings.HasSuffix(path, fmt.Sprintf("-%06d.arrow", 4)) { // 4th data file = ids 96..127
			faultsFired.Add(1)
			return injected
		}
		prunedGets.Add(1)
		return nil
	})
	defer w.cat.Store().SetFault(nil)

	w.engine.Parallelism = 4
	defer func() { w.engine.Parallelism = 0 }()
	_, err := w.tryQuery(adminCtx(), q)
	if err == nil {
		t.Fatal("expected the injected fault on the surviving file to surface")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error lost the injected root cause: %v", err)
	}
	if n := faultsFired.Load(); n != 1 {
		t.Fatalf("fault fired %d times, want exactly 1", n)
	}
	if n := prunedGets.Load(); n != 0 {
		t.Fatalf("pruned files were fetched %d times; data skipping must avoid the GET entirely", n)
	}
}

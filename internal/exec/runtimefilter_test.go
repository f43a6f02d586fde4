package exec

import (
	"strings"
	"testing"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/sql"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// seedTinyKeys creates a one-batch build-side table whose keys cover a
// narrow slice of the events id range, so a runtime filter can prune most
// probe-side files by their zone maps.
func seedTinyKeys(t testing.TB, w *world, keys ...int64) {
	t.Helper()
	schema := types.NewSchema(types.Field{Name: "k", Kind: types.KindInt64})
	if err := w.cat.CreateTable(adminCtx(), []string{"tiny"}, schema, false, ""); err != nil {
		t.Fatal(err)
	}
	bb := types.NewBatchBuilder(schema, len(keys))
	for _, k := range keys {
		bb.AppendRow([]types.Value{types.Int64(k)})
	}
	if _, err := w.cat.AppendToTable(adminCtx(), []string{"tiny"}, []*types.Batch{bb.Build()}); err != nil {
		t.Fatal(err)
	}
}

// profiledRun executes a query with an EXPLAIN ANALYZE profile attached and
// returns the result plus the rendered profile.
func (w *world) profiledRun(t testing.TB, query string) (*types.Batch, *telemetry.Profile, string) {
	t.Helper()
	q, err := sql.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := analyzer.New(w.cat, adminCtx()).Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	optimized := optimizer.Optimize(resolved, optimizer.DefaultOptions())
	qc := NewQueryContext(w.cat, adminCtx())
	qc.Profile = telemetry.NewProfile()
	b, err := w.engine.ExecuteToBatch(qc, optimized)
	if err != nil {
		t.Fatal(err)
	}
	return b, qc.Profile, qc.Profile.Render()
}

// TestRuntimeFilterPrunesProbeReads asserts the core runtime-filter win: on
// a selective inner join, build-side min/max + bloom filters skip probe-side
// files before any storage GET, composing with zone maps — and the result is
// identical with filters off. The second query puts a projection between the
// join and its probe scan: above one worker that projection is a parallel
// stream, and it must not pull the scan before the join installed its
// filters. Each query runs 20 times, because a stream started too early
// reads a varying number of files.
func TestRuntimeFilterPrunesProbeReads(t *testing.T) {
	queries := []string{
		"SELECT e.id, e.v FROM events e JOIN tiny t ON e.id = t.k",
		"SELECT e.id, e.w FROM (SELECT id, v * 2 AS w FROM events) e JOIN tiny t ON e.id = t.k",
	}
	for _, workers := range []int{1, 4} {
		w := newWorld(t)
		const files = 16
		seedEventsTable(t, w, files, 64)
		seedTinyKeys(t, w, 5, 9, 60)

		counting := &countingTables{inner: w.cat}
		w.engine.Tables = counting
		w.engine.Parallelism = workers

		for _, q := range queries {
			counting.reads.Store(0)
			w.engine.disableRuntimeFilters = true
			plain, err := w.runWithOptions(q, optimizer.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			plainReads := counting.reads.Load()

			w.engine.disableRuntimeFilters = false
			for run := 0; run < 20; run++ {
				counting.reads.Store(0)
				filtered, err := w.runWithOptions(q, optimizer.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				rfReads := counting.reads.Load()

				if orderedRows(plain) != orderedRows(filtered) {
					t.Fatalf("workers=%d run %d %q: runtime filter changed the result:\noff:\n%s\non:\n%s",
						workers, run, q, orderedRows(plain), orderedRows(filtered))
				}
				if filtered.NumRows() != 3 {
					t.Fatalf("workers=%d run %d %q: join returned %d rows, want 3", workers, run, q, filtered.NumRows())
				}
				// Keys 5/9/60 all live in the first of the 16 probe files; every
				// other file's [min,max] id range is disjoint from the filter's
				// [5,60] and must be skipped before any GET. (plainReads
				// includes the build side's file too.)
				if rfReads >= plainReads {
					t.Fatalf("workers=%d run %d %q: runtime filter saved no reads: %d with rf vs %d without", workers, run, q, rfReads, plainReads)
				}
				if maxReads := int64(1 + 1); rfReads > maxReads {
					t.Fatalf("workers=%d run %d %q: runtime filter left %d reads, want <= %d", workers, run, q, rfReads, maxReads)
				}
			}
		}
	}
}

// TestRuntimeFilterEmptyBuildPrunesEverything: an empty build side lets the
// filter prune every probe file without a single GET.
func TestRuntimeFilterEmptyBuildPrunesEverything(t *testing.T) {
	w := newWorld(t)
	seedEventsTable(t, w, 8, 32)
	schema := types.NewSchema(types.Field{Name: "k", Kind: types.KindInt64})
	if err := w.cat.CreateTable(adminCtx(), []string{"tiny"}, schema, false, ""); err != nil {
		t.Fatal(err)
	}
	counting := &countingTables{inner: w.cat}
	w.engine.Tables = counting
	b, err := w.runWithOptions("SELECT e.id FROM events e JOIN tiny t ON e.id = t.k", optimizer.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 0 {
		t.Fatalf("join over empty build returned %d rows", b.NumRows())
	}
	if reads := counting.reads.Load(); reads != 0 {
		t.Fatalf("empty build side still read %d files", reads)
	}
}

// TestExplainAnalyzeJoinCounters asserts the new EXPLAIN ANALYZE surface:
// probe rows with runtime-filter attribution, file pruning attribution on
// the scan, and spill accounting — plus the matching /metrics counters.
func TestExplainAnalyzeJoinCounters(t *testing.T) {
	w := newWorld(t)
	seedEventsTable(t, w, 16, 64)
	seedTinyKeys(t, w, 5, 9, 60)
	metrics := telemetry.NewRegistry()
	w.engine.Metrics = metrics

	_, _, render := w.profiledRun(t, "SELECT e.id, e.v FROM events e JOIN tiny t ON e.id = t.k")
	for _, want := range []string{
		"probe rows",
		"by runtime filter",
		"runtime filter 15", // 16 files minus the one holding keys 5/9/60
	} {
		if !strings.Contains(render, want) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", want, render)
		}
	}
	if got := metrics.Counter("scan.files.rf_pruned").Value(); got != 15 {
		t.Fatalf("scan.files.rf_pruned = %d, want 15", got)
	}
	if got := metrics.Counter("join.rf.rows_filtered").Value(); got <= 0 {
		t.Fatalf("join.rf.rows_filtered = %d, want > 0", got)
	}

	// Force the join to spill and check the accounting surfaces too.
	w.engine.SpillBytes = 1
	defer func() { w.engine.SpillBytes = 0 }()
	_, prof, render := w.profiledRun(t, "SELECT e.id, f.id FROM events e JOIN events f ON e.id = f.v WHERE f.id < 256")
	if !strings.Contains(render, "spill") {
		t.Fatalf("EXPLAIN ANALYZE missing spill accounting:\n%s", render)
	}
	var spilled bool
	var walk func(o *telemetry.OpStats)
	walk = func(o *telemetry.OpStats) {
		if o == nil {
			return
		}
		if o.SpillPartitions() > 0 && o.SpillBytes() > 0 {
			spilled = true
		}
		for _, c := range o.Children() {
			walk(c)
		}
	}
	walk(prof.Root())
	if !spilled {
		t.Fatalf("no operator reported spill partitions/bytes:\n%s", render)
	}
	if got := metrics.Counter("exec.spill.partitions").Value(); got <= 0 {
		t.Fatalf("exec.spill.partitions = %d, want > 0", got)
	}
	if got := metrics.Counter("exec.spill.bytes").Value(); got <= 0 {
		t.Fatalf("exec.spill.bytes = %d, want > 0", got)
	}

	// Spilled aggregation reports through the same counters.
	before := metrics.Counter("exec.spill.partitions").Value()
	_, _, render = w.profiledRun(t, "SELECT v, COUNT(*) AS n, SUM(score) AS s FROM events GROUP BY v")
	if !strings.Contains(render, "spill") {
		t.Fatalf("EXPLAIN ANALYZE missing aggregation spill accounting:\n%s", render)
	}
	if got := metrics.Counter("exec.spill.partitions").Value(); got <= before {
		t.Fatalf("aggregation spill did not move exec.spill.partitions (%d -> %d)", before, got)
	}
}

// The bloom filter is sized to the build keys it holds: a power of two of
// at least 16 bits per key, one word at the least and 1<<20 bits at the
// most, and every key added is found again.
func TestBloomSizedToBuild(t *testing.T) {
	for _, c := range []struct{ keys, bits int }{{0, 64}, {3, 64}, {8, 128}, {1000, 16384}, {1 << 20, 1 << 20}} {
		f := newBloomFilter(c.keys)
		if got := len(f.words) * 64; got != c.bits || f.mask != uint64(got-1) {
			t.Errorf("%d keys: %d bits (mask %#x), want %d", c.keys, got, f.mask, c.bits)
		}
		for k := 0; k < min(c.keys, 4096); k++ {
			h := uint64(k) * 0x9e3779b97f4a7c15
			f.add(h)
			if !f.mayContain(h) {
				t.Fatalf("%d keys: key %d lost", c.keys, k)
			}
		}
	}
}

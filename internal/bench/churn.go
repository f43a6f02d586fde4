package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lakeguard/internal/delta"
	"lakeguard/internal/exec"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/sandbox"
	"lakeguard/internal/storage"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// ChurnConfig sizes the high-churn lakehouse experiment: a long commit
// history replayed cold with and without log checkpoints, a concurrent
// appender/compactor/reader mix asserting snapshot isolation, and
// deletion-vector DML with serial/parallel scan equivalence.
type ChurnConfig struct {
	// Commits is the history length for the cold-replay comparison.
	Commits int
	// CheckpointInterval is the checkpoint cadence of the accelerated world
	// (the baseline world runs with checkpoints disabled).
	CheckpointInterval int
	// Appenders/Readers are the concurrent writer and reader counts of the
	// churn phase; one compactor always runs alongside them.
	Appenders, Readers int
	// Duration bounds the concurrent churn phase.
	Duration time.Duration
	// MinSpeedup is the required cold-replay entry reduction (checkpointed
	// vs baseline); the run fails below it.
	MinSpeedup float64
	// Rows/RowsPerFile size the deletion-vector DML table.
	Rows, RowsPerFile int
}

// DefaultChurnConfig is the recorded experiment: 1000 commits, the default
// checkpoint interval, 3 appenders + compactor + 2 readers for 2 seconds,
// and a 10x replay-reduction floor.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{
		Commits:            1000,
		CheckpointInterval: delta.DefaultCheckpointInterval,
		Appenders:          3,
		Readers:            2,
		Duration:           2 * time.Second,
		MinSpeedup:         10,
		Rows:               32_768,
		RowsPerFile:        2048,
	}
}

// ChurnResult is the full recorded experiment, serialized to
// BENCH_churn.json.
type ChurnResult struct {
	Commits            int `json:"commits"`
	CheckpointInterval int `json:"checkpoint_interval"`

	// Cold replay: entries decoded by a fresh log handle's first snapshot.
	BaselineEntriesReplayed   int64   `json:"baseline_entries_replayed"`
	CheckpointEntriesReplayed int64   `json:"checkpoint_entries_replayed"`
	ReplaySpeedup             float64 `json:"replay_speedup"`
	CheckpointWrites          int64   `json:"checkpoint_writes"`
	ColdFromCheckpoint        int64   `json:"cold_snapshots_from_checkpoint"`
	BaselineColdMS            float64 `json:"baseline_cold_ms"`
	CheckpointColdMS          float64 `json:"checkpoint_cold_ms"`
	ListSavedEntries          int64   `json:"list_saved_entries"`

	// Concurrent churn under appenders + compactor + readers.
	AppendsCommitted    int64 `json:"appends_committed"`
	CompactionPasses    int64 `json:"compaction_passes"`
	CompactedFiles      int64 `json:"compacted_files"`
	ReaderSnapshots     int64 `json:"reader_snapshots"`
	IsolationViolations int64 `json:"isolation_violations"`
	CommitRetries       int64 `json:"commit_retries"`

	// Deletion-vector DML.
	DeleteMatchedFiles int   `json:"delete_matched_files"`
	DeleteRowsMasked   int   `json:"delete_rows_masked"`
	DeletePuts         int64 `json:"delete_puts"`
	DVMaskedScanRows   int64 `json:"dv_masked_scan_rows"`
	ResultsIdentical   bool  `json:"results_identical_par_1_2_8"`
}

// FormatJSON renders the result for BENCH_churn.json.
func (r *ChurnResult) FormatJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// churnSchema is the single-column table used by the commit-history phases.
func churnSchema() *types.Schema {
	return types.NewSchema(types.Field{Name: "n", Kind: types.KindInt64})
}

func churnRow(v int64) *types.Batch {
	bb := types.NewBatchBuilder(churnSchema(), 1)
	bb.AppendRow([]types.Value{types.Int64(v)})
	return bb.Build()
}

// coldReplay builds a table with `commits` single-row commits at the given
// checkpoint interval, then measures what a cold (fresh-handle) snapshot of
// it costs: log entries decoded, checkpoint loads, and wall time.
func coldReplay(commits, interval int) (replayed, fromCkpt, ckptWrites, listSaved int64, wall time.Duration, err error) {
	store := storage.NewStore()
	m := telemetry.NewRegistry()
	store.SetMetrics(m)
	cred := store.Signer().Issue("churn/", storage.ModeReadWrite, time.Hour)
	log, err := delta.Create(store, &cred, "churn/t/", churnSchema())
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	log.SetMetrics(m)
	log.SetCheckpointInterval(interval)
	for i := 0; i < commits; i++ {
		if _, err := log.Append(&cred, []*types.Batch{churnRow(int64(i))}); err != nil {
			return 0, 0, 0, 0, 0, err
		}
	}
	ckptWrites = m.Counter("delta.checkpoint.writes").Value()
	listSaved = m.Counter("storage.list_saved").Value()

	// A fresh handle with its own registry isolates the cold-start cost.
	cold := delta.Attach(store, "churn/t/")
	m2 := telemetry.NewRegistry()
	cold.SetMetrics(m2)
	start := time.Now()
	snap, err := cold.Snapshot(&cred, -1)
	wall = time.Since(start)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	if snap.NumRecords() != int64(commits) {
		return 0, 0, 0, 0, 0, fmt.Errorf("bench: cold snapshot has %d rows, want %d", snap.NumRecords(), commits)
	}
	replayed = m2.Counter("snapshot.entries.replayed").Value()
	fromCkpt = m2.Counter("snapshot.replay.from_checkpoint").Value()
	return replayed, fromCkpt, ckptWrites, listSaved, wall, nil
}

// runConcurrentChurn drives appenders, a compactor, and readers against one
// table and self-checks snapshot isolation: every snapshot's row count must
// lie between the appends completed before it was taken and the appends
// started by the time it returned, versions must be monotonic per reader,
// and compaction must never change the logical row count.
func runConcurrentChurn(cfg ChurnConfig, res *ChurnResult) error {
	w := NewWorld(sandbox.Config{})
	m := telemetry.NewRegistry()
	w.Cat.SetMetrics(m)
	w.Cat.SetCheckpointInterval(cfg.CheckpointInterval)
	ctx := w.Ctx()
	parts := []string{"churn"}
	if err := w.Cat.CreateTable(ctx, parts, churnSchema(), false, ""); err != nil {
		return err
	}
	var started, done, violations, snapshots, passes, compacted atomic.Int64
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Appenders+cfg.Readers+1)

	for a := 0; a < cfg.Appenders; a++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				started.Add(1)
				for {
					_, err := w.Cat.AppendToTable(ctx, parts, []*types.Batch{churnRow(int64(id*1_000_000 + i))})
					if err == nil {
						break
					}
					if !errors.Is(err, delta.ErrConcurrentCommit) {
						errCh <- err
						return
					}
				}
				done.Add(1)
			}
		}(a)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			stats, err := w.Cat.CompactTable(ctx, parts, 1<<20)
			if err != nil && !errors.Is(err, delta.ErrConcurrentCommit) {
				errCh <- err
				return
			}
			if err == nil && stats.FilesIn > 0 {
				passes.Add(1)
				compacted.Add(int64(stats.FilesIn))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	for r := 0; r < cfg.Readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastVersion := int64(-1)
			for time.Now().Before(deadline) {
				completedBefore := done.Load()
				snap, _, err := w.Cat.OpenSnapshot(ctx, "main.default.churn", -1)
				if err != nil {
					errCh <- err
					return
				}
				startedAfter := started.Load()
				rows := snap.NumRecords()
				if rows < completedBefore || rows > startedAfter {
					violations.Add(1)
				}
				if snap.Version < lastVersion {
					violations.Add(1)
				}
				lastVersion = snap.Version
				snapshots.Add(1)
			}
		}()
	}

	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	// Settled check: the final snapshot holds exactly the committed rows.
	snap, _, err := w.Cat.OpenSnapshot(ctx, "main.default.churn", -1)
	if err != nil {
		return err
	}
	if snap.NumRecords() != done.Load() {
		violations.Add(1)
	}
	res.AppendsCommitted = done.Load()
	res.CompactionPasses = passes.Load()
	res.CompactedFiles = compacted.Load()
	res.ReaderSnapshots = snapshots.Load()
	res.IsolationViolations = violations.Load()
	res.CommitRetries = m.Counter("delta.commit.retries").Value()
	return nil
}

// runDVPhase deletes rows from two files of a multi-file table through a
// deletion-vector mutation, asserts the commit wrote no data files, and
// checks scans at parallelism 1, 2 and 8 agree byte-for-byte on the masked
// table.
func runDVPhase(cfg ChurnConfig, res *ChurnResult) error {
	w := NewWorld(sandbox.Config{})
	m := telemetry.NewRegistry()
	w.Cat.SetMetrics(m)
	w.Engine.Metrics = m
	ctx := w.Ctx()
	if _, err := w.SeedEvents(cfg.Rows, cfg.RowsPerFile); err != nil {
		return err
	}
	snap, read, err := w.Cat.OpenSnapshot(ctx, "main.default.events", -1)
	if err != nil {
		return err
	}
	if len(snap.Files) < 4 {
		return fmt.Errorf("bench: need >= 4 files, have %d", len(snap.Files))
	}
	// Mark every 7th row of two mid-table files deleted.
	mut := delta.Mutation{Operation: "DELETE", SetDVs: map[string]*delta.DeletionVector{}}
	for _, fi := range []int{1, 2} {
		f := snap.Files[fi]
		b, err := read(f.Path)
		if err != nil {
			return err
		}
		var hits []int64
		for r := 0; r < b.NumRows(); r++ {
			if b.Cols[0].Int64(r)%7 == 0 {
				hits = append(hits, int64(r))
			}
		}
		mut.SetDVs[f.Path] = f.DV.Union(hits)
		mut.Expect = append(mut.Expect, delta.FileExpectation{Path: f.Path, DVCardinality: 0})
		res.DeleteRowsMasked += len(hits)
	}
	res.DeleteMatchedFiles = 2
	_, putsBefore := w.Cat.Store().Stats()
	if _, err := w.Cat.MutateTable(ctx, []string{"events"}, mut); err != nil {
		return err
	}
	_, putsAfter := w.Cat.Store().Stats()
	res.DeletePuts = putsAfter - putsBefore
	if res.DeletePuts > 2 {
		return fmt.Errorf("bench: DV delete issued %d PUTs (want <= 2: the log entry and at most a checkpoint)", res.DeletePuts)
	}

	query := "SELECT cat, SUM(v) AS total, COUNT(*) AS n FROM events WHERE v > 250 GROUP BY cat ORDER BY cat"
	collect := func(par int) (string, error) {
		w.Engine.Parallelism = par
		p, err := w.PreparePlan(query, nil, optimizer.DefaultOptions())
		if err != nil {
			return "", err
		}
		qc := exec.NewQueryContext(w.Cat, ctx)
		batches, err := w.Engine.Execute(qc, p)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, batch := range batches {
			for _, row := range batch.Rows() {
				fmt.Fprintf(&b, "%v\n", row)
			}
		}
		return b.String(), nil
	}
	ref, err := collect(1)
	if err != nil {
		return err
	}
	res.ResultsIdentical = true
	for _, par := range []int{2, 8} {
		got, err := collect(par)
		if err != nil {
			return err
		}
		if got != ref {
			res.ResultsIdentical = false
		}
	}
	if !res.ResultsIdentical {
		return fmt.Errorf("bench: scans disagree across parallelism 1/2/8 with deletion vectors")
	}
	res.DVMaskedScanRows = m.Counter("scan.rows.dv_masked").Value()
	if res.DVMaskedScanRows == 0 {
		return fmt.Errorf("bench: scans masked no deletion-vector rows")
	}
	return nil
}

// RunChurn runs the three-phase high-churn experiment and enforces its
// acceptance floors: replay speedup, zero isolation violations, bounded
// DELETE writes, and byte-identical results at parallelism 1/2/8.
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) {
	res := &ChurnResult{Commits: cfg.Commits, CheckpointInterval: cfg.CheckpointInterval}

	baseReplayed, _, _, _, baseWall, err := coldReplay(cfg.Commits, 0)
	if err != nil {
		return nil, err
	}
	ckptReplayed, fromCkpt, ckptWrites, listSaved, ckptWall, err := coldReplay(cfg.Commits, cfg.CheckpointInterval)
	if err != nil {
		return nil, err
	}
	res.BaselineEntriesReplayed = baseReplayed
	res.CheckpointEntriesReplayed = ckptReplayed
	res.CheckpointWrites = ckptWrites
	res.ColdFromCheckpoint = fromCkpt
	res.ListSavedEntries = listSaved
	res.BaselineColdMS = float64(baseWall) / float64(time.Millisecond)
	res.CheckpointColdMS = float64(ckptWall) / float64(time.Millisecond)
	if ckptReplayed > 0 {
		res.ReplaySpeedup = float64(baseReplayed) / float64(ckptReplayed)
	}
	if res.ReplaySpeedup < cfg.MinSpeedup {
		return res, fmt.Errorf("bench: cold replay reduced entries only %.1fx (want >= %.0fx: %d -> %d entries)",
			res.ReplaySpeedup, cfg.MinSpeedup, baseReplayed, ckptReplayed)
	}
	if fromCkpt == 0 {
		return res, fmt.Errorf("bench: cold snapshot did not seed from a checkpoint")
	}

	if err := runConcurrentChurn(cfg, res); err != nil {
		return res, err
	}
	if res.IsolationViolations > 0 {
		return res, fmt.Errorf("bench: %d snapshot-isolation violations under concurrent churn", res.IsolationViolations)
	}
	if res.AppendsCommitted == 0 {
		return res, fmt.Errorf("bench: no appends committed during the churn window")
	}

	if err := runDVPhase(cfg, res); err != nil {
		return res, err
	}
	return res, nil
}

// FormatChurn renders the experiment in the report layout.
func FormatChurn(r *ChurnResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "High-churn lakehouse: %d commits, checkpoint interval %d\n\n", r.Commits, r.CheckpointInterval)
	fmt.Fprintf(&b, "%-34s %12s %12s\n", "", "no ckpt", "checkpointed")
	fmt.Fprintf(&b, "%-34s %12d %12d\n", "cold replay: log entries decoded", r.BaselineEntriesReplayed, r.CheckpointEntriesReplayed)
	fmt.Fprintf(&b, "%-34s %12.1f %12.1f\n", "cold snapshot wall ms", r.BaselineColdMS, r.CheckpointColdMS)
	fmt.Fprintf(&b, "\n%.1fx fewer entries replayed (%d checkpoints written, %d LIST entries skipped via seeded listing)\n",
		r.ReplaySpeedup, r.CheckpointWrites, r.ListSavedEntries)
	fmt.Fprintf(&b, "\nconcurrent churn: %d appends, %d compaction passes (%d files folded), %d reader snapshots\n",
		r.AppendsCommitted, r.CompactionPasses, r.CompactedFiles, r.ReaderSnapshots)
	fmt.Fprintf(&b, "isolation violations: %d; commit retries under contention: %d\n",
		r.IsolationViolations, r.CommitRetries)
	fmt.Fprintf(&b, "\nDV delete: %d rows across %d files in %d PUTs; scans masked %d rows\n",
		r.DeleteRowsMasked, r.DeleteMatchedFiles, r.DeletePuts, r.DVMaskedScanRows)
	fmt.Fprintf(&b, "serial/parallel(2,8) results identical: %v\n", r.ResultsIdentical)
	return b.String()
}

package catalog

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"lakeguard/internal/delta"
	"lakeguard/internal/types"
)

// TestChurnSnapshotIsolation runs appenders, a compactor and readers
// against one table at once and checks snapshot isolation from the readers'
// side. A snapshot's row count must lie between the appends completed
// before it was opened and the appends started by the time it returned,
// versions must never go backwards for a reader, and once everyone stops
// the table holds exactly the committed rows. The run is bounded by
// operation counts: each appender commits a fixed number of rows with a
// bounded number of conflict retries, and the compactor and readers keep
// going until the appenders finish (and for at least a minimum number of
// passes), so no wall-clock deadline decides how much work is checked.
func TestChurnSnapshotIsolation(t *testing.T) {
	const (
		appenders       = 3
		appendsEach     = 25
		readers         = 2
		minReads        = 50
		minCompactions  = 10
		checkpointEvery = 4
		// maxRetries bounds one append's conflict retries, so a commit
		// path that never succeeds fails the test instead of spinning.
		maxRetries = 1000
	)
	c := newTestCatalog(t)
	c.SetCheckpointInterval(checkpointEvery)
	ctx := adminCtx()
	parts := []string{"churn"}
	schema := types.NewSchema(types.Field{Name: "n", Kind: types.KindInt64})
	if err := c.CreateTable(ctx, parts, schema, false, ""); err != nil {
		t.Fatal(err)
	}
	row := func(v int64) []*types.Batch {
		bb := types.NewBatchBuilder(schema, 1)
		bb.AppendRow([]types.Value{types.Int64(v)})
		return []*types.Batch{bb.Build()}
	}

	var started, done, snapshots, passes atomic.Int64
	appending := make(chan struct{})
	stillAppending := func() bool {
		select {
		case <-appending:
			return false
		default:
			return true
		}
	}
	errCh := make(chan error, appenders+readers+1)
	var appendWG, wg sync.WaitGroup

	for a := 0; a < appenders; a++ {
		appendWG.Add(1)
		go func(id int) {
			defer appendWG.Done()
			for i := 0; i < appendsEach; i++ {
				started.Add(1)
				var err error
				for try := 0; try < maxRetries; try++ {
					if _, err = c.AppendToTable(ctx, parts, row(int64(id*appendsEach+i))); !errors.Is(err, delta.ErrConcurrentCommit) {
						break
					}
				}
				if err != nil {
					errCh <- err
					return
				}
				done.Add(1)
			}
		}(a)
	}
	go func() {
		appendWG.Wait()
		close(appending)
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < minCompactions || stillAppending(); i++ {
			stats, err := c.CompactTable(ctx, parts, 1<<20)
			if err != nil && !errors.Is(err, delta.ErrConcurrentCommit) {
				errCh <- err
				return
			}
			if err == nil && stats.FilesIn > 0 {
				passes.Add(1)
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastVersion := int64(-1)
			for i := 0; i < minReads || stillAppending(); i++ {
				completedBefore := done.Load()
				snap, _, err := c.OpenSnapshot(ctx, "main.default.churn", -1)
				if err != nil {
					errCh <- err
					return
				}
				startedAfter := started.Load()
				if rows := snap.NumRecords(); rows < completedBefore || rows > startedAfter {
					t.Errorf("reader %d: snapshot v%d has %d rows, want between %d completed and %d started appends",
						r, snap.Version, rows, completedBefore, startedAfter)
				}
				if snap.Version < lastVersion {
					t.Errorf("reader %d: version went back from %d to %d", r, lastVersion, snap.Version)
				}
				lastVersion = snap.Version
				snapshots.Add(1)
			}
		}(r)
	}

	appendWG.Wait()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	snap, _, err := c.OpenSnapshot(ctx, "main.default.churn", -1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snap.NumRecords(), int64(appenders*appendsEach); got != want || done.Load() != want {
		t.Fatalf("settled table has %d rows after %d committed appends, want %d", got, done.Load(), want)
	}
	t.Logf("%d appends, %d compaction passes, %d reader snapshots, final version %d",
		done.Load(), passes.Load(), snapshots.Load(), snap.Version)
}

package exec

import (
	"context"
	"io"
	"sync/atomic"

	"lakeguard/internal/delta"
	"lakeguard/internal/faults"
	"lakeguard/internal/plan"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// localOp yields one in-memory batch.
type localOp struct {
	batch *types.Batch
	done  bool
}

func (o *localOp) Next() (*types.Batch, error) {
	if o.done {
		return nil, io.EOF
	}
	o.done = true
	return o.batch, nil
}

func (o *localOp) Close() error { return nil }

// batchesOp yields a fixed list of batches (remote results).
type batchesOp struct {
	batches []*types.Batch
	pos     int
}

func (o *batchesOp) Next() (*types.Batch, error) {
	if o.pos >= len(o.batches) {
		return nil, io.EOF
	}
	b := o.batches[o.pos]
	o.pos++
	return b, nil
}

func (o *batchesOp) Close() error { return nil }

// scanSource reads and filters one snapshot file at a time, the morsel of
// a scan's pipeline: all state is read-only after construction, so any number
// of workers share it, and reads go through the credential-bound reader the
// TableProvider vended — the operator never sees the credential itself.
type scanSource struct {
	scan *plan.Scan
	snap *delta.Snapshot
	// files are the snapshot-file indices that survived zone-map pruning,
	// in snapshot order. Morsel i reads snap.Files[files[i]].
	files []int
	read  func(path string) (*types.Batch, error)
	// filters are the pushed filters, compiled for the statement.
	filters *ExprProgs
	// stats is the owning scan operator's profile sink (nil = unprofiled).
	stats *telemetry.OpStats
	// metrics is the engine's registry (nil = unmetered).
	metrics *telemetry.Registry
	// rfs holds runtime filters installed by a downstream hash join after its
	// build side materialized. Atomic because install happens on the join's
	// goroutine while parallel scan workers may already be spinning up.
	rfs atomic.Pointer[[]*scanRF]
}

// installRF publishes a runtime filter; subsequent file reads consult it.
func (s *scanSource) installRF(rf *scanRF) {
	for {
		old := s.rfs.Load()
		var next []*scanRF
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, rf)
		if s.rfs.CompareAndSwap(old, &next) {
			return
		}
	}
}

func (s *scanSource) runtimeFilters() []*scanRF {
	if p := s.rfs.Load(); p != nil {
		return *p
	}
	return nil
}

// scanFile reads, decodes and filters one snapshot file into a view: its
// projected columns and the rows that survive. Each read gets a
// "storage.get" span under ctx (a no-op when the query is untraced); a
// failed read records the injected fault site so chaos runs are attributable
// from the trace alone.
func (s *scanSource) scanFile(ctx context.Context, i int, sc *SelScratch) (view, error) {
	f := s.snap.Files[s.files[i]]
	// Runtime filters first: if a join's build-side bounds prove this file
	// empty from its statistics alone, skip the storage GET entirely. This
	// composes with build-time zone-map pruning — those files never made it
	// into s.files; these are pruned by bounds only known at run time.
	for _, rf := range s.runtimeFilters() {
		if rf.filePrunable(s.scan, f.Stats) {
			s.stats.AddRuntimeFilePruned(1)
			if s.metrics != nil {
				s.metrics.Counter("scan.files.rf_pruned").Add(1)
			}
			return view{schema: s.scan.Schema()}, nil
		}
	}
	_, gs := telemetry.StartSpan(ctx, "storage.get")
	gs.SetAttr("path", f.Path)
	b, err := s.read(f.Path)
	if err != nil {
		if site := faults.SiteOf(err); site != "" {
			gs.SetAttr("fault.site", site)
		}
	} else {
		gs.SetInt("rows", int64(b.NumRows()))
		s.stats.AddReadBytes(f.SizeBytes)
	}
	gs.EndErr(err)
	if err != nil {
		return view{}, err
	}
	// Deletion-vector masking starts the selection: DV ordinals refer to the
	// file's physical row order, so the keep-list indexes the raw batch, and
	// filters narrow it from there. Every downstream step — and the
	// serial/parallel equivalence guarantee — sees only surviving rows.
	v := view{schema: b.Schema, cols: b.Cols, n: b.NumRows()}
	if f.DV.Cardinality() > 0 {
		v.sel = f.DV.KeepIndexes(v.n, sc.next(v.n))
		sc.keep(v.sel)
		masked := v.n - len(v.sel)
		s.stats.AddDVMasked(masked)
		if s.metrics != nil {
			s.metrics.Counter("scan.rows.dv_masked").Add(int64(masked))
		}
	}
	// Projection by reference: when the optimizer prunes columns it remaps
	// the pushed-filter ordinals to the projected layout.
	if s.scan.ProjectedCols != nil {
		cols := make([]*types.Column, len(s.scan.ProjectedCols))
		for i, c := range s.scan.ProjectedCols {
			cols[i] = b.Cols[c]
		}
		v.schema, v.cols = s.scan.Schema(), cols
	}
	if v.sel, err = s.filters.Select(v.cols, v.n, v.sel, sc); err != nil {
		return view{}, err
	}
	// Runtime filters refine the same selection after the pushed filters: the
	// drop is an optimization (those rows cannot join), so it is attributed to
	// the owning join's profile, not the scan's row counts.
	for _, rf := range s.runtimeFilters() {
		if v.sel != nil && len(v.sel) == 0 {
			break
		}
		var dropped int
		v.sel, dropped = rf.filterRows(v.cols, v.n, v.sel, sc)
		if dropped > 0 {
			rf.joinStats.AddRuntimeFiltered(dropped)
			if rf.metrics != nil {
				rf.metrics.Counter("join.rf.rows_filtered").Add(int64(dropped))
			}
		}
	}
	return v, nil
}

// limitOp truncates the stream.
type limitOp struct {
	child   operator
	n       int64
	offset  int64
	skipped int64
	emitted int64
}

func (o *limitOp) Next() (*types.Batch, error) {
	for {
		if o.emitted >= o.n {
			return nil, io.EOF
		}
		b, err := o.child.Next()
		if err != nil {
			return nil, err
		}
		start := 0
		if o.skipped < o.offset {
			need := o.offset - o.skipped
			if int64(b.NumRows()) <= need {
				o.skipped += int64(b.NumRows())
				continue
			}
			start = int(need)
			o.skipped = o.offset
		}
		remaining := o.n - o.emitted
		end := b.NumRows()
		if int64(end-start) > remaining {
			end = start + int(remaining)
		}
		if start == 0 && end == b.NumRows() {
			o.emitted += int64(b.NumRows())
			return b, nil
		}
		o.emitted += int64(end - start)
		return b.Slice(start, end), nil
	}
}

func (o *limitOp) Close() error { return o.child.Close() }

// unionOp concatenates child streams. UNION's output takes the left
// branch's column names, while a later branch may name its columns
// differently (the analyzer matches only arity and kinds), so every batch
// is relabelled with the union's schema — sharing its columns, copying
// nothing — and downstream consumers see one schema for the whole stream.
type unionOp struct {
	children []operator
	schema   *types.Schema
	pos      int
}

func (o *unionOp) Next() (*types.Batch, error) {
	for o.pos < len(o.children) {
		b, err := o.children[o.pos].Next()
		if err == io.EOF {
			o.pos++
			continue
		}
		if err == nil && b.Schema != o.schema {
			b = &types.Batch{Schema: o.schema, Cols: b.Cols}
		}
		return b, err
	}
	return nil, io.EOF
}

func (o *unionOp) Close() error {
	var first error
	for _, c := range o.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

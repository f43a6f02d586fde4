package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// OpStats accumulates runtime statistics for one physical operator. The hot
// counters are atomics so per-worker morsels can report without locking.
type OpStats struct {
	Name   string
	Detail string

	wall         atomic.Int64 // nanoseconds spent in Next()
	rows         atomic.Int64
	batches      atomic.Int64
	vecBatches   atomic.Int64 // batches whose expressions an operator evaluated
	filesScanned atomic.Int64 // data files read by a scan
	filesPruned  atomic.Int64 // data files skipped by zone-map statistics
	rfFiles      atomic.Int64 // data files skipped by a join's runtime filter
	probeRows    atomic.Int64 // rows a hash join probed against its build table
	rfRows       atomic.Int64 // probe-side rows dropped by a runtime filter
	spillParts   atomic.Int64 // hash-table spill partitions written
	spillBytes   atomic.Int64 // bytes written to spill storage
	readBytes    atomic.Int64 // bytes fetched from storage by a scan
	dvMaskedRows atomic.Int64 // rows removed by deletion vectors after read

	mu       sync.Mutex
	children []*OpStats
}

// AddWall accumulates wall time spent producing output.
func (o *OpStats) AddWall(d time.Duration) {
	if o == nil {
		return
	}
	o.wall.Add(int64(d))
}

// AddBatch records one output batch of the given row count.
func (o *OpStats) AddBatch(rows int) {
	if o == nil {
		return
	}
	o.batches.Add(1)
	o.rows.Add(int64(rows))
}

// CountEval records one batch whose expressions ran through compiled
// vector programs.
func (o *OpStats) CountEval() {
	if o == nil {
		return
	}
	o.vecBatches.Add(1)
}

// AddFiles records a scan's data-skipping outcome: files it will read vs.
// files its statistics proved empty for the pushed filters.
func (o *OpStats) AddFiles(scanned, pruned int) {
	if o == nil {
		return
	}
	o.filesScanned.Add(int64(scanned))
	o.filesPruned.Add(int64(pruned))
}

// AddRuntimeFilePruned moves n files from "scanned" to "skipped by runtime
// filter": the files were admitted by build-time zone-map pruning (so they
// were counted scanned) but a join's build-side filter later proved them
// empty before any storage GET.
func (o *OpStats) AddRuntimeFilePruned(n int) {
	if o == nil {
		return
	}
	o.filesScanned.Add(int64(-n))
	o.rfFiles.Add(int64(n))
}

// AddProbe records rows a hash join probed against its build table.
func (o *OpStats) AddProbe(rows int) {
	if o == nil {
		return
	}
	o.probeRows.Add(int64(rows))
}

// AddRuntimeFiltered records probe-side rows dropped by a runtime filter
// before reaching the join.
func (o *OpStats) AddRuntimeFiltered(rows int) {
	if o == nil {
		return
	}
	o.rfRows.Add(int64(rows))
}

// AddReadBytes records bytes a scan fetched from storage (the per-tenant
// bytes-GET attribution the billing rollup charges).
func (o *OpStats) AddReadBytes(n int64) {
	if o == nil {
		return
	}
	o.readBytes.Add(n)
}

// ReadBytes returns bytes fetched from storage.
func (o *OpStats) ReadBytes() int64 {
	if o == nil {
		return 0
	}
	return o.readBytes.Load()
}

// AddDVMasked records rows a scan dropped because the file's deletion
// vector marked them deleted.
func (o *OpStats) AddDVMasked(rows int) {
	if o == nil {
		return
	}
	o.dvMaskedRows.Add(int64(rows))
}

// DVMaskedRows returns rows dropped by deletion vectors.
func (o *OpStats) DVMaskedRows() int64 {
	if o == nil {
		return 0
	}
	return o.dvMaskedRows.Load()
}

// AddSpill records hash-table spill volume: partitions written and bytes.
func (o *OpStats) AddSpill(partitions int, bytes int64) {
	if o == nil {
		return
	}
	o.spillParts.Add(int64(partitions))
	o.spillBytes.Add(bytes)
}

// FilesScanned returns data files read.
func (o *OpStats) FilesScanned() int64 {
	if o == nil {
		return 0
	}
	return o.filesScanned.Load()
}

// FilesPruned returns data files skipped by statistics.
func (o *OpStats) FilesPruned() int64 {
	if o == nil {
		return 0
	}
	return o.filesPruned.Load()
}

// Wall returns accumulated wall time.
func (o *OpStats) Wall() time.Duration {
	if o == nil {
		return 0
	}
	return time.Duration(o.wall.Load())
}

// Rows returns total rows emitted.
func (o *OpStats) Rows() int64 {
	if o == nil {
		return 0
	}
	return o.rows.Load()
}

// Batches returns total batches emitted.
func (o *OpStats) Batches() int64 {
	if o == nil {
		return 0
	}
	return o.batches.Load()
}

// VecBatches returns batches evaluated by vectorized kernels.
func (o *OpStats) VecBatches() int64 {
	if o == nil {
		return 0
	}
	return o.vecBatches.Load()
}

// RowFallbackBatches returns batches evaluated row by row: none, since
// every expression compiles. The bench harness still reads it for its
// vectorized share.
func (o *OpStats) RowFallbackBatches() int64 { return 0 }

// RuntimeFilePruned returns data files skipped by a runtime filter.
func (o *OpStats) RuntimeFilePruned() int64 {
	if o == nil {
		return 0
	}
	return o.rfFiles.Load()
}

// ProbeRows returns rows probed against a join's build table.
func (o *OpStats) ProbeRows() int64 {
	if o == nil {
		return 0
	}
	return o.probeRows.Load()
}

// RuntimeFilteredRows returns probe-side rows dropped by a runtime filter.
func (o *OpStats) RuntimeFilteredRows() int64 {
	if o == nil {
		return 0
	}
	return o.rfRows.Load()
}

// SpillPartitions returns hash-table spill partitions written.
func (o *OpStats) SpillPartitions() int64 {
	if o == nil {
		return 0
	}
	return o.spillParts.Load()
}

// SpillBytes returns bytes written to spill storage.
func (o *OpStats) SpillBytes() int64 {
	if o == nil {
		return 0
	}
	return o.spillBytes.Load()
}

// Children returns the operator's input operators.
func (o *OpStats) Children() []*OpStats {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*OpStats, len(o.children))
	copy(out, o.children)
	return out
}

// Profile is one query's EXPLAIN ANALYZE payload: per-phase latencies plus
// a tree of OpStats mirroring the physical operator tree. Nil-safe.
type Profile struct {
	// QueueWaitNanos is time the request spent in the admission queue before
	// any execution phase began (stamped from the request context, where the
	// Connect layer recorded it via ContextWithQueueWait).
	QueueWaitNanos int64
	// Phase wall times, stamped sequentially by the query driver.
	AnalyzeNanos  int64
	OptimizeNanos int64
	VerifyNanos   int64
	ExecNanos     int64
	TotalNanos    int64

	mu   sync.Mutex
	root *OpStats
}

// NewProfile creates an empty profile.
func NewProfile() *Profile { return &Profile{} }

// NewOp registers an operator node under parent (nil parent = plan root) and
// returns its stats sink. On a nil profile it returns nil and every
// downstream stats call no-ops.
func (p *Profile) NewOp(parent *OpStats, name, detail string) *OpStats {
	if p == nil {
		return nil
	}
	op := &OpStats{Name: name, Detail: detail}
	if parent == nil {
		p.mu.Lock()
		p.root = op
		p.mu.Unlock()
	} else {
		parent.mu.Lock()
		parent.children = append(parent.children, op)
		parent.mu.Unlock()
	}
	return op
}

// Root returns the root operator's stats.
func (p *Profile) Root() *OpStats {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.root
}

// ProfileTotals are the tree-wide aggregates a completed query contributes
// to the query-history and billing system tables.
type ProfileTotals struct {
	RowsOut      int64 // rows emitted by the root operator
	FilesScanned int64
	FilesPruned  int64 // zone-map plus runtime-filter pruning
	ReadBytes    int64
	SpillBytes   int64
}

// Totals walks the operator tree and sums the counters that outlive the
// query. Nil-safe: an unprofiled query reports zeros.
func (p *Profile) Totals() ProfileTotals {
	var t ProfileTotals
	root := p.Root()
	if root == nil {
		return t
	}
	t.RowsOut = root.Rows()
	var walk func(o *OpStats)
	walk = func(o *OpStats) {
		t.FilesScanned += o.FilesScanned()
		t.FilesPruned += o.FilesPruned() + o.RuntimeFilePruned()
		t.ReadBytes += o.ReadBytes()
		t.SpillBytes += o.SpillBytes()
		for _, c := range o.Children() {
			walk(c)
		}
	}
	walk(root)
	return t
}

func fmtDur(nanos int64) string {
	return time.Duration(nanos).Round(time.Microsecond).String()
}

// Render formats the profile as an annotated plan tree.
func (p *Profile) Render() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE (total %s: analyze %s, optimize %s, verify %s, exec %s)\n",
		fmtDur(p.TotalNanos), fmtDur(p.AnalyzeNanos), fmtDur(p.OptimizeNanos),
		fmtDur(p.VerifyNanos), fmtDur(p.ExecNanos))
	if p.QueueWaitNanos > 0 {
		fmt.Fprintf(&b, "queue wait %s (admission)\n", fmtDur(p.QueueWaitNanos))
	}
	renderOp(&b, p.Root(), 0)
	return b.String()
}

func renderOp(b *strings.Builder, o *OpStats, depth int) {
	if o == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(o.Name)
	if o.Detail != "" {
		fmt.Fprintf(b, " (%s)", o.Detail)
	}
	fmt.Fprintf(b, "  [wall %s, rows %d, batches %d", fmtDur(o.wall.Load()), o.Rows(), o.Batches())
	if v := o.VecBatches(); v > 0 {
		fmt.Fprintf(b, ", evaluated %d", v)
	}
	if s, pr, rf := o.FilesScanned(), o.FilesPruned(), o.RuntimeFilePruned(); s+pr+rf > 0 {
		fmt.Fprintf(b, ", files %d (pruned %d", s, pr)
		if rf > 0 {
			fmt.Fprintf(b, ", runtime filter %d", rf)
		}
		if dv := o.DVMaskedRows(); dv > 0 {
			fmt.Fprintf(b, ", dv-masked %d rows", dv)
		}
		b.WriteString(")")
	}
	if p := o.ProbeRows(); p > 0 {
		fmt.Fprintf(b, ", probe rows %d", p)
		if rf := o.RuntimeFilteredRows(); rf > 0 {
			fmt.Fprintf(b, " (filtered %d by runtime filter)", rf)
		}
	} else if rf := o.RuntimeFilteredRows(); rf > 0 {
		fmt.Fprintf(b, ", rows filtered %d by runtime filter", rf)
	}
	if sp, sb := o.SpillPartitions(), o.SpillBytes(); sp > 0 || sb > 0 {
		fmt.Fprintf(b, ", spill %d partitions / %d bytes", sp, sb)
	}
	b.WriteString("]\n")
	for _, c := range o.Children() {
		renderOp(b, c, depth+1)
	}
}

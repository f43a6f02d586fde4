package exec

import (
	"context"
	"fmt"
	"io"

	"lakeguard/internal/eval"
	"lakeguard/internal/plan"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// buildJoin compiles a join. Every join type, with or without equi keys,
// runs on vecJoinOp: equi-joins probe a hash table on their keys, and joins
// with no equi keys (CROSS, comma joins, ON a.x < b.y) hash every row alike,
// so the whole build side is one bucket and the probe is a block nested loop.
func (e *Engine) buildJoin(qc *QueryContext, t *plan.Join) (operator, error) {
	l, err := e.build(qc, t.L)
	if err != nil {
		return nil, err
	}
	r, err := e.build(qc, t.R)
	if err != nil {
		l.Close()
		return nil, err
	}
	if exprsHaveUDF([]plan.Expr{t.Cond}) {
		l.Close()
		r.Close()
		return nil, fmt.Errorf("exec: UDF calls are not supported in join conditions")
	}
	leftKeys, rightKeys, residual := extractEquiKeys(t.Cond, t.L.Schema().Len())
	return e.newVecJoinOp(qc, t, l, r, leftKeys, rightKeys, residual), nil
}

// extractEquiKeys splits a join condition into equi-key pairs
// (left expr, right expr with right-relative ordinals) and the residual
// conjuncts over the concatenated row, in their original order.
func extractEquiKeys(cond plan.Expr, leftLen int) (leftKeys, rightKeys []plan.Expr, residual []plan.Expr) {
	if cond == nil {
		return nil, nil, nil
	}
	for _, c := range plan.SplitConjuncts(cond) {
		b, ok := c.(*plan.Binary)
		if ok && b.Op == plan.OpEq {
			lLo, lHi := refRange(b.L)
			rLo, rHi := refRange(b.R)
			switch {
			case lHi < leftLen && lLo >= 0 && rLo >= leftLen:
				leftKeys = append(leftKeys, b.L)
				rightKeys = append(rightKeys, shiftExprRefs(b.R, -leftLen))
				continue
			case rHi < leftLen && rLo >= 0 && lLo >= leftLen:
				leftKeys = append(leftKeys, b.R)
				rightKeys = append(rightKeys, shiftExprRefs(b.L, -leftLen))
				continue
			}
		}
		residual = append(residual, c)
	}
	return leftKeys, rightKeys, residual
}

// refRange returns (min, max) BoundRef ordinals in e; (-1, -1) when none.
func refRange(e plan.Expr) (int, int) {
	lo, hi := -1, -1
	plan.WalkExpr(e, func(x plan.Expr) bool {
		if b, ok := x.(*plan.BoundRef); ok {
			if lo == -1 || b.Index < lo {
				lo = b.Index
			}
			if b.Index > hi {
				hi = b.Index
			}
		}
		return true
	})
	return lo, hi
}

func shiftExprRefs(e plan.Expr, delta int) plan.Expr {
	return plan.TransformExpr(e, func(x plan.Expr) plan.Expr {
		if b, ok := x.(*plan.BoundRef); ok {
			return &plan.BoundRef{Index: b.Index + delta, Name: b.Name, Kind: b.Kind}
		}
		return x
	})
}

// joinBlockPairs caps the candidate pairs one probe block holds. A block is
// a range of whole left rows, so it exceeds the cap only when a single left
// row's bucket does; a keyless or skewed probe never materializes
// |left batch| x |build| pairs and their gathered combined columns at once.
const joinBlockPairs = 2048

// vecJoinOp is the join operator. Its semantics — and output row sequence at
// any parallelism, spilled or not — are those of a nested loop over left
// rows, then build rows in build order, that matches a pair when its equi
// keys are equal (NULL never matches; keys of different hash classes never
// match, so NaN pairs only with NaN) and then every residual conjunct in
// order is TRUE. Each conjunct runs only on the pairs the ones before it
// kept, so a conjunct that can fail (a throwing cast) sees no pair an
// earlier one rejected. The machinery is columnar throughout:
//
//   - key hashing runs through the columnar eval.HashColumns kernel; with no
//     equi keys every row hashes alike and the build side is one bucket;
//   - the build table is a flat prefix-summed bucket directory over columnar
//     key storage, and build batches are released once appended (memory is
//     bounded by the flat table, not the raw input parts);
//   - each left batch is probed in blocks of whole left rows holding at most
//     joinBlockPairs candidate pairs (or one row's bucket when larger):
//     hash-equal candidate pairs first, then a column-wise
//     collision-verification kernel, then the residual conjuncts as
//     narrowing selections, then bulk Gather assembly;
//   - once the build side materializes, bloom/min-max runtime filters are
//     installed on probe-side scans (see runtimefilter.go);
//   - when a keyed build table outgrows Engine.SpillBytes the operator falls
//     back to Grace-hash processing: both sides partition to temp files by
//     key hash, partitions recurse, and outputs merge by a synthetic row id
//     so the emitted row sequence is byte-identical to the in-memory run. A
//     keyless build stays in memory: one hash value cannot be partitioned.
type vecJoinOp struct {
	qc            *QueryContext
	e             *Engine
	node          *plan.Join
	left          operator
	right         *stream[*types.Batch, *vecRightPart] // build parts, keys evaluated
	leftKeys      []plan.Expr
	rightKeys     []plan.Expr
	leftSchema    *types.Schema
	rightSchema   *types.Schema
	combined      *types.Schema
	leftKeyProgs  *ExprProgs
	rightKeyProgs *ExprProgs
	residual      *ExprProgs // conjuncts over the combined row, in order
	residualSel   SelScratch // the serial probe's scratch for residual
	stats         *telemetry.OpStats
	spillLimit    int64
	rfBuilders    []*rfBuilder

	built       bool
	table       *joinTable // in-memory build; nil once spilled
	probe       *joinProbe // the left batch being probed, block by block
	probeDone   bool
	emittedTail bool
	peakBlock   int // most candidate pairs any probe block held

	// Spill state (Grace hash join).
	spillFiles []*spillFile     // every temp file ever created, for cleanup
	rightParts *spillPartitions // non-nil => the build overflowed
	leftParts  *spillPartitions
	rightRID   int64
	leftRID    int64
	merge      *ridMerge // leaf probe outputs in left-row order
	tailMerge  *ridMerge // unmatched right rows in right-row order
}

func (e *Engine) newVecJoinOp(qc *QueryContext, t *plan.Join, l, r operator, leftKeys, rightKeys, residual []plan.Expr) *vecJoinOp {
	o := &vecJoinOp{
		qc: qc, e: e, node: t, left: l,
		leftKeys: leftKeys, rightKeys: rightKeys,
		leftSchema: t.L.Schema(), rightSchema: t.R.Schema(),
		stats:      qc.opParent,
		spillLimit: e.spillLimit(),
	}
	o.combined = o.leftSchema.Concat(o.rightSchema)
	o.leftKeyProgs = compileProgs(qc.Eval, qc.opParent, leftKeys, o.leftSchema.Kinds(), nil)
	o.rightKeyProgs = compileProgs(qc.Eval, qc.opParent, rightKeys, o.rightSchema.Kinds(), nil)
	// Build parts merge in batch order, so the table layout is the same at
	// any worker count.
	o.right = newStream(qc.GoContext(), e.streamWorkers(o.rightKeyProgs, unknownMorsels), r, batchSource(r), o.makeRightPart, nil)
	o.residual = compileProgs(qc.Eval, qc.opParent, residual, o.combined.Kinds(), boolKinds(len(residual)))
	// Resolve runtime-filter targets: each equi-key that is a bare column
	// reference traceable to a registered probe-side scan gets a filter
	// builder. Only join types where a probe miss produces no output qualify.
	if !e.disableRuntimeFilters && rfJoinTypeOK(t.Type) {
		for i, k := range leftKeys {
			br, ok := k.(*plan.BoundRef)
			if !ok {
				continue
			}
			src, col, ok := findRFScan(qc.rf, t.L, br.Index)
			if !ok {
				continue
			}
			o.rfBuilders = append(o.rfBuilders, &rfBuilder{
				src: src, col: col, keyIdx: i,
			})
		}
	}
	return o
}

func (o *vecJoinOp) needUsed() bool {
	return o.node.Type == plan.JoinRight || o.node.Type == plan.JoinFull
}

func (o *vecJoinOp) Close() error {
	err := o.left.Close()
	if rerr := o.right.Close(); err == nil {
		err = rerr
	}
	for _, sf := range o.spillFiles {
		sf.cleanup()
	}
	return err
}

func (o *vecJoinOp) trackSpill(sf *spillFile) { o.spillFiles = append(o.spillFiles, sf) }

// joinTable is the in-memory build side: all right rows as one columnar
// batch, evaluated key columns, per-row hashes, and a flat bucket directory.
// Buckets are addressed by the hash's low bits; each bucket's rows live
// contiguously in slots[starts[b]:starts[b+1]], in ascending row order, so
// candidates come out in build order.
type joinTable struct {
	rows   *types.Batch
	keys   []*types.Column
	rids   []int64 // global right row ids (spilled partitions only; nil in-memory)
	hashes []uint64
	mask   uint64
	starts []int32
	slots  []int32
	used   []bool // for RIGHT/FULL tails
}

func newJoinTable(rows *types.Batch, keys []*types.Column, rids []int64, hashes []uint64, needUsed bool) *joinTable {
	n := len(hashes)
	nb := 16
	for nb < 2*n {
		nb <<= 1
	}
	t := &joinTable{rows: rows, keys: keys, rids: rids, hashes: hashes, mask: uint64(nb - 1)}
	t.starts = make([]int32, nb+1)
	for _, h := range hashes {
		t.starts[(h&t.mask)+1]++
	}
	for b := 0; b < nb; b++ {
		t.starts[b+1] += t.starts[b]
	}
	t.slots = make([]int32, n)
	cursor := make([]int32, nb)
	copy(cursor, t.starts[:nb])
	for i, h := range hashes {
		b := h & t.mask
		t.slots[cursor[b]] = int32(i)
		cursor[b]++
	}
	if needUsed {
		t.used = make([]bool, n)
	}
	return t
}

func (t *joinTable) bucket(h uint64) []int32 {
	b := h & t.mask
	return t.slots[t.starts[b]:t.starts[b+1]]
}

// vecRightPart is one build-side batch with its evaluated keys and hashes,
// produced (possibly on a stream worker) before merging into the table.
type vecRightPart struct {
	b      *types.Batch
	keys   []*types.Column
	hashes []uint64
	rfHash [][]uint64 // per rfBuilder: single-column hashes for bloom inserts
}

func (o *vecJoinOp) makeRightPart(_ context.Context, b *types.Batch) (*vecRightPart, error) {
	keys, err := o.rightKeyProgs.Run(b.Cols, b.NumRows(), nil)
	if err != nil {
		return nil, err
	}
	p := &vecRightPart{b: b, keys: keys}
	p.hashes = eval.HashColumns(keys, b.NumRows(), nil, nil)
	if len(o.rfBuilders) > 0 {
		p.rfHash = make([][]uint64, len(o.rfBuilders))
		for i, rb := range o.rfBuilders {
			p.rfHash[i] = eval.HashColumns([]*types.Column{keys[rb.keyIdx]}, b.NumRows(), nil, nil)
		}
	}
	return p, nil
}

func (o *vecJoinOp) emptyKeyCols() []*types.Column {
	out := make([]*types.Column, len(o.rightKeys))
	for i, k := range o.rightKeys {
		out[i] = types.NewBuilder(k.Type(), 0).Build()
	}
	return out
}

// buildRight materializes the build side: into the flat joinTable while it
// fits, partitioned to spill files once it doesn't. Runtime filters observe
// every build row either way and install after the build completes.
func (o *vecJoinOp) buildRight() error {
	bb := types.NewBatchBuilder(o.rightSchema, 0)
	var keyBs []*types.Builder
	var hashes []uint64
	var bytes int64
	for {
		p, err := o.right.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		n := p.b.NumRows()
		for i, rb := range o.rfBuilders {
			rb.observe(p.keys[rb.keyIdx], p.rfHash[i])
		}
		if o.rightParts != nil {
			if err := o.scatterWithRID(o.rightParts, p.b, p.hashes, &o.rightRID); err != nil {
				return err
			}
			continue
		}
		if keyBs == nil {
			keyBs = make([]*types.Builder, len(p.keys))
			for i, kc := range p.keys {
				keyBs[i] = types.NewBuilder(kc.Kind(), n)
			}
		}
		// Append into flat storage and release the part: build memory is the
		// table, not the accumulated raw batches.
		bb.AppendBatch(p.b)
		for i, kc := range p.keys {
			keyBs[i].AppendColumn(kc)
		}
		hashes = append(hashes, p.hashes...)
		bytes += batchBytes(p.b) + colsBytes(p.keys) + int64(8*n)
		if bytes > o.spillLimit && len(o.rightKeys) > 0 {
			// Overflow: scatter everything accumulated so far and switch to
			// spill mode for the rest of the build.
			o.rightParts = newSpillPartitions(schemaWithRID(o.rightSchema), 0, o.trackSpill)
			rows := bb.Build()
			spillHashes := hashes
			if err := o.scatterWithRID(o.rightParts, rows, spillHashes, &o.rightRID); err != nil {
				return err
			}
			bb, keyBs, hashes = nil, nil, nil
		}
	}

	if o.rightParts == nil {
		var rows *types.Batch
		keys := make([]*types.Column, len(o.rightKeys))
		if keyBs == nil {
			rows = types.NewBatchBuilder(o.rightSchema, 0).Build()
			copy(keys, o.emptyKeyCols())
		} else {
			rows = bb.Build()
			for i, kb := range keyBs {
				keys[i] = kb.Build()
			}
		}
		o.table = newJoinTable(rows, keys, nil, hashes, o.needUsed())
	} else {
		// The probe side will partition through the same hash space.
		o.leftParts = newSpillPartitions(schemaWithRID(o.leftSchema), 0, o.trackSpill)
	}
	for _, rb := range o.rfBuilders {
		rb.install(o.stats, o.e.Metrics)
	}
	o.built = true
	return nil
}

// scatterWithRID tags b's rows with consecutive global row ids and scatters
// them into sp by hash.
func (o *vecJoinOp) scatterWithRID(sp *spillPartitions, b *types.Batch, hashes []uint64, rid *int64) error {
	n := b.NumRows()
	rids := make([]int64, n)
	for i := range rids {
		rids[i] = *rid
		*rid++
	}
	return sp.scatter(appendRIDCol(sp.schema, b, rids), hashes)
}

func (o *vecJoinOp) Next() (*types.Batch, error) {
	if !o.built {
		if err := o.buildRight(); err != nil {
			return nil, err
		}
	}
	if o.table != nil {
		return o.nextInMemory()
	}
	return o.nextSpilled()
}

func (o *vecJoinOp) nextInMemory() (*types.Batch, error) {
	for !o.probeDone {
		if o.probe == nil || o.probe.done() {
			lb, err := o.left.Next()
			if err == io.EOF {
				o.probeDone = true
				break
			}
			if err != nil {
				return nil, err
			}
			if o.probe, err = o.newProbe(o.table, lb, nil); err != nil {
				return nil, err
			}
			continue
		}
		out, err := o.probeBlock(o.probe)
		if err != nil {
			return nil, err
		}
		if out.NumRows() > 0 {
			return out, nil
		}
	}
	if !o.emittedTail && o.needUsed() {
		o.emittedTail = true
		tb := o.rightTail(o.table)
		if tb.NumRows() > 0 {
			return tb, nil
		}
	}
	return nil, io.EOF
}

// rightTail emits the unmatched right rows (RIGHT/FULL) padded with NULLs on
// the left, in right-row order, as one batch.
func (o *vecJoinOp) rightTail(t *joinTable) *types.Batch {
	var idx []int
	for i, used := range t.used {
		if !used {
			idx = append(idx, i)
		}
	}
	cols := make([]*types.Column, 0, o.combined.Len())
	cols = append(cols, nullPadCols(o.leftSchema, len(idx))...)
	for _, c := range t.rows.Gather(idx).Cols {
		cols = append(cols, c)
	}
	return types.MustBatch(o.node.Schema(), cols)
}

// nullPadCols builds n all-NULL rows of the given schema's kinds.
func nullPadCols(schema *types.Schema, n int) []*types.Column {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = -1
	}
	cols := make([]*types.Column, len(schema.Fields))
	for i, f := range schema.Fields {
		cols[i] = types.NewBuilder(f.Kind, 0).Build().GatherPad(idx)
	}
	return cols
}

// joinProbe is one left batch being probed against t, block by block.
type joinProbe struct {
	t       *joinTable
	lb      *types.Batch
	lrids   []int64 // spilled probe: the left rows' global rids; nil in memory
	keys    []*types.Column
	hashes  []uint64
	nullRow []bool // rows with a NULL key, which never match; nil if none
	next    int    // first left row of the next block
}

func (p *joinProbe) done() bool { return p.next >= p.lb.NumRows() }

// newProbe evaluates and hashes lb's keys for probing t.
func (o *vecJoinOp) newProbe(t *joinTable, lb *types.Batch, lrids []int64) (*joinProbe, error) {
	n := lb.NumRows()
	keys, err := o.leftKeyProgs.Run(lb.Cols, lb.NumRows(), nil)
	if err != nil {
		return nil, err
	}
	o.stats.AddProbe(n)
	p := &joinProbe{t: t, lb: lb, lrids: lrids, keys: keys, hashes: eval.HashColumns(keys, n, nil, nil)}
	// Rows with a NULL in any key column never match (three-valued equality).
	for _, kc := range keys {
		nulls := kc.NullMask()
		if nulls == nil {
			continue
		}
		if p.nullRow == nil {
			p.nullRow = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			if nulls[i] {
				p.nullRow[i] = true
			}
		}
	}
	return p, nil
}

// probeBlock joins the next block of p's left rows and returns its output
// rows, in nested-loop order. When p.lrids is non-nil (spilled probe) the
// output carries a trailing __rid column with each row's left global rid,
// so partition outputs merge back into input order.
func (o *vecJoinOp) probeBlock(p *joinProbe) (*types.Batch, error) {
	t, lb := p.t, p.lb
	n := lb.NumRows()

	// Candidate pairs: hash-equal (left row, build row) pairs in left-row
	// major, build-row ascending order, for whole left rows [lo, hi) while
	// the block stays within joinBlockPairs.
	lo, hi := p.next, p.next
	var pairL, pairR []int
	for ; hi < n; hi++ {
		if p.nullRow != nil && p.nullRow[hi] {
			continue
		}
		h := p.hashes[hi]
		bucket := t.bucket(h)
		if len(pairL) > 0 && len(pairL)+len(bucket) > joinBlockPairs {
			break
		}
		for _, r := range bucket {
			if t.hashes[r] == h {
				pairL = append(pairL, hi)
				pairR = append(pairR, int(r))
			}
		}
	}
	p.next = hi
	o.peakBlock = max(o.peakBlock, len(pairL))

	// Column-wise collision verification.
	for k := range p.keys {
		if len(pairL) == 0 {
			break
		}
		pairL, pairR = verifyEqualPairs(p.keys[k], t.keys[k], pairL, pairR)
	}

	// Residual conjuncts, in order, over the combined candidate rows.
	if len(o.residual.progs) > 0 && len(pairL) > 0 {
		comb := o.combineCols(lb, t.rows, pairL, pairR)
		sel, err := o.residual.Select(comb, len(pairL), nil, &o.residualSel)
		if err != nil {
			return nil, err
		}
		for w, j := range sel {
			pairL[w], pairR[w] = pairL[j], pairR[j]
		}
		pairL, pairR = pairL[:len(sel)], pairR[:len(sel)]
	}

	if t.used != nil {
		for _, r := range pairR {
			t.used[r] = true
		}
	}

	withRID := p.lrids != nil
	outSchema := o.node.Schema()
	if withRID {
		outSchema = schemaWithRID(outSchema)
	}

	switch o.node.Type {
	case plan.JoinInner, plan.JoinCross, plan.JoinRight:
		cols := o.combineCols(lb, t.rows, pairL, pairR)
		if withRID {
			cols = append(cols, ridCol(p.lrids, pairL))
		}
		return types.MustBatch(outSchema, cols), nil

	case plan.JoinLeftSemi, plan.JoinLeftAnti:
		var idx []int
		if o.node.Type == plan.JoinLeftSemi {
			idx = dedupFirst(pairL)
		} else {
			idx = complementOf(lo, hi, pairL)
		}
		cols := lb.Gather(idx).Cols
		if withRID {
			cols = append(cols, ridCol(p.lrids, idx))
		}
		return types.MustBatch(outSchema, cols), nil

	case plan.JoinLeft, plan.JoinFull:
		outL, outR := leftOuterIndexes(lo, hi, pairL, pairR)
		cols := o.combinePadCols(lb, t.rows, outL, outR)
		if withRID {
			cols = append(cols, ridCol(p.lrids, outL))
		}
		return types.MustBatch(outSchema, cols), nil
	}
	return nil, fmt.Errorf("exec: unsupported join type %s", o.node.Type)
}

// combineCols gathers matched (left, right) pairs into combined-row columns.
func (o *vecJoinOp) combineCols(lb, rrows *types.Batch, pairL, pairR []int) []*types.Column {
	cols := make([]*types.Column, 0, o.combined.Len())
	cols = append(cols, lb.Gather(pairL).Cols...)
	cols = append(cols, rrows.Gather(pairR).Cols...)
	return cols
}

// combinePadCols is combineCols with -1 indices producing NULL rows.
func (o *vecJoinOp) combinePadCols(lb, rrows *types.Batch, outL, outR []int) []*types.Column {
	cols := make([]*types.Column, 0, o.combined.Len())
	for _, c := range lb.Cols {
		cols = append(cols, c.GatherPad(outL))
	}
	for _, c := range rrows.Cols {
		cols = append(cols, c.GatherPad(outR))
	}
	return cols
}

func ridCol(rids []int64, idx []int) *types.Column {
	out := make([]int64, len(idx))
	for j, i := range idx {
		out[j] = rids[i]
	}
	return types.NewInt64Column(types.KindInt64, out, nil)
}

// dedupFirst collapses an ascending-by-left pair list to each left row's
// first occurrence (LEFT SEMI emits the left row once).
func dedupFirst(pairL []int) []int {
	out := make([]int, 0, len(pairL))
	for j, l := range pairL {
		if j == 0 || l != pairL[j-1] {
			out = append(out, l)
		}
	}
	return out
}

// complementOf returns the rows of [lo, hi) absent from the ascending
// matched list (LEFT ANTI emits left rows with no match).
func complementOf(lo, hi int, pairL []int) []int {
	out := make([]int, 0, hi-lo)
	p := 0
	for i := lo; i < hi; i++ {
		for p < len(pairL) && pairL[p] < i {
			p++
		}
		if p < len(pairL) && pairL[p] == i {
			continue
		}
		out = append(out, i)
	}
	return out
}

// leftOuterIndexes interleaves matches with NULL padding per left row of
// [lo, hi): row i's matches in build order, or a single (i, -1) pad when it
// has none — the nested loop's emission order for LEFT/FULL.
func leftOuterIndexes(lo, hi int, pairL, pairR []int) (outL, outR []int) {
	outL = make([]int, 0, hi-lo+len(pairL))
	outR = make([]int, 0, hi-lo+len(pairL))
	p := 0
	for i := lo; i < hi; i++ {
		matched := false
		for p < len(pairL) && pairL[p] == i {
			outL = append(outL, i)
			outR = append(outR, pairR[p])
			matched = true
			p++
		}
		if !matched {
			outL = append(outL, i)
			outR = append(outR, -1)
		}
	}
	return outL, outR
}

// verifyEqualPairs keeps the candidate pairs whose key values are actually
// equal under join semantics: NULL never matches, numeric kinds compare
// widened, NaN compares equal to everything (cmpFloat), all other kind
// mixes never match. Compaction is in-place (read index >= write index).
func verifyEqualPairs(a, b *types.Column, pairL, pairR []int) ([]int, []int) {
	an, bn := a.NullMask(), b.NullMask()
	ak, bk := a.Kind(), b.Kind()
	w := 0
	keepPair := func(j int) {
		pairL[w] = pairL[j]
		pairR[w] = pairR[j]
		w++
	}
	intPayload := func(k types.Kind) bool {
		switch k {
		case types.KindBool, types.KindInt64, types.KindDate, types.KindTimestamp:
			return true
		}
		return false
	}
	switch {
	case ak == bk && intPayload(ak):
		av, bv := a.Int64s(), b.Int64s()
		for j := range pairL {
			i, r := pairL[j], pairR[j]
			if (an != nil && an[i]) || (bn != nil && bn[r]) {
				continue
			}
			if av[i] == bv[r] {
				keepPair(j)
			}
		}
	case ak == types.KindFloat64 && bk == types.KindFloat64:
		av, bv := a.Float64s(), b.Float64s()
		for j := range pairL {
			i, r := pairL[j], pairR[j]
			if (an != nil && an[i]) || (bn != nil && bn[r]) {
				continue
			}
			// cmpFloat equality: NaN equals everything, so "not unequal".
			if !(av[i] < bv[r]) && !(av[i] > bv[r]) {
				keepPair(j)
			}
		}
	case ak == bk && (ak == types.KindString || ak == types.KindBinary):
		av, bv := a.Strings(), b.Strings()
		for j := range pairL {
			i, r := pairL[j], pairR[j]
			if (an != nil && an[i]) || (bn != nil && bn[r]) {
				continue
			}
			if av[i] == bv[r] {
				keepPair(j)
			}
		}
	case ak.Numeric() && bk.Numeric():
		// Mixed BIGINT/DOUBLE: widen like Value.Compare.
		for j := range pairL {
			i, r := pairL[j], pairR[j]
			if (an != nil && an[i]) || (bn != nil && bn[r]) {
				continue
			}
			x, y := numAsFloat(a, i), numAsFloat(b, r)
			if !(x < y) && !(x > y) {
				keepPair(j)
			}
		}
	default:
		// Incomparable kinds: Value.Compare reports not-ok, which is no
		// match. Drop every pair.
	}
	return pairL[:w], pairR[:w]
}

func numAsFloat(c *types.Column, i int) float64 {
	if c.Kind() == types.KindFloat64 {
		return c.Float64s()[i]
	}
	return float64(c.Int64s()[i])
}

// --- Grace-hash spilled execution ---------------------------------------
//
// Once the build side overflowed, both inputs are partitioned by the top
// hash bits into temp files, with every row tagged by its global input
// position (__rid). Each (right, left) partition pair is processed
// independently — recursively re-partitioning while a partition still
// exceeds the budget — and each leaf probe writes its output (+left rid) to
// a leaf file. Because a given key hashes to exactly one partition, a left
// row's matches (or its proven absence of matches, for LEFT/ANTI padding)
// are complete within its leaf, so merging all leaf outputs by left rid
// reproduces the in-memory emission order exactly. RIGHT/FULL tails merge
// separately by right rid.

// nextSpilled drains the spilled join: partition the probe side, process
// every partition pair, then stream the rid-merged output and tail.
func (o *vecJoinOp) nextSpilled() (*types.Batch, error) {
	if o.merge == nil {
		if err := o.runSpilled(); err != nil {
			return nil, err
		}
	}
	b, err := o.merge.Next()
	if err == nil {
		return b, nil
	}
	if err != io.EOF {
		return nil, err
	}
	if o.tailMerge != nil && !o.emittedTail {
		tb, err := o.tailMerge.Next()
		if err == nil {
			// Merged tail rows are right-schema rows; pad the left side.
			outR := make([]int, tb.NumRows())
			for i := range outR {
				outR[i] = i
			}
			outL := make([]int, tb.NumRows())
			for i := range outL {
				outL[i] = -1
			}
			return types.MustBatch(o.node.Schema(), o.combinePadCols(
				types.NewBatchBuilder(o.leftSchema, 0).Build(), tb, outL, outR)), nil
		}
		if err != io.EOF {
			return nil, err
		}
		o.emittedTail = true
	}
	return nil, io.EOF
}

func (o *vecJoinOp) runSpilled() error {
	// Partition the entire probe input through the same hash space.
	for {
		lb, err := o.left.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		keys, err := o.leftKeyProgs.Run(lb.Cols, lb.NumRows(), nil)
		if err != nil {
			return err
		}
		hashes := eval.HashColumns(keys, lb.NumRows(), nil, nil)
		if err := o.scatterWithRID(o.leftParts, lb, hashes, &o.leftRID); err != nil {
			return err
		}
	}
	var outs, tails []func() (*types.Batch, error)
	for p := 0; p < spillFanout; p++ {
		if err := o.processPartition(o.rightParts.parts[p], o.leftParts.parts[p], 1, &outs, &tails); err != nil {
			return err
		}
	}
	var spillBytes int64
	for _, sf := range o.spillFiles {
		spillBytes += sf.bytes
	}
	o.stats.AddSpill(len(o.spillFiles), spillBytes)
	if o.e.Metrics != nil {
		o.e.Metrics.Counter("exec.spill.partitions").Add(int64(len(o.spillFiles)))
		o.e.Metrics.Counter("exec.spill.bytes").Add(spillBytes)
	}
	var err error
	if o.merge, err = newRidMerge(o.node.Schema(), outs); err != nil {
		return err
	}
	if o.needUsed() {
		if o.tailMerge, err = newRidMerge(o.rightSchema, tails); err != nil {
			return err
		}
	}
	return nil
}

// splitRID separates a spilled batch into its payload rows and rid column.
func splitRID(schema *types.Schema, b *types.Batch) (*types.Batch, []int64) {
	nc := len(b.Cols) - 1
	return types.MustBatch(schema, b.Cols[:nc]), b.Cols[nc].Int64s()
}

// processPartition joins one (right, left) partition pair. level is the
// depth the partition was written at; re-partitioning consumes the next 3
// hash bits. Oversized partitions recurse until maxSpillLevel, past which
// they are processed in memory regardless of size.
func (o *vecJoinOp) processPartition(rp, lp *spillFile, level int, outs, tails *[]func() (*types.Batch, error)) error {
	if rp == nil && lp == nil {
		return nil
	}
	// Load the right partition.
	var rbatches []*types.Batch
	var rbytes int64
	if rp != nil {
		pull, err := rp.reader()
		if err != nil {
			return err
		}
		for {
			b, err := pull()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			rbatches = append(rbatches, b)
			rbytes += batchBytes(b)
		}
	}
	var rrows int
	for _, b := range rbatches {
		rrows += b.NumRows()
	}
	// A partition of one row can't subdivide; build it directly whatever the
	// budget says.
	if rbytes > o.spillLimit && rrows > 1 && level < maxSpillLevel {
		// Still too big: subdivide both sides one level deeper.
		subR := newSpillPartitions(schemaWithRID(o.rightSchema), level, o.trackSpill)
		for _, b := range rbatches {
			rows, _ := splitRID(o.rightSchema, b)
			keys, err := o.rightKeyProgs.Run(rows.Cols, rows.NumRows(), nil)
			if err != nil {
				return err
			}
			if err := subR.scatter(b, eval.HashColumns(keys, rows.NumRows(), nil, nil)); err != nil {
				return err
			}
		}
		rbatches = nil
		subL := newSpillPartitions(schemaWithRID(o.leftSchema), level, o.trackSpill)
		if lp != nil {
			pull, err := lp.reader()
			if err != nil {
				return err
			}
			for {
				b, err := pull()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				rows, _ := splitRID(o.leftSchema, b)
				keys, err := o.leftKeyProgs.Run(rows.Cols, rows.NumRows(), nil)
				if err != nil {
					return err
				}
				if err := subL.scatter(b, eval.HashColumns(keys, rows.NumRows(), nil, nil)); err != nil {
					return err
				}
			}
			lp.cleanup()
		}
		rp.cleanup()
		for p := 0; p < spillFanout; p++ {
			if err := o.processPartition(subR.parts[p], subL.parts[p], level+1, outs, tails); err != nil {
				return err
			}
		}
		return nil
	}

	// Leaf: build the partition's table in memory and probe it.
	rowsBB := types.NewBatchBuilder(o.rightSchema, 0)
	var rids []int64
	for _, b := range rbatches {
		rows, brids := splitRID(o.rightSchema, b)
		rowsBB.AppendBatch(rows)
		rids = append(rids, brids...)
	}
	rows := rowsBB.Build()
	var keys []*types.Column
	var hashes []uint64
	if rows.NumRows() > 0 {
		var err error
		if keys, err = o.rightKeyProgs.Run(rows.Cols, rows.NumRows(), nil); err != nil {
			return err
		}
		hashes = eval.HashColumns(keys, rows.NumRows(), nil, nil)
	} else {
		keys = o.emptyKeyCols()
	}
	t := newJoinTable(rows, keys, rids, hashes, o.needUsed())
	if rp != nil {
		rp.cleanup()
	}

	if lp != nil {
		out, err := newSpillFile(schemaWithRID(o.node.Schema()))
		if err != nil {
			return err
		}
		o.trackSpill(out)
		pull, err := lp.reader()
		if err != nil {
			return err
		}
		for {
			b, err := pull()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			lrows, lrids := splitRID(o.leftSchema, b)
			p, err := o.newProbe(t, lrows, lrids)
			if err != nil {
				return err
			}
			for !p.done() {
				ob, err := o.probeBlock(p)
				if err != nil {
					return err
				}
				if ob.NumRows() > 0 {
					if err := out.write(ob); err != nil {
						return err
					}
				}
			}
		}
		lp.cleanup()
		pullOut, err := out.reader()
		if err != nil {
			return err
		}
		*outs = append(*outs, pullOut)
	}

	if o.needUsed() && len(t.used) > 0 {
		var idx []int
		for i, used := range t.used {
			if !used {
				idx = append(idx, i)
			}
		}
		if len(idx) > 0 {
			tf, err := newSpillFile(schemaWithRID(o.rightSchema))
			if err != nil {
				return err
			}
			o.trackSpill(tf)
			if err := tf.write(appendRIDCol(tf.schema, t.rows.Gather(idx), ridGather(t.rids, idx))); err != nil {
				return err
			}
			pullTail, err := tf.reader()
			if err != nil {
				return err
			}
			*tails = append(*tails, pullTail)
		}
	}
	return nil
}

func ridGather(rids []int64, idx []int) []int64 {
	out := make([]int64, len(idx))
	for j, i := range idx {
		out[j] = rids[i]
	}
	return out
}

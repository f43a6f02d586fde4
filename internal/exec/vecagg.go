package exec

import (
	"fmt"
	"io"
	"slices"

	"lakeguard/internal/eval"
	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// aggInput is one morsel's group-key and aggregate-argument columns, read
// through a selection: input row j is row rowAt(sel, j) of the n rows of
// every column (sel nil = all n). A filtered row is in no column's
// selection, so it touches no hash, group or sum. Row j's global id is
// rids[j], or base+j when rids is nil (the input stream numbers its rows
// consecutively; only spilled rows carry their ids).
type aggInput struct {
	n       int
	sel     []int
	keyCols []*types.Column
	argCols []*types.Column // per argument-carrying aggregate (see vecAggOp.argOf)
	base    int64
	rids    []int64
	// sc, when set, is the morsel's scratch, which holds sel; release gives
	// it back to selScratches once the aggregate consumed the input.
	sc *SelScratch
}

func (in *aggInput) rows() int {
	if in.sel != nil {
		return len(in.sel)
	}
	return in.n
}

func (in *aggInput) rid(j int) int64 {
	if in.rids != nil {
		return in.rids[j]
	}
	return in.base + int64(j)
}

func (in *aggInput) release() {
	if in.sc != nil {
		selScratches.Put(in.sc)
		in.sc = nil
	}
}

// aggEnd is an aggregate's input step, which ends the pipeline under the
// aggregate (pipeline.go) in place of its gather. It evaluates the GROUP BY
// expressions, then the argument of every aggregate but COUNT(*).
type aggEnd struct {
	exprs *ExprProgs
	// refs is, when every expression compiled to a bare column reference,
	// the input column of each.
	refs []int
	keys int // exprs[:keys] are the GROUP BY expressions
}

// input turns one view into the aggregate's input. A list of bare
// references hands on the view's own columns and selection, which keeps
// the morsel's scratch sc; any other list is evaluated through the
// selection into dense columns, as a computing Project is.
func (a *aggEnd) input(v view, sc *SelScratch) (*aggInput, error) {
	in := &aggInput{n: v.n}
	var cols []*types.Column
	if a.refs != nil {
		a.exprs.countEval()
		cols = make([]*types.Column, len(a.refs))
		for i, c := range a.refs {
			cols[i] = v.cols[c]
		}
		// A selection that kept every row is all of them.
		if v.sel != nil && len(v.sel) < v.n {
			in.sel, in.sc = v.sel, sc
		}
	} else {
		var err error
		if cols, err = a.exprs.Run(v.cols, v.n, v.sel); err != nil {
			return nil, err
		}
		in.n = v.rows()
	}
	in.keyCols, in.argCols = cols[:a.keys:a.keys], cols[a.keys:]
	return in, nil
}

// vecAggOp is the grouped-aggregation operator. Group keys are hashed a
// column at a time (eval.HashColumns), rows are assigned group ids through
// an open-addressing table keyed on the full 64-bit hash, and accumulation
// runs as typed COUNT/SUM/MIN/MAX/AVG kernels over group-indexed state
// arrays.
//
// Groups form by Value.Equal over key rows in first-occurrence order, NULL
// arguments are skipped (except COUNT(*)), and DISTINCT arguments keep a
// seen-map per group. An aggregate without GROUP BY has one group, 0, which
// every row joins without a hash or a probe, and which exists even over no
// rows. Float sums accumulate in stream order so results stay
// byte-identical at any parallelism: group-key and argument evaluation runs
// on the workers of the pipeline under the aggregate, as its last step
// (aggEnd), but accumulation stays serial over batches in input order —
// merging per-worker partial sums would reassociate float additions.
//
// The input reaches the aggregate as its pipeline's view: bare-reference
// keys and arguments are the source's columns read through the selection
// the chain's filters left, so no survivor is gathered. Every kernel below
// (HashColumns, assign, accumulate, distinct, spillInputBatch) visits the
// selected rows only, and the morsel's scratch goes back to its pool once
// the batch is consumed. The hash and group-id buffers live on the operator
// and serve every batch.
//
// When the group state outgrows Engine.SpillBytes the table freezes: rows
// matching existing groups keep accumulating in memory, rows with unseen
// keys spill (keys + args + __rid) to hash partitions that are aggregated
// recursively. Frozen-table groups all first occur before any spilled key,
// and partition outputs carry their group's first-occurrence rid, so
// emitting memory groups first and rid-merging partition outputs reproduces
// the in-memory emission order exactly.
type vecAggOp struct {
	// in is the child's pipeline, ending in the aggregate's input step.
	in     *pipeline
	qc     *QueryContext
	engine *Engine
	node   *plan.Aggregate
	aggs   []*plan.AggFunc
	// argOf maps each aggregate to its argument column, or -1 for COUNT(*),
	// which counts rows and evaluates nothing.
	argOf      []int
	spillLimit int64

	started    bool
	pull       func() (*types.Batch, error)
	spillFiles []*spillFile

	// consume's per-batch buffers: row hashes, group ids and the rows to
	// spill.
	hashes   []uint64
	gids     []int32
	spillSel []int
}

func (e *Engine) newVecAggOp(qc *QueryContext, node *plan.Aggregate) (*vecAggOp, error) {
	aggs := make([]*plan.AggFunc, len(node.Aggs))
	argOf := make([]int, len(node.Aggs))
	argExprs := make([]plan.Expr, 0, len(node.Aggs))
	for i, a := range node.Aggs {
		af, ok := a.(*plan.AggFunc)
		if !ok {
			return nil, fmt.Errorf("exec: aggregate slot %d is %T, expected AggFunc", i, a)
		}
		aggs[i] = af
		arg := af.Arg
		if arg == nil {
			if af.Name == "count" && !af.Distinct {
				argOf[i] = -1 // COUNT(*)
				continue
			}
			arg = plan.Lit(types.Int64(1))
		}
		argOf[i] = len(argExprs)
		argExprs = append(argExprs, arg)
	}
	inputs, err := e.compileExprs(qc, append(append([]plan.Expr{}, node.GroupBy...), argExprs...), node.Child.Schema().Kinds(), nil)
	if err != nil {
		return nil, err
	}
	in, err := e.buildPipeline(qc, node.Child, &aggEnd{exprs: inputs, refs: inputs.columnRefs(), keys: len(node.GroupBy)})
	if err != nil {
		return nil, err
	}
	return &vecAggOp{in: in, qc: qc, engine: e, node: node, aggs: aggs, argOf: argOf, spillLimit: e.spillLimit()}, nil
}

func (o *vecAggOp) Close() error {
	for _, sf := range o.spillFiles {
		sf.cleanup()
	}
	return o.in.Close()
}

func (o *vecAggOp) trackSpill(sf *spillFile) { o.spillFiles = append(o.spillFiles, sf) }

func (o *vecAggOp) Next() (*types.Batch, error) {
	if !o.started {
		o.started = true
		if err := o.run(); err != nil {
			return nil, err
		}
	}
	return o.pull()
}

// run consumes the whole input and leaves a pull function over the finalized
// group batches.
func (o *vecAggOp) run() error {
	var rid int64
	pull := func() (*aggInput, error) {
		out, err := o.in.pull()
		if err != nil {
			return nil, err
		}
		in := out.in
		in.base = rid
		rid += int64(in.rows())
		return in, nil
	}

	t := newVecAggTable(o.aggs)
	if len(o.node.GroupBy) == 0 {
		// Group 0 exists even over no rows: COUNT(*) = 0.
		t.keys, t.hashes, t.firstRid = [][]types.Value{nil}, []uint64{0}, []int64{0}
		for _, a := range t.accs {
			a.grow(1)
		}
	}
	parts, err := o.consume(t, pull, 0, true)
	if err != nil {
		return err
	}

	mem := o.groupsBatch(t, false)
	if parts == nil {
		done := false
		o.pull = func() (*types.Batch, error) {
			if done || mem.NumRows() == 0 {
				return nil, io.EOF
			}
			done = true
			return mem, nil
		}
		return nil
	}

	// Spilled: aggregate every partition recursively, then emit memory groups
	// followed by the rid-merge of all partition outputs.
	var outs []func() (*types.Batch, error)
	for _, sf := range parts.parts {
		if sf == nil {
			continue
		}
		if err := o.aggPartition(sf, 1, &outs); err != nil {
			return err
		}
	}
	var spillBytes int64
	for _, sf := range o.spillFiles {
		spillBytes += sf.bytes
	}
	o.qc.opParent.AddSpill(len(o.spillFiles), spillBytes)
	if m := o.engine.Metrics; m != nil {
		m.Counter("exec.spill.partitions").Add(int64(len(o.spillFiles)))
		m.Counter("exec.spill.bytes").Add(spillBytes)
	}
	merge, err := newRidMerge(o.node.Schema(), outs)
	if err != nil {
		return err
	}
	emittedMem := false
	o.pull = func() (*types.Batch, error) {
		if !emittedMem {
			emittedMem = true
			if mem.NumRows() > 0 {
				return mem, nil
			}
		}
		return merge.Next()
	}
	return nil
}

// consume feeds evaluated inputs into t. Without GROUP BY every row joins
// group 0, which the caller created. Otherwise, when canSpill and the group
// state outgrows the budget, the table freezes and unseen keys scatter into
// the returned partitions (keys + args + __rid), hashed at the given spill
// level.
func (o *vecAggOp) consume(t *vecAggTable, pull func() (*aggInput, error), level int, canSpill bool) (*spillPartitions, error) {
	global := len(o.node.GroupBy) == 0
	var parts *spillPartitions
	for {
		in, err := pull()
		if err == io.EOF {
			return parts, nil
		}
		if err != nil {
			return nil, err
		}
		m := in.rows()
		o.gids = slices.Grow(o.gids[:0], m)[:m]
		o.spillSel = o.spillSel[:0]
		if global {
			clear(o.gids)
		} else {
			o.hashes = eval.HashColumns(in.keyCols, in.n, in.sel, o.hashes)
			o.spillSel = t.assign(o.hashes, in, o.gids, o.spillSel)
		}
		for _, a := range t.accs {
			a.grow(len(t.keys))
		}
		for ai, a := range t.accs {
			if c := o.argOf[ai]; c >= 0 {
				a.accumulate(o.gids, in.argCols[c], in.sel)
			} else {
				a.countRows(o.gids)
			}
		}
		if len(o.spillSel) > 0 {
			sb := spillInputBatch(parts.schema, in, o.spillSel)
			sh := make([]uint64, len(o.spillSel))
			for i, j := range o.spillSel {
				sh[i] = o.hashes[j]
			}
			if err := parts.scatter(sb, sh); err != nil {
				return nil, err
			}
		}
		in.release()
		if canSpill && !global && !t.frozen && t.bytes > o.spillLimit {
			t.frozen = true
			parts = newSpillPartitions(aggSpillSchema(in), level, o.trackSpill)
		}
	}
}

// aggPartition aggregates one spilled partition, appending rid-carrying
// output pulls to outs. Oversized partitions freeze again and recurse one
// level deeper; at maxSpillLevel the table grows unbounded (correctness over
// memory).
func (o *vecAggOp) aggPartition(sf *spillFile, level int, outs *[]func() (*types.Batch, error)) error {
	rd, err := sf.reader()
	if err != nil {
		return err
	}
	nk, na := len(o.node.GroupBy), len(o.node.Aggs)
	for _, c := range o.argOf {
		if c < 0 {
			na--
		}
	}
	pull := func() (*aggInput, error) {
		b, err := rd()
		if err != nil {
			return nil, err
		}
		return &aggInput{
			n:       b.NumRows(),
			keyCols: b.Cols[:nk],
			argCols: b.Cols[nk : nk+na],
			rids:    b.Cols[nk+na].Int64s(),
		}, nil
	}

	t := newVecAggTable(o.aggs)
	parts, err := o.consume(t, pull, level, level < maxSpillLevel)
	if err != nil {
		return err
	}
	sf.cleanup()

	if len(t.keys) > 0 {
		mem := o.groupsBatch(t, true)
		done := false
		*outs = append(*outs, func() (*types.Batch, error) {
			if done {
				return nil, io.EOF
			}
			done = true
			return mem, nil
		})
	}
	if parts != nil {
		for _, sub := range parts.parts {
			if sub == nil {
				continue
			}
			if err := o.aggPartition(sub, level+1, outs); err != nil {
				return err
			}
		}
	}
	return nil
}

// groupsBatch finalizes every group of t in creation order — which is
// first-occurrence order, so withRid output is ascending in __rid.
func (o *vecAggOp) groupsBatch(t *vecAggTable, withRid bool) *types.Batch {
	schema := o.node.Schema()
	if withRid {
		schema = schemaWithRID(o.node.Schema())
	}
	nk := len(o.node.GroupBy)
	bb := types.NewBatchBuilder(schema, len(t.keys))
	for g := range t.keys {
		for k := 0; k < nk; k++ {
			bb.Column(k).Append(t.keys[g][k])
		}
		for ai, a := range t.accs {
			bb.Column(nk + ai).Append(a.result(g))
		}
		if withRid {
			bb.Column(nk + len(t.accs)).AppendInt64(t.firstRid[g])
		}
	}
	return bb.Build()
}

// aggSpillSchema describes a spilled aggregation row: evaluated key columns,
// argument columns, then the global row id.
func aggSpillSchema(in *aggInput) *types.Schema {
	fields := make([]types.Field, 0, len(in.keyCols)+len(in.argCols)+1)
	for k, c := range in.keyCols {
		fields = append(fields, types.Field{Name: fmt.Sprintf("k%d", k), Kind: c.Kind()})
	}
	for a, c := range in.argCols {
		fields = append(fields, types.Field{Name: fmt.Sprintf("a%d", a), Kind: c.Kind()})
	}
	fields = append(fields, types.Field{Name: "__rid", Kind: types.KindInt64})
	return types.NewSchema(fields...)
}

// spillInputBatch gathers in's input rows spill (keys, args, rids) as a
// batch over the spill schema.
func spillInputBatch(schema *types.Schema, in *aggInput, spill []int) *types.Batch {
	rows := spill
	if in.sel != nil {
		rows = make([]int, len(spill))
		for i, j := range spill {
			rows[i] = in.sel[j]
		}
	}
	cols := make([]*types.Column, 0, len(in.keyCols)+len(in.argCols)+1)
	for _, c := range in.keyCols {
		cols = append(cols, c.Gather(rows))
	}
	for _, c := range in.argCols {
		cols = append(cols, c.Gather(rows))
	}
	out := make([]int64, len(spill))
	for i, j := range spill {
		out[i] = in.rid(j)
	}
	cols = append(cols, types.NewInt64Column(types.KindInt64, out, nil))
	return &types.Batch{Schema: schema, Cols: cols}
}

// vecDistinctOp streams DISTINCT through a vecAggTable with no aggregates,
// so distinct rows form exactly as groups do. Each input batch emits, with
// one Gather, the rows that created a group: the first occurrence of every
// distinct row, in input order. The table stays in memory; it holds one
// boxed row per distinct row.
type vecDistinctOp struct {
	child  operator
	table  *vecAggTable
	hashes []uint64
}

func (o *vecDistinctOp) Next() (*types.Batch, error) {
	for {
		b, err := o.child.Next()
		if err != nil {
			return nil, err
		}
		n := b.NumRows()
		o.hashes = eval.HashColumns(b.Cols, n, nil, o.hashes)
		groups := int32(len(o.table.keys))
		var created []int
		for i := 0; i < n; i++ {
			if o.table.findOrAdd(o.hashes[i], b.Cols, i, 0) == groups {
				created = append(created, i)
				groups++
			}
		}
		switch len(created) {
		case 0:
			continue
		case n:
			return b, nil
		}
		return b.Gather(created), nil
	}
}

func (o *vecDistinctOp) Close() error { return o.child.Close() }

// vecAggTable maps group-key rows to dense group ids via open addressing on
// the columnar key hash. Keys are boxed once per group (not per row); slot
// probes compare the full 64-bit hash before touching key values.
type vecAggTable struct {
	mask     uint64
	slots    []int32 // group id, -1 = empty
	hashes   []uint64
	keys     [][]types.Value
	firstRid []int64
	accs     []*vecAcc
	frozen   bool
	bytes    int64 // rough state-size estimate, drives spilling
}

func newVecAggTable(aggs []*plan.AggFunc) *vecAggTable {
	t := &vecAggTable{mask: 63, slots: make([]int32, 64)}
	for i := range t.slots {
		t.slots[i] = -1
	}
	t.accs = make([]*vecAcc, len(aggs))
	for i, af := range aggs {
		t.accs[i] = newVecAcc(af)
	}
	return t
}

// assign resolves each input row j, whose key hashes to hashes[j], to its
// group id gids[j], creating groups in first-occurrence order. On a frozen
// table, rows with unseen keys get gid -1 and are appended to spill, which
// is returned.
func (t *vecAggTable) assign(hashes []uint64, in *aggInput, gids []int32, spill []int) []int {
	for j, h := range hashes {
		g := t.findOrAdd(h, in.keyCols, rowAt(in.sel, j), in.rid(j))
		if g < 0 {
			spill = append(spill, j)
		}
		gids[j] = g
	}
	return spill
}

func (t *vecAggTable) findOrAdd(h uint64, keyCols []*types.Column, row int, rid int64) int32 {
	s := h & t.mask
	for {
		g := t.slots[s]
		if g < 0 {
			break
		}
		if t.hashes[g] == h && keyEqualAt(t.keys[g], keyCols, row) {
			return g
		}
		s = (s + 1) & t.mask
	}
	if t.frozen {
		return -1
	}
	if (len(t.keys)+1)*4 > len(t.slots)*3 {
		t.grow()
		s = h & t.mask
		for t.slots[s] >= 0 {
			s = (s + 1) & t.mask
		}
	}
	gid := int32(len(t.keys))
	t.slots[s] = gid
	key := make([]types.Value, len(keyCols))
	var kb int64 = 48
	for k, c := range keyCols {
		key[k] = c.Value(row)
		kb += 48 + int64(len(key[k].S))
	}
	t.keys = append(t.keys, key)
	t.hashes = append(t.hashes, h)
	t.firstRid = append(t.firstRid, rid)
	t.bytes += kb + int64(64*len(t.accs))
	return gid
}

func (t *vecAggTable) grow() {
	nb := len(t.slots) * 2
	slots := make([]int32, nb)
	for i := range slots {
		slots[i] = -1
	}
	mask := uint64(nb - 1)
	for gid, h := range t.hashes {
		s := h & mask
		for slots[s] >= 0 {
			s = (s + 1) & mask
		}
		slots[s] = int32(gid)
	}
	t.slots, t.mask = slots, mask
}

// keyEqualAt compares a group's key with a row's on the columns' raw
// payloads, as Value.Equal would.
func keyEqualAt(key []types.Value, cols []*types.Column, row int) bool {
	for k, c := range cols {
		if !c.EqualAt(row, key[k]) {
			return false
		}
	}
	return true
}

// Accumulator op codes; avg shares sum's accumulation.
const (
	accCount = iota
	accSum
	accMin
	accMax
)

// vecAcc accumulates one aggregate across all groups as typed state arrays
// indexed by group id. bulk kernels handle Int64/Float64 argument columns
// without boxing; everything else (and DISTINCT) goes through one(), the
// per-value accumulate the kernels agree with.
type vecAcc struct {
	af      *plan.AggFunc
	op      int
	count   []int64
	sumI    []int64
	sumF    []float64
	vals    []types.Value
	nonNull []bool
	seen    []map[uint64][]types.Value
}

func newVecAcc(af *plan.AggFunc) *vecAcc {
	a := &vecAcc{af: af}
	switch af.Name {
	case "sum", "avg":
		a.op = accSum
	case "min":
		a.op = accMin
	case "max":
		a.op = accMax
	default:
		a.op = accCount
	}
	return a
}

func (a *vecAcc) grow(n int) {
	for len(a.count) < n {
		a.count = append(a.count, 0)
		a.nonNull = append(a.nonNull, false)
		switch a.op {
		case accSum:
			a.sumI = append(a.sumI, 0)
			a.sumF = append(a.sumF, 0)
		case accMin, accMax:
			a.vals = append(a.vals, types.Value{})
		}
		if a.af.Distinct {
			a.seen = append(a.seen, nil)
		}
	}
}

// one accumulates a single non-NULL, distinct-checked value into group g.
func (a *vecAcc) one(g int32, v types.Value) {
	a.nonNull[g] = true
	switch a.op {
	case accCount:
		a.count[g]++
	case accSum:
		a.count[g]++
		if v.Kind == types.KindInt64 {
			a.sumI[g] += v.I
		}
		a.sumF[g] += v.AsFloat64()
	case accMin:
		if a.count[g] == 0 {
			a.vals[g] = v
		} else if cmp, ok := v.Compare(a.vals[g]); ok && cmp < 0 {
			a.vals[g] = v
		}
		a.count[g]++
	case accMax:
		if a.count[g] == 0 {
			a.vals[g] = v
		} else if cmp, ok := v.Compare(a.vals[g]); ok && cmp > 0 {
			a.vals[g] = v
		}
		a.count[g]++
	}
}

// countRows is COUNT(*): every row counts, except spilled ones (gid -1).
func (a *vecAcc) countRows(gids []int32) {
	for _, g := range gids {
		if g >= 0 {
			a.nonNull[g] = true
			a.count[g]++
		}
	}
}

// accumulate feeds one argument column: input row j, with group gids[j],
// is column row rowAt(sel, j). gids entries of -1 (spilled rows) are
// skipped, and so are NULLs.
func (a *vecAcc) accumulate(gids []int32, col *types.Column, sel []int) {
	if a.af.Distinct {
		a.distinct(gids, col, sel)
		return
	}
	nulls := col.NullMask()
	switch {
	case a.op == accCount:
		for j, g := range gids {
			if g < 0 || (nulls != nil && nulls[rowAt(sel, j)]) {
				continue
			}
			a.nonNull[g] = true
			a.count[g]++
		}
	case a.op == accSum && col.Kind() == types.KindInt64:
		vs := col.Int64s()
		for j, g := range gids {
			i := rowAt(sel, j)
			if g < 0 || (nulls != nil && nulls[i]) {
				continue
			}
			a.nonNull[g] = true
			a.count[g]++
			a.sumI[g] += vs[i]
			a.sumF[g] += float64(vs[i])
		}
	case a.op == accSum && col.Kind() == types.KindFloat64:
		vs := col.Float64s()
		for j, g := range gids {
			i := rowAt(sel, j)
			if g < 0 || (nulls != nil && nulls[i]) {
				continue
			}
			a.nonNull[g] = true
			a.count[g]++
			a.sumF[g] += vs[i]
		}
	case (a.op == accMin || a.op == accMax) && col.Kind() == types.KindInt64:
		vs := col.Int64s()
		for j, g := range gids {
			i := rowAt(sel, j)
			if g < 0 || (nulls != nil && nulls[i]) {
				continue
			}
			if a.count[g] > 0 && a.vals[g].Kind == types.KindInt64 {
				if a.op == accMin && vs[i] < a.vals[g].I {
					a.vals[g] = types.Int64(vs[i])
				} else if a.op == accMax && vs[i] > a.vals[g].I {
					a.vals[g] = types.Int64(vs[i])
				}
				a.nonNull[g] = true
				a.count[g]++
				continue
			}
			a.one(g, col.Value(i))
		}
	case (a.op == accMin || a.op == accMax) && col.Kind() == types.KindFloat64:
		// Plain < and > reproduce Compare's cmpFloat for same-kind floats:
		// comparisons involving NaN are false, so NaN never displaces a
		// stored extreme and is never displaced once stored.
		vs := col.Float64s()
		for j, g := range gids {
			i := rowAt(sel, j)
			if g < 0 || (nulls != nil && nulls[i]) {
				continue
			}
			if a.count[g] > 0 && a.vals[g].Kind == types.KindFloat64 {
				if a.op == accMin && vs[i] < a.vals[g].F {
					a.vals[g] = types.Float64(vs[i])
				} else if a.op == accMax && vs[i] > a.vals[g].F {
					a.vals[g] = types.Float64(vs[i])
				}
				a.nonNull[g] = true
				a.count[g]++
				continue
			}
			a.one(g, col.Value(i))
		}
	default:
		for j, g := range gids {
			i := rowAt(sel, j)
			if g < 0 || (nulls != nil && nulls[i]) {
				continue
			}
			a.one(g, col.Value(i))
		}
	}
}

// distinct is the DISTINCT slow path: per-group seen maps keyed on
// Value.Hash, with Value.Equal deciding duplicates.
func (a *vecAcc) distinct(gids []int32, col *types.Column, sel []int) {
	nulls := col.NullMask()
	for j, g := range gids {
		i := rowAt(sel, j)
		if g < 0 || (nulls != nil && nulls[i]) {
			continue
		}
		v := col.Value(i)
		if a.seen[g] == nil {
			a.seen[g] = map[uint64][]types.Value{}
		}
		h := v.Hash()
		dup := false
		for _, prev := range a.seen[g][h] {
			if prev.Equal(v) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		a.seen[g][h] = append(a.seen[g][h], v)
		a.one(g, v)
	}
}

// result finalizes group g.
func (a *vecAcc) result(g int) types.Value {
	switch a.af.Name {
	case "count":
		return types.Int64(a.count[g])
	case "sum":
		if !a.nonNull[g] {
			return types.Null(a.af.ResultKind)
		}
		if a.af.ResultKind == types.KindInt64 {
			return types.Int64(a.sumI[g])
		}
		return types.Float64(a.sumF[g])
	case "avg":
		if a.count[g] == 0 {
			return types.Null(types.KindFloat64)
		}
		return types.Float64(a.sumF[g] / float64(a.count[g]))
	case "min":
		if !a.nonNull[g] {
			return types.Null(a.af.ResultKind)
		}
		return a.vals[g]
	case "max":
		if !a.nonNull[g] {
			return types.Null(a.af.ResultKind)
		}
		return a.vals[g]
	}
	return types.Null(a.af.ResultKind)
}

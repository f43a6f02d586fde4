package exec

import (
	"context"
	"fmt"
	"io"

	"lakeguard/internal/eval"
	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// aggInput is one batch with its group-key and aggregate-argument columns
// already evaluated, and its rows' global ids: rids[i], or base+i when rids
// is nil (the input stream numbers its rows consecutively; only spilled
// rows carry their ids).
type aggInput struct {
	n       int
	keyCols []*types.Column
	argCols []*types.Column // per argument-carrying aggregate (see vecAggOp.argOf)
	base    int64
	rids    []int64
}

func (in *aggInput) rid(i int) int64 {
	if in.rids != nil {
		return in.rids[i]
	}
	return in.base + int64(i)
}

// vecAggOp is the grouped-aggregation operator. Group keys are hashed a
// column at a time (eval.HashColumns), rows are assigned group ids through
// an open-addressing table keyed on the full 64-bit hash, and accumulation
// runs as typed COUNT/SUM/MIN/MAX/AVG kernels over group-indexed state
// arrays.
//
// Groups form by Value.Equal over key rows in first-occurrence order, NULL
// arguments are skipped (except COUNT(*)), and DISTINCT arguments keep a
// seen-map per group. Float sums accumulate in stream order so results stay
// byte-identical at any parallelism: group-key and argument evaluation runs
// on the input stream's workers, but accumulation stays serial over batches
// in input order — merging per-worker partial sums would reassociate float
// additions.
//
// When the group state outgrows Engine.SpillBytes the table freezes: rows
// matching existing groups keep accumulating in memory, rows with unseen
// keys spill (keys + args + __rid) to hash partitions that are aggregated
// recursively. Frozen-table groups all first occur before any spilled key,
// and partition outputs carry their group's first-occurrence rid, so
// emitting memory groups first and rid-merging partition outputs reproduces
// the in-memory emission order exactly.
type vecAggOp struct {
	// in evaluates the GROUP BY expressions, then the argument of every
	// aggregate but COUNT(*) (may contain UDFs), over the child's batches.
	in     *stream[*types.Batch, *aggInput]
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
}

func (e *Engine) newVecAggOp(qc *QueryContext, node *plan.Aggregate, child operator) (*vecAggOp, error) {
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
	k := len(node.GroupBy)
	in := newStream(qc.GoContext(), e.streamWorkers(inputs, unknownMorsels), child, batchSource(child),
		func(_ context.Context, b *types.Batch) (*aggInput, error) {
			cols, err := inputs.Run(b.Cols, b.NumRows(), nil)
			if err != nil {
				return nil, err
			}
			return &aggInput{n: b.NumRows(), keyCols: cols[:k:k], argCols: cols[k:]}, nil
		}, nil)
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
		in, err := o.in.Next()
		if err != nil {
			return nil, err
		}
		in.base = rid
		rid += int64(in.n)
		return in, nil
	}

	t := newVecAggTable(o.aggs)
	parts, err := o.consume(t, pull, 0, true)
	if err != nil {
		return err
	}

	// Global aggregation over empty input still yields one row (COUNT(*)=0).
	if len(t.keys) == 0 && parts == nil && len(o.node.GroupBy) == 0 {
		t.keys = append(t.keys, nil)
		t.firstRid = append(t.firstRid, 0)
		for _, a := range t.accs {
			a.grow(1)
		}
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

// consume feeds evaluated inputs into t. When canSpill and the group state
// outgrows the budget, the table freezes and unseen keys scatter into the
// returned partitions (keys + args + __rid), hashed at the given spill level.
func (o *vecAggOp) consume(t *vecAggTable, pull func() (*aggInput, error), level int, canSpill bool) (*spillPartitions, error) {
	var parts *spillPartitions
	for {
		in, err := pull()
		if err == io.EOF {
			return parts, nil
		}
		if err != nil {
			return nil, err
		}
		hashes := eval.HashColumns(in.keyCols, in.n, nil)
		gids, spillSel := t.assign(hashes, in)
		for _, a := range t.accs {
			a.grow(len(t.keys))
		}
		for ai, a := range t.accs {
			if c := o.argOf[ai]; c >= 0 {
				a.accumulate(gids, in.argCols[c], in.n)
			} else {
				a.countRows(gids)
			}
		}
		if len(spillSel) > 0 {
			sb := spillInputBatch(parts.schema, in, spillSel)
			sh := make([]uint64, len(spillSel))
			for i, r := range spillSel {
				sh[i] = hashes[r]
			}
			if err := parts.scatter(sb, sh); err != nil {
				return nil, err
			}
		}
		if canSpill && !t.frozen && t.bytes > o.spillLimit {
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

// spillInputBatch gathers the sel rows of in (keys, args, rids) as a batch
// over the spill schema.
func spillInputBatch(schema *types.Schema, in *aggInput, sel []int) *types.Batch {
	cols := make([]*types.Column, 0, len(in.keyCols)+len(in.argCols)+1)
	for _, c := range in.keyCols {
		cols = append(cols, c.Gather(sel))
	}
	for _, c := range in.argCols {
		cols = append(cols, c.Gather(sel))
	}
	out := make([]int64, len(sel))
	for i, r := range sel {
		out[i] = in.rid(r)
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
		o.hashes = eval.HashColumns(b.Cols, n, o.hashes)
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

// assign resolves each row to a group id, creating groups in first-occurrence
// order. On a frozen table, rows with unseen keys get gid -1 and their
// indexes are returned for spilling.
func (t *vecAggTable) assign(hashes []uint64, in *aggInput) (gids []int32, spillSel []int) {
	n := len(hashes)
	gids = make([]int32, n)
	for i := 0; i < n; i++ {
		g := t.findOrAdd(hashes[i], in.keyCols, i, in.rid(i))
		if g < 0 {
			spillSel = append(spillSel, i)
		}
		gids[i] = g
	}
	return gids, spillSel
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

func keyEqualAt(key []types.Value, cols []*types.Column, row int) bool {
	for k, c := range cols {
		if !key[k].Equal(c.Value(row)) {
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

// accumulate feeds one argument column. gids entries of -1 (spilled rows)
// are skipped, and so are NULLs.
func (a *vecAcc) accumulate(gids []int32, col *types.Column, n int) {
	if a.af.Distinct {
		a.distinct(gids, col, n)
		return
	}
	nulls := col.NullMask()
	switch {
	case a.op == accCount:
		for i := 0; i < n; i++ {
			g := gids[i]
			if g < 0 || (nulls != nil && nulls[i]) {
				continue
			}
			a.nonNull[g] = true
			a.count[g]++
		}
	case a.op == accSum && col.Kind() == types.KindInt64:
		vs := col.Int64s()
		for i := 0; i < n; i++ {
			g := gids[i]
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
		for i := 0; i < n; i++ {
			g := gids[i]
			if g < 0 || (nulls != nil && nulls[i]) {
				continue
			}
			a.nonNull[g] = true
			a.count[g]++
			a.sumF[g] += vs[i]
		}
	case (a.op == accMin || a.op == accMax) && col.Kind() == types.KindInt64:
		vs := col.Int64s()
		for i := 0; i < n; i++ {
			g := gids[i]
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
		for i := 0; i < n; i++ {
			g := gids[i]
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
		for i := 0; i < n; i++ {
			g := gids[i]
			if g < 0 || (nulls != nil && nulls[i]) {
				continue
			}
			a.one(g, col.Value(i))
		}
	}
}

// distinct is the DISTINCT slow path: per-group seen maps keyed on
// Value.Hash, with Value.Equal deciding duplicates.
func (a *vecAcc) distinct(gids []int32, col *types.Column, n int) {
	nulls := col.NullMask()
	for i := 0; i < n; i++ {
		g := gids[i]
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

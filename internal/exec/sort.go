package exec

import (
	"cmp"
	"io"
	"math"
	"slices"
	"strings"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// sortOp materializes its input and orders it by the ORDER BY keys, which
// are evaluated per input batch (vectorized when they compile) and compared
// through their raw payloads by one typed comparator. Unbounded, it is a
// stable sort of every row. Bounded by k — a LIMIT n OFFSET m above it makes
// k = n+m — it keeps a heap of the k best rows and gathers only those, which
// yields exactly the first k rows of the stable sort: ties break on arrival
// order, as stability does.
type sortOp struct {
	child  operator
	orders []plan.SortOrder
	keys   *ExprProgs
	schema *types.Schema
	k      int // rows to keep; < 0 keeps them all
	done   bool
}

// sortBound is the number of sorted rows a LIMIT can emit, or -1 when that
// does not fit an int.
func sortBound(l *plan.Limit) int {
	k := l.N + l.Offset
	if k < l.N || int64(int(k)) != k || int(k) > math.MaxInt32 {
		return -1
	}
	return int(k)
}

func (e *Engine) buildSort(qc *QueryContext, t *plan.Sort, k int) (operator, error) {
	child, err := e.build(qc, t.Child)
	if err != nil {
		return nil, err
	}
	exprs := make([]plan.Expr, len(t.Orders))
	kinds := make([]types.Kind, len(t.Orders))
	for i, ord := range t.Orders {
		exprs[i], kinds[i] = ord.Expr, ord.Expr.Type()
	}
	keys, err := e.compileExprs(qc, exprs, t.Child.Schema().Kinds(), kinds)
	if err != nil {
		child.Close()
		return nil, err
	}
	return &sortOp{child: child, orders: t.Orders, keys: keys, schema: t.Schema(), k: k}, nil
}

// rowRef addresses row r of input batch b.
type rowRef struct{ b, r int32 }

func (o *sortOp) Next() (*types.Batch, error) {
	if o.done {
		return nil, io.EOF
	}
	o.done = true
	s := &sorter{keys: make([]sortKey, len(o.orders))}
	for i, ord := range o.orders {
		s.keys[i].desc = ord.Desc
	}
	var batches []*types.Batch
	total := 0
	for {
		b, err := o.child.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if b.NumRows() == 0 {
			continue
		}
		cols, err := o.keys.Run(b.Cols, b.NumRows(), nil)
		if err != nil {
			return nil, err
		}
		for i, c := range cols {
			s.add(i, c)
		}
		batches = append(batches, b)
		total += b.NumRows()
	}
	var refs []rowRef
	if o.k > 0 && o.k < total && !s.hasNaN {
		refs = s.topK(batches, o.k)
	} else {
		refs = make([]rowRef, 0, total)
		for bi, b := range batches {
			for r := 0; r < b.NumRows(); r++ {
				refs = append(refs, rowRef{int32(bi), int32(r)})
			}
		}
		slices.SortStableFunc(refs, s.compare)
		if o.k >= 0 && o.k < len(refs) {
			refs = refs[:o.k]
		}
	}
	return gatherRows(o.schema, batches, refs), nil
}

func (o *sortOp) Close() error { return o.child.Close() }

// sortKey is one ORDER BY key: its column in every input batch, held as raw
// payload slices of the key's kind.
type sortKey struct {
	desc  bool
	nulls [][]bool
	ints  [][]int64
	flts  [][]float64
	strs  [][]string
}

// sorter orders rows across batches by every key in turn.
type sorter struct {
	keys []sortKey
	// hasNaN marks a float key holding NaN. Compare treats NaN as equal to
	// everything, which is not a strict weak order, so only the full stable
	// sort reproduces the row order there; the heap would not.
	hasNaN bool
}

// add appends one batch's column for key i.
func (s *sorter) add(i int, c *types.Column) {
	k := &s.keys[i]
	k.nulls = append(k.nulls, c.NullMask())
	k.ints = append(k.ints, c.Int64s())
	k.flts = append(k.flts, c.Float64s())
	k.strs = append(k.strs, c.Strings())
	for j, f := range c.Float64s() {
		if math.IsNaN(f) && !c.IsNull(j) {
			s.hasNaN = true
			break
		}
	}
}

func (s *sorter) compare(a, b rowRef) int {
	for i := range s.keys {
		if c := s.keys[i].cmp(a, b); c != 0 {
			if s.keys[i].desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// cmp orders two rows by this key exactly as Value.Compare orders their
// values: NULL first, floats with NaN equal to everything.
func (k *sortKey) cmp(a, b rowRef) int {
	an := k.nulls[a.b] != nil && k.nulls[a.b][a.r]
	bn := k.nulls[b.b] != nil && k.nulls[b.b][b.r]
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	switch {
	case k.ints[a.b] != nil:
		return cmp.Compare(k.ints[a.b][a.r], k.ints[b.b][b.r])
	case k.flts[a.b] != nil:
		x, y := k.flts[a.b][a.r], k.flts[b.b][b.r]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case k.strs[a.b] != nil:
		return strings.Compare(k.strs[a.b][a.r], k.strs[b.b][b.r])
	}
	return 0
}

// order is compare with ties broken by arrival: the total order a stable
// sort produces.
func (s *sorter) order(a, b rowRef) int {
	if c := s.compare(a, b); c != 0 {
		return c
	}
	if c := cmp.Compare(a.b, b.b); c != 0 {
		return c
	}
	return cmp.Compare(a.r, b.r)
}

// topK returns the first k rows of the stable order (0 < k < rows) through
// a heap of the k best rows seen so far, worst on top. Rows arrive in order,
// so a newcomer that only ties the worst loses to it, as in a stable sort.
func (s *sorter) topK(batches []*types.Batch, k int) []rowRef {
	h := make([]rowRef, 0, k)
	for bi, b := range batches {
		for r := 0; r < b.NumRows(); r++ {
			ref := rowRef{int32(bi), int32(r)}
			if len(h) < k {
				h = append(h, ref)
				for i := len(h) - 1; i > 0; {
					p := (i - 1) / 2
					if s.order(h[i], h[p]) <= 0 {
						break
					}
					h[i], h[p] = h[p], h[i]
					i = p
				}
				continue
			}
			if s.compare(ref, h[0]) >= 0 {
				continue
			}
			h[0] = ref
			for i := 0; ; {
				top, l, r := i, 2*i+1, 2*i+2
				if l < k && s.order(h[l], h[top]) > 0 {
					top = l
				}
				if r < k && s.order(h[r], h[top]) > 0 {
					top = r
				}
				if top == i {
					break
				}
				h[i], h[top] = h[top], h[i]
				i = top
			}
		}
	}
	slices.SortFunc(h, s.order)
	return h
}

// gatherRows builds one batch from rows spread over several batches, copying
// raw payloads; a column whose kind differs from the schema's is appended
// value by value, casting like Builder.Append.
func gatherRows(schema *types.Schema, batches []*types.Batch, refs []rowRef) *types.Batch {
	cols := make([]*types.Column, len(schema.Fields))
	for c, f := range schema.Fields {
		cols[c] = gatherColumn(batches, c, f.Kind, refs)
	}
	return types.MustBatch(schema, cols)
}

func gatherColumn(batches []*types.Batch, c int, kind types.Kind, refs []rowRef) *types.Column {
	src := make([]*types.Column, len(batches))
	hasNulls, mismatch := false, kind == types.KindNull
	for i, b := range batches {
		src[i] = b.Cols[c]
		hasNulls = hasNulls || src[i].NullMask() != nil
		mismatch = mismatch || src[i].Kind() != kind
	}
	if mismatch {
		bld := types.NewBuilder(kind, len(refs))
		for _, ref := range refs {
			bld.Append(src[ref.b].Value(int(ref.r)))
		}
		return bld.Build()
	}
	var nulls []bool
	if hasNulls {
		nulls = make([]bool, len(refs))
		for j, ref := range refs {
			nulls[j] = src[ref.b].IsNull(int(ref.r))
		}
	}
	switch kind {
	case types.KindFloat64:
		return types.NewFloat64Column(gatherPayload(src, refs, (*types.Column).Float64s), nulls)
	case types.KindString, types.KindBinary:
		return types.NewStringColumn(kind, gatherPayload(src, refs, (*types.Column).Strings), nulls)
	}
	return types.NewInt64Column(kind, gatherPayload(src, refs, (*types.Column).Int64s), nulls)
}

func gatherPayload[T any](src []*types.Column, refs []rowRef, payload func(*types.Column) []T) []T {
	out := make([]T, len(refs))
	for j, ref := range refs {
		out[j] = payload(src[ref.b])[ref.r]
	}
	return out
}

package exec

import (
	"sync"

	"lakeguard/internal/delta"
	"lakeguard/internal/eval"
	"lakeguard/internal/plan"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// Runtime filters: once a hash join's build side has materialized, the join
// knows exactly which key values can produce output. A scanRF captures that
// knowledge (bloom filter + min/max bounds per equi-key column) and is
// installed onto the probe-side scan, which then (a) skips whole files whose
// zone-map statistics fall outside the build keys — composing with the
// static pruning in prune.go, but with bounds no optimizer could know — and
// (b) drops non-matching rows right after decode, before they travel through
// the rest of the probe pipeline.
//
// Runtime filters are an optimization, never a semantics change, so they are
// only derived for join types where a probe row without a build match
// produces no output at all: INNER, LEFT SEMI, and RIGHT (whose unmatched
// right rows come from the build-side tail, not the probe).

// rfRegistry maps compiled scan nodes to their runtime sources so a join
// built higher in the same plan can install filters on them. One registry is
// created per Execute call and shared by every QueryContext copy.
type rfRegistry struct {
	mu    sync.Mutex
	scans map[*plan.Scan]*scanSource
}

func newRFRegistry() *rfRegistry { return &rfRegistry{scans: map[*plan.Scan]*scanSource{}} }

func (r *rfRegistry) register(s *plan.Scan, src *scanSource) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.scans[s] = src
	r.mu.Unlock()
}

func (r *rfRegistry) lookup(s *plan.Scan) *scanSource {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.scans[s]
}

// rfJoinTypeOK reports whether a probe row that misses the build side is
// guaranteed to produce no output for this join type.
func rfJoinTypeOK(t plan.JoinType) bool {
	return t == plan.JoinInner || t == plan.JoinLeftSemi || t == plan.JoinRight
}

// findRFScan walks from the probe-side plan root toward a Scan, translating
// the key's column ordinal through each node. Only nodes that pass rows
// through unchanged (or by pure column selection) are traversed; anything
// that synthesizes, drops, or reorders membership — Limit, Distinct,
// Aggregate, Union, nested Joins, computed projections — stops the walk, and
// the join simply runs without a runtime filter for that key.
func findRFScan(reg *rfRegistry, node plan.Node, idx int) (*scanSource, int, bool) {
	switch t := node.(type) {
	case *plan.Scan:
		src := reg.lookup(t)
		if src == nil || idx < 0 || idx >= t.Schema().Len() {
			return nil, 0, false
		}
		return src, idx, true
	case *plan.Filter:
		return findRFScan(reg, t.Child, idx)
	case *plan.SubqueryAlias:
		return findRFScan(reg, t.Child, idx)
	case *plan.SecureView:
		return findRFScan(reg, t.Child, idx)
	case *plan.Sort:
		return findRFScan(reg, t.Child, idx)
	case *plan.Project:
		if idx < 0 || idx >= len(t.Exprs) {
			return nil, 0, false
		}
		e := t.Exprs[idx]
		if a, ok := e.(*plan.Alias); ok {
			e = a.Child
		}
		if br, ok := e.(*plan.BoundRef); ok {
			return findRFScan(reg, t.Child, br.Index)
		}
		return nil, 0, false
	}
	return nil, 0, false
}

// bloomFilter is a blocked-probe bloom filter sized to the build side. The
// build materializes before the probe starts, so the filter is allocated at
// install from the observed key count; an oversized build side fills it
// toward keeping everything, which is correct.
type bloomFilter struct {
	words []uint64
	mask  uint64
}

const (
	// bloomBitsPerKey keeps the false-positive rate of four probes near
	// 0.2 %: the density the former fixed 1<<20-bit filter had at 64Ki keys.
	bloomBitsPerKey = 16
	bloomMaxBits    = 1 << 20
)

// newBloomFilter sizes a filter for keys entries: a power of two of at least
// bloomBitsPerKey bits per key and one word, capped at bloomMaxBits.
func newBloomFilter(keys int) *bloomFilter {
	bits := uint64(64)
	for bits < uint64(keys)*bloomBitsPerKey && bits < bloomMaxBits {
		bits <<= 1
	}
	return &bloomFilter{words: make([]uint64, bits/64), mask: bits - 1}
}

func (f *bloomFilter) add(h uint64) {
	h2 := h>>33 | h<<31
	for k := uint64(0); k < 4; k++ {
		bit := (h + k*h2) & f.mask
		f.words[bit>>6] |= 1 << (bit & 63)
	}
}

func (f *bloomFilter) mayContain(h uint64) bool {
	h2 := h>>33 | h<<31
	for k := uint64(0); k < 4; k++ {
		bit := (h + k*h2) & f.mask
		if f.words[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// rfBuilder accumulates one equi-key column's filter while the join build
// side streams, then installs the finished filter on the probe-side scan.
type rfBuilder struct {
	src    *scanSource
	col    int // column ordinal in the scan's output schema
	keyIdx int // which equi-key this builder observes
	hashes []uint64
	min    types.Value
	max    types.Value
	nan    bool // build keys contain NaN: NaN equals everything, filter unusable
}

// observe folds one build part's key column into the filter. hashes are the
// single-column hashes for keys (not the combined multi-column row hash), so
// the probe side can test membership per column. The non-NULL keys' hashes
// are kept until install, which sizes the bloom filter to their count.
func (b *rfBuilder) observe(keys *types.Column, hashes []uint64) {
	n := keys.Len()
	for i := 0; i < n; i++ {
		if keys.IsNull(i) {
			continue
		}
		v := keys.Value(i)
		if v.Kind == types.KindFloat64 && v.F != v.F {
			b.nan = true
			continue
		}
		if len(b.hashes) == 0 {
			b.min, b.max = v, v
		} else if c, ok := v.Compare(b.min); ok && c < 0 {
			b.min = v
		} else if c, ok := v.Compare(b.max); ok && c > 0 {
			b.max = v
		}
		b.hashes = append(b.hashes, hashes[i])
	}
}

// install publishes the finished filter onto the probe scan. A build side
// containing NaN keys disables the filter for this column (NaN compares
// equal to everything, so no probe value can be excluded).
func (b *rfBuilder) install(joinStats *telemetry.OpStats, metrics *telemetry.Registry) {
	if b.nan {
		return
	}
	bloom := newBloomFilter(len(b.hashes))
	for _, h := range b.hashes {
		bloom.add(h)
	}
	b.src.installRF(&scanRF{
		col:       b.col,
		bloom:     bloom,
		min:       b.min,
		max:       b.max,
		empty:     len(b.hashes) == 0,
		joinStats: joinStats,
		metrics:   metrics,
	})
}

// scanRF is an installed runtime filter: the probe scan consults it per file
// (statistics only, before any storage GET) and per row (after decode).
type scanRF struct {
	col       int
	bloom     *bloomFilter
	min, max  types.Value
	empty     bool // build side had no non-NULL keys: nothing can match
	joinStats *telemetry.OpStats
	metrics   *telemetry.Registry
}

// filePrunable reports whether the file's statistics prove no row can match
// any build key. Mirrors the conservatism of prune.go: missing stats keep
// the file, NaN rows keep the file (NaN matches everything when the build is
// non-empty), an all-NULL column proves no match.
func (rf *scanRF) filePrunable(scan *plan.Scan, fs *delta.FileStats) bool {
	if rf.empty {
		return true
	}
	if fs == nil {
		return false
	}
	name := scan.Schema().Fields[rf.col].Name
	cs, ok := fs.Col(name)
	if !ok {
		return false
	}
	if cs.NullCount >= fs.NumRecords {
		return true
	}
	if cs.HasNaN {
		return false
	}
	fmin, fmax, ok := cs.Bounds()
	if !ok {
		return false
	}
	if c, ok := fmax.Compare(rf.min); ok && c < 0 {
		return true
	}
	if c, ok := fmin.Compare(rf.max); ok && c > 0 {
		return true
	}
	return false
}

// filterRows narrows a selection over the n rows of cols (sel nil = all n)
// into sc. It returns the narrowed selection (never nil) and the number of
// rows dropped. A row survives only if its key is non-NULL, within the
// build [min, max], and bloom-positive.
func (rf *scanRF) filterRows(cols []*types.Column, n int, sel []int, sc *SelScratch) ([]int, int) {
	col := cols[rf.col]
	m := n
	if sel != nil {
		m = len(sel)
	}
	next := sc.next(m)
	if rf.empty {
		return next, m
	}
	sc.hashes = eval.HashColumns([]*types.Column{col}, n, sel, sc.hashes)
	for j := 0; j < m; j++ {
		i := rowAt(sel, j)
		if col.IsNull(i) {
			continue
		}
		if !rf.bloom.mayContain(sc.hashes[j]) {
			continue
		}
		v := col.Value(i)
		cmin, ok := v.Compare(rf.min)
		if !ok || cmin < 0 {
			// Incomparable kinds can never equal a build key.
			continue
		}
		if cmax, ok := v.Compare(rf.max); !ok || cmax > 0 {
			continue
		}
		next = append(next, i)
	}
	sc.keep(next)
	return next, m - len(next)
}

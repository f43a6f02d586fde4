package main

import (
	"fmt"
	"math"
	"sort"

	"lakeguard/internal/types"
)

// digest is what the oracle knows about a correct answer: its row count and
// an order-independent checksum over every cell. Two answers with the same
// digest hold the same multiset of rows (up to a 64-bit collision).
type digest struct {
	rows int
	sum  uint64
}

func (d digest) String() string { return fmt.Sprintf("%d rows / %016x", d.rows, d.sum) }

const (
	nullCell = 0x6e756c6c6e756c6c
	rowInit  = 0x9ae16a3b2f90404f
)

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func foldCell(acc, cell uint64) uint64 { return splitmix64(acc ^ cell) }

// digester checksums result batches column-wise into a scratch buffer it
// keeps, so verifying an 80k-row answer allocates nothing in the window.
type digester struct{ acc []uint64 }

func (dg *digester) batch(b *types.Batch) digest {
	n := b.NumRows()
	if cap(dg.acc) < n {
		dg.acc = make([]uint64, n)
	}
	acc := dg.acc[:n]
	for i := range acc {
		acc[i] = rowInit
	}
	for _, c := range b.Cols {
		nulls := c.NullMask()
		isNull := func(i int) bool { return nulls != nil && nulls[i] }
		switch c.Kind() {
		case types.KindFloat64:
			for i, f := range c.Float64s() {
				if isNull(i) {
					acc[i] = foldCell(acc[i], nullCell)
					continue
				}
				acc[i] = foldCell(acc[i], math.Float64bits(f))
			}
		case types.KindString, types.KindBinary:
			for i, s := range c.Strings() {
				if isNull(i) {
					acc[i] = foldCell(acc[i], nullCell)
					continue
				}
				acc[i] = foldCell(acc[i], fnv64(s))
			}
		default:
			for i, v := range c.Int64s() {
				if isNull(i) {
					acc[i] = foldCell(acc[i], nullCell)
					continue
				}
				acc[i] = foldCell(acc[i], uint64(v))
			}
		}
	}
	d := digest{rows: n}
	for _, a := range acc {
		d.sum += a
	}
	return d
}

// digestRows is the oracle's side of the same checksum, over rows the
// generator model produced.
func digestRows(rows [][]types.Value) digest {
	d := digest{rows: len(rows)}
	for _, row := range rows {
		acc := uint64(rowInit)
		for _, v := range row {
			switch {
			case v.Null:
				acc = foldCell(acc, nullCell)
			case v.Kind == types.KindFloat64:
				acc = foldCell(acc, math.Float64bits(v.F))
			case v.Kind == types.KindString || v.Kind == types.KindBinary:
				acc = foldCell(acc, fnv64(v.S))
			default:
				acc = foldCell(acc, uint64(v.I))
			}
		}
		d.sum += acc
	}
	return d
}

// expectDigest builds the check for a statement whose whole answer the
// generator model can recompute.
func expectDigest(want digest) func(*types.Batch, *digester) error {
	return func(b *types.Batch, dg *digester) error {
		if got := dg.batch(b); got != want {
			return fmt.Errorf("got %v, oracle says %v", got, want)
		}
		return nil
	}
}

// groupAgg is the oracle for "SELECT key, SUM(v), COUNT(*) ... GROUP BY key":
// one (key, sum, count) row per non-empty group.
type groupAgg struct {
	sum, n int64
}

func groupRows(groups map[string]*groupAgg) [][]types.Value {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([][]types.Value, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		rows = append(rows, []types.Value{types.String(k), types.Int64(g.sum), types.Int64(g.n)})
	}
	return rows
}

func addGroup(groups map[string]*groupAgg, key string, v int64) {
	g := groups[key]
	if g == nil {
		g = &groupAgg{}
		groups[key] = g
	}
	g.sum += v
	g.n++
}

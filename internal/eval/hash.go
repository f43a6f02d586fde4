package eval

import (
	"math"

	"lakeguard/internal/types"
)

// Columnar hash kernel for join keys and group keys.
//
// Hashing a key row by combining types.Value.Hash() per column with an
// FNV-1a fold is correct but boxes every value and walks a maphash per row.
// HashColumns produces a 64-bit hash per row column-at-a-time over raw
// payload slices instead.
//
// The kernel does not reproduce Value.Hash bit-for-bit (Value.Hash uses a
// process-seeded maphash); what correctness requires is that it induces the
// same *partition* of key values: two values equal under Value.Equal must
// hash equal here, and values in different Value.Hash classes should
// (probabilistically) differ. Concretely, mirroring Value.Hash's classes:
//
//   - NULL hashes to a fixed constant regardless of kind;
//   - every integer-payload kind (BOOLEAN/BIGINT/DATE/TIMESTAMP) and every
//     integral DOUBLE hash as the int64 value, so 3 and 3.0 collide the way
//     Compare/Equal say they must;
//   - non-integral DOUBLEs hash their bit pattern (NaN lands in its own
//     class; NaN equality is resolved after hashing, not by hash, so hash
//     joins and groups never pair NaN with non-NaN);
//   - STRING/BINARY hash their bytes.
const (
	hashOffset64 uint64 = 14695981039346656037 // FNV-1a offset basis
	hashPrime64  uint64 = 1099511628211        // FNV-1a prime

	hashNullClass uint64 = 0x9e3779b97f4a7c15
	hashIntTag    uint64 = 0xa24baed4963ee407
	hashFloatTag  uint64 = 0x9fb21c651e98df25
	hashStrTag    uint64 = 0xc2b2ae3d27d4eb4f
)

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler that turns
// raw payloads into well-distributed bucket indices.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashInt64(v int64) uint64 { return mix64(uint64(v) ^ hashIntTag) }
func hashBytes(s string) uint64 {
	h := hashOffset64
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime64
	}
	return mix64(h ^ hashStrTag)
}

// hashFloat64 hashes a DOUBLE into the class Value.Hash assigns it: integral
// finite values share the int64 class, everything else hashes its bits. The
// integral test matches Value.Hash verbatim.
func hashFloat64(f float64) uint64 {
	if f == math.Trunc(f) && !math.IsInf(f, 0) && f >= math.MinInt64 && f <= math.MaxInt64 {
		return hashInt64(int64(f))
	}
	return mix64(math.Float64bits(f) ^ hashFloatTag)
}

// HashColumns computes one 64-bit hash per row over the rows sel selects of
// the n rows of the key columns (nil = all n): out[j] hashes row rowAt(sel,
// j), and no other row is read. Columns combine with an FNV-1a fold for
// multi-column keys. With no columns every row gets the same hash (keyless
// joins rely on it). out is reused when it has capacity; the (possibly
// reallocated) slice is returned.
func HashColumns(cols []*types.Column, n int, sel []int, out []uint64) []uint64 {
	m := rowsOf(n, sel)
	if cap(out) < m {
		out = make([]uint64, m)
	} else {
		out = out[:m]
	}
	for j := range out {
		out[j] = hashOffset64
	}
	for _, c := range cols {
		combineColumnHash(c, sel, out)
	}
	return out
}

func combineColumnHash(c *types.Column, sel []int, out []uint64) {
	nulls := c.NullMask()
	switch c.Kind() {
	case types.KindBool, types.KindInt64, types.KindDate, types.KindTimestamp:
		vals := c.Int64s()
		for j := range out {
			h := hashNullClass
			if i := rowAt(sel, j); nulls == nil || !nulls[i] {
				h = hashInt64(vals[i])
			}
			out[j] = (out[j] ^ h) * hashPrime64
		}
	case types.KindFloat64:
		vals := c.Float64s()
		for j := range out {
			h := hashNullClass
			if i := rowAt(sel, j); nulls == nil || !nulls[i] {
				h = hashFloat64(vals[i])
			}
			out[j] = (out[j] ^ h) * hashPrime64
		}
	case types.KindString, types.KindBinary:
		vals := c.Strings()
		for j := range out {
			h := hashNullClass
			if i := rowAt(sel, j); nulls == nil || !nulls[i] {
				h = hashBytes(vals[i])
			}
			out[j] = (out[j] ^ h) * hashPrime64
		}
	default:
		// KindNull and friends carry no payload: every row is the NULL class.
		for j := range out {
			out[j] = (out[j] ^ hashNullClass) * hashPrime64
		}
	}
}

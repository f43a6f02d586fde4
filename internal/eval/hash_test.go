package eval

import (
	"math"
	"testing"

	"lakeguard/internal/types"
)

func colOf(t *testing.T, kind types.Kind, vals ...types.Value) *types.Column {
	t.Helper()
	b := types.NewBuilder(kind, len(vals))
	for _, v := range vals {
		b.Append(v)
	}
	return b.Build()
}

// TestHashColumnsEqualValuesAgree is the contract the vectorized join and
// aggregation operators rely on: any two values that compare equal under
// Value.Equal must receive the same column hash, including NULLs and
// cross-kind numeric equality (BIGINT 5 = DOUBLE 5.0).
func TestHashColumnsEqualValuesAgree(t *testing.T) {
	vals := []types.Value{
		types.Int64(0), types.Int64(5), types.Int64(-7), types.Int64(math.MaxInt64),
		types.Float64(0), types.Float64(5), types.Float64(-7), types.Float64(5.5),
		types.Float64(math.Inf(1)), types.Float64(math.NaN()),
		types.Bool(true), types.Bool(false),
		types.String(""), types.String("a"), types.String("ab"),
		types.Null(types.KindInt64), types.Null(types.KindFloat64), types.Null(types.KindString),
	}
	hash := func(v types.Value) uint64 {
		c := colOf(t, v.Kind, v)
		return HashColumns([]*types.Column{c}, 1, nil, nil)[0]
	}
	isNaN := func(v types.Value) bool {
		return !v.Null && v.Kind == types.KindFloat64 && math.IsNaN(v.F)
	}
	for _, a := range vals {
		for _, b := range vals {
			if isNaN(a) != isNaN(b) {
				// cmpFloat makes NaN compare equal to every float, but
				// Value.Hash puts NaN in its own float-bits class. Hash
				// joins and groups inherit that inconsistency (they never
				// pair NaN with non-NaN), and the kernel must reproduce
				// it, not fix it.
				continue
			}
			ha, hb := hash(a), hash(b)
			if a.Equal(b) && ha != hb {
				t.Errorf("%v and %v are equal but hash %x vs %x", a, b, ha, hb)
			}
		}
	}
}

// TestHashColumnsDiscriminates sanity-checks that obviously different values
// land on different hashes (not a cryptographic claim, just that the kernel
// is not degenerate).
func TestHashColumnsDiscriminates(t *testing.T) {
	c := colOf(t, types.KindInt64,
		types.Int64(1), types.Int64(2), types.Int64(3), types.Int64(-1),
		types.Null(types.KindInt64))
	h := HashColumns([]*types.Column{c}, c.Len(), nil, nil)
	seen := map[uint64]int{}
	for i, v := range h {
		if j, dup := seen[v]; dup {
			t.Fatalf("rows %d and %d collide: %x", j, i, v)
		}
		seen[v] = i
	}
	s := colOf(t, types.KindString, types.String("a"), types.String("b"), types.String(""))
	hs := HashColumns([]*types.Column{s}, s.Len(), nil, nil)
	if hs[0] == hs[1] || hs[0] == hs[2] || hs[1] == hs[2] {
		t.Fatalf("string hashes collide: %x", hs)
	}
}

// TestHashColumnsMultiColumn checks column-order sensitivity and that the
// combined hash changes when any component changes.
func TestHashColumnsMultiColumn(t *testing.T) {
	a := colOf(t, types.KindInt64, types.Int64(1), types.Int64(1))
	b := colOf(t, types.KindInt64, types.Int64(2), types.Int64(2))
	ab := HashColumns([]*types.Column{a, b}, 2, nil, nil)
	ba := HashColumns([]*types.Column{b, a}, 2, nil, nil)
	if ab[0] != ab[1] {
		t.Fatalf("identical rows hash differently: %x vs %x", ab[0], ab[1])
	}
	if ab[0] == ba[0] {
		t.Fatalf("column order does not affect the combined hash: %x", ab[0])
	}
	c := colOf(t, types.KindInt64, types.Int64(2), types.Int64(3))
	ac := HashColumns([]*types.Column{a, c}, 2, nil, nil)
	if ac[0] == ac[1] {
		t.Fatalf("differing second column did not change the hash: %x", ac[0])
	}
}

// TestHashColumnsIntegralFloatClass pins the hash-class rule inherited from
// Value.Hash: integral floats in int64 range share the BIGINT class, while
// non-integral, infinite, and out-of-range floats use the float-bits class.
func TestHashColumnsIntegralFloatClass(t *testing.T) {
	ints := colOf(t, types.KindInt64, types.Int64(42), types.Int64(-3))
	flts := colOf(t, types.KindFloat64, types.Float64(42), types.Float64(-3))
	hi := HashColumns([]*types.Column{ints}, 2, nil, nil)
	hf := HashColumns([]*types.Column{flts}, 2, nil, nil)
	if hi[0] != hf[0] || hi[1] != hf[1] {
		t.Fatalf("integral floats must share the int class: %x vs %x", hi, hf)
	}
	odd := colOf(t, types.KindFloat64,
		types.Float64(42.5), types.Float64(math.Inf(-1)), types.Float64(2e300))
	ho := HashColumns([]*types.Column{odd}, 3, nil, nil)
	for i, h := range ho {
		if h == hi[0] {
			t.Fatalf("non-integral float %d reused an int-class hash", i)
		}
	}
}

// TestHashColumnsReusesOut checks the out-slice reuse contract.
func TestHashColumnsReusesOut(t *testing.T) {
	c := colOf(t, types.KindInt64, types.Int64(9), types.Int64(10))
	buf := make([]uint64, 8)
	h := HashColumns([]*types.Column{c}, 2, nil, buf)
	if &h[0] != &buf[0] {
		t.Fatal("HashColumns did not reuse the provided buffer")
	}
	fresh := HashColumns([]*types.Column{c}, 2, nil, nil)
	if h[0] != fresh[0] || h[1] != fresh[1] {
		t.Fatal("buffer reuse changed hash values")
	}
}

// TestHashColumnsThroughSelection checks that hashing through a selection
// gives, for each selected row, the hash of that row over all rows, and that
// it reads no other row.
func TestHashColumnsThroughSelection(t *testing.T) {
	ints := colOf(t, types.KindInt64, types.Int64(4), types.Null(types.KindInt64), types.Int64(-2), types.Int64(7))
	strs := colOf(t, types.KindString, types.String("a"), types.String("b"), types.Null(types.KindString), types.String(""))
	all := HashColumns([]*types.Column{ints, strs}, 4, nil, nil)
	sel := []int{1, 3}
	got := HashColumns([]*types.Column{ints, strs}, 4, sel, make([]uint64, 1))
	if len(got) != len(sel) {
		t.Fatalf("got %d hashes, want %d", len(got), len(sel))
	}
	for j, i := range sel {
		if got[j] != all[i] {
			t.Fatalf("selected row %d hashed %x, want %x", i, got[j], all[i])
		}
	}
	// A 2-row column under n = 4: any read past row 1 would panic.
	short := colOf(t, types.KindFloat64, types.Float64(1.5), types.Float64(3))
	if h := HashColumns([]*types.Column{short}, 4, []int{1}, nil); len(h) != 1 {
		t.Fatalf("got %d hashes, want 1", len(h))
	}
	if h := HashColumns([]*types.Column{ints}, 4, []int{}, nil); len(h) != 0 {
		t.Fatalf("an empty selection hashed %d rows", len(h))
	}
}

package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindNames(t *testing.T) {
	cases := map[Kind]string{
		KindBool: "BOOLEAN", KindInt64: "BIGINT", KindFloat64: "DOUBLE",
		KindString: "STRING", KindBinary: "BINARY", KindDate: "DATE",
		KindTimestamp: "TIMESTAMP", KindNull: "NULL",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindFromName(t *testing.T) {
	cases := []struct {
		name string
		want Kind
		ok   bool
	}{
		{"bigint", KindInt64, true},
		{"INT", KindInt64, true},
		{"string", KindString, true},
		{"varchar", KindString, true},
		{"double", KindFloat64, true},
		{"boolean", KindBool, true},
		{"date", KindDate, true},
		{"timestamp", KindTimestamp, true},
		{"binary", KindBinary, true},
		{"geometry", KindNull, false},
	}
	for _, c := range cases {
		got, ok := KindFromName(c.name)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("KindFromName(%q) = %v,%v want %v,%v", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestValueConstructorsAndString(t *testing.T) {
	if got := Int64(42).String(); got != "42" {
		t.Errorf("Int64(42).String() = %q", got)
	}
	if got := Float64(2.5).String(); got != "2.5" {
		t.Errorf("Float64(2.5).String() = %q", got)
	}
	if got := Bool(true).String(); got != "true" {
		t.Errorf("Bool(true).String() = %q", got)
	}
	if got := String("hi").String(); got != "hi" {
		t.Errorf("String(hi).String() = %q", got)
	}
	if got := Null(KindInt64).String(); got != "NULL" {
		t.Errorf("Null.String() = %q", got)
	}
	d, err := DateFromString("2024-12-01")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.String(); got != "2024-12-01" {
		t.Errorf("date round trip = %q", got)
	}
	ts, err := TimestampFromString("2024-12-01 10:30:00")
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.String(); got != "2024-12-01 10:30:00" {
		t.Errorf("timestamp round trip = %q", got)
	}
}

func TestDateFromStringInvalid(t *testing.T) {
	if _, err := DateFromString("not-a-date"); err == nil {
		t.Error("expected error for invalid date")
	}
	if _, err := TimestampFromString("nope"); err == nil {
		t.Error("expected error for invalid timestamp")
	}
}

func TestSQLLiteral(t *testing.T) {
	if got := String("o'brien").SQLLiteral(); got != "'o''brien'" {
		t.Errorf("SQLLiteral quoting = %q", got)
	}
	if got := Int64(7).SQLLiteral(); got != "7" {
		t.Errorf("int literal = %q", got)
	}
	if got := Null(KindString).SQLLiteral(); got != "NULL" {
		t.Errorf("null literal = %q", got)
	}
	d, _ := DateFromString("2020-01-02")
	if got := d.SQLLiteral(); got != "DATE '2020-01-02'" {
		t.Errorf("date literal = %q", got)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int64(1), Int64(2), -1},
		{Int64(2), Int64(2), 0},
		{Int64(3), Int64(2), 1},
		{Float64(1.5), Int64(2), -1},
		{Int64(2), Float64(1.5), 1},
		{String("a"), String("b"), -1},
		{Null(KindInt64), Int64(0), -1},
		{Int64(0), Null(KindInt64), 1},
		{Null(KindInt64), Null(KindString), 0},
		{Bool(false), Bool(true), -1},
	}
	for _, c := range cases {
		got, ok := c.a.Compare(c.b)
		if !ok || got != c.want {
			t.Errorf("Compare(%v,%v) = %d,%v want %d", c.a, c.b, got, ok, c.want)
		}
	}
	if _, ok := String("x").Compare(Int64(1)); ok {
		t.Error("string vs int should be incomparable")
	}
}

func TestHashEqualConsistency(t *testing.T) {
	// Property: Equal values hash identically.
	f := func(i int64, s string, fl float64) bool {
		pairs := [][2]Value{
			{Int64(i), Int64(i)},
			{String(s), String(s)},
			{Float64(fl), Float64(fl)},
			{Null(KindInt64), Null(KindString)},
		}
		for _, p := range pairs {
			if p[0].Equal(p[1]) && p[0].Hash() != p[1].Hash() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashNumericCrossKind(t *testing.T) {
	// Integer-valued floats hash like the equal integer, so numeric GROUP BY
	// keys agree with Compare.
	if Int64(5).Hash() != Float64(5).Hash() {
		t.Error("Int64(5) and Float64(5) should hash equal")
	}
	if Float64(5.5).Hash() == Int64(5).Hash() {
		t.Error("5.5 should not collide with 5 by construction")
	}
}

func TestCast(t *testing.T) {
	cases := []struct {
		v    Value
		to   Kind
		want string
	}{
		{Int64(42), KindString, "42"},
		{String("42"), KindInt64, "42"},
		{String("2.5"), KindFloat64, "2.5"},
		{Float64(2.9), KindInt64, "2"},
		{Bool(true), KindInt64, "1"},
		{Int64(1), KindBool, "true"},
		{String("true"), KindBool, "true"},
		{String("2024-12-01"), KindDate, "2024-12-01"},
	}
	for _, c := range cases {
		got, err := c.v.Cast(c.to)
		if err != nil {
			t.Errorf("Cast(%v, %v): %v", c.v, c.to, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("Cast(%v, %v) = %q want %q", c.v, c.to, got.String(), c.want)
		}
	}
	// A failed cast names the two kinds, never the value.
	for _, to := range []Kind{KindInt64, KindDate, KindTimestamp} {
		want := "cannot cast STRING to " + to.String()
		if _, err := String("xyz").Cast(to); err == nil || err.Error() != want {
			t.Errorf("Cast(xyz, %v) err = %v, want %q", to, err, want)
		}
	}
	// NULL casts to NULL of target kind.
	n, err := Null(KindString).Cast(KindInt64)
	if err != nil || !n.Null || n.Kind != KindInt64 {
		t.Errorf("NULL cast = %v, %v", n, err)
	}
}

func TestCastPropertyRoundTrip(t *testing.T) {
	// Property: int -> string -> int is identity.
	f := func(i int64) bool {
		s, err := Int64(i).Cast(KindString)
		if err != nil {
			return false
		}
		back, err := s.Cast(KindInt64)
		return err == nil && back.I == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComparePropertyAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		c1, ok1 := Int64(a).Compare(Int64(b))
		c2, ok2 := Int64(b).Compare(Int64(a))
		return ok1 && ok2 && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatSpecials(t *testing.T) {
	inf := Float64(math.Inf(1))
	if inf.Hash() == Float64(math.Inf(-1)).Hash() {
		t.Error("+inf and -inf should hash differently")
	}
	c, ok := Float64(math.Inf(-1)).Compare(inf)
	if !ok || c != -1 {
		t.Errorf("-inf < +inf: got %d,%v", c, ok)
	}
}

// TestColumnEqualAtMatchesValueEqual checks Column.EqualAt against
// Value.Equal on every pair drawn from values of every kind: NULLs of
// several kinds, NaNs of two bit patterns, -0.0 and 0.0, integral floats
// beside equal BIGINTs, booleans beside 0 and 1, and strings beside binary.
func TestColumnEqualAtMatchesValueEqual(t *testing.T) {
	nan, otherNaN := math.NaN(), math.Float64frombits(math.Float64bits(math.NaN())^1)
	vals := []Value{
		Null(KindInt64), Null(KindFloat64), Null(KindString), Null(KindNull),
		Int64(0), Int64(1), Int64(-7), Int64(math.MaxInt64),
		Float64(0), Float64(math.Copysign(0, -1)), Float64(1), Float64(1.5), Float64(-7),
		Float64(nan), Float64(otherNaN), Float64(math.Inf(1)), Float64(math.MaxInt64),
		Bool(true), Bool(false),
		String(""), String("a"), String("1"),
		{Kind: KindBinary, S: "a"},
		{Kind: KindDate, I: 1}, {Kind: KindTimestamp, I: 1},
	}
	for _, row := range vals {
		col := ColumnFromValues(row.Kind, []Value{Null(row.Kind), row})
		for _, v := range vals {
			if got, want := col.EqualAt(1, v), col.Value(1).Equal(v); got != want {
				t.Errorf("EqualAt(%v (%v), %v (%v)) = %v, Value.Equal says %v", row, row.Kind, v, v.Kind, got, want)
			}
			if got, want := col.EqualAt(0, v), col.Value(0).Equal(v); got != want {
				t.Errorf("EqualAt(NULL %v, %v (%v)) = %v, Value.Equal says %v", row.Kind, v, v.Kind, got, want)
			}
		}
	}
}

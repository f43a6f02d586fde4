package udf

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"lakeguard/internal/types"
)

type corpusCase struct {
	src  string
	args map[string]value
	caps *Capabilities
}

// corpus holds every program the package's other tests run, plus programs
// aimed at the compiler's own edges: locals read before assignment, the
// implicit result across loops and branches, returns from inside loops,
// nested builtin calls sharing scratch slots, and NULL arithmetic.
func corpus() []corpusCase {
	pong := &Capabilities{HTTPGet: func(url string) (string, error) { return `{"yesterday": 41.5}`, nil }}
	none := func(srcs ...string) []corpusCase {
		out := make([]corpusCase, len(srcs))
		for i, s := range srcs {
			out[i] = corpusCase{src: s}
		}
		return out
	}
	cases := none(
		// TestArithmeticSemantics
		"return 7 // 2", "return -7 // 2", "return -7 % 3", "return 7 / 2", "return 2 + 3 * 4",
		"return (2 + 3) * 4", "return 1.5 + 1", "return -abs(-3)", "return 'ab' + 'cd'", "return 'ab' * 3",
		"return 'n=' + str(42)", "return min(3, 1, 2)", "return max(3, 1, 2)", "return int('17')",
		"return float('2.5') * 2", "return len('hello')", "return upper('hi')", "return lower('HI')",
		"return substr('hello', 1, 3)", "return round(2.6)", "return sqrt(9.0)", "return 1 if 2 > 1 else 0",
		"return 'x' if False else 'y'", "return True and False", "return True or False", "return not True",
		"return 1 == 1.0", "return 'a' != 'b'",
		// TestImplicitLastExpression, TestNoReturn, TestWhileLoop, TestNestedBlocks
		"x = 10\nx * 2", "x = 1",
		"total = 0\nn = 1\nwhile n <= 10:\n    total = total + n\n    n = n + 1\nreturn total",
		"count = 0\nfor i in range(3):\n    for j in range(4):\n        if (i + j) % 2 == 0:\n            count = count + 1\nreturn count",
		// TestFuelLimitStopsInfiniteLoop, TestNoAmbientAuthority, TestRuntimeErrors
		"while True:\n    x = 1",
		"return open('/etc/passwd')", "return os", "return __import__('os')", "return credentials",
		"return 1 / 0", "return 1 // 0", "return 1 % 0", "return undefined_name", "return int('abc')",
		"return sqrt(-1.0)", "return sha256('a', 'b')", "return nosuchfn(1)", "return 'a' < 1",
		// TestCommentsAndBlankLines, TestHashStringWithComment, TestNullHandling, TestShortCircuit
		"\n# compute the answer\nx = 6   # six\n\ny = 7\nreturn x * y  # forty-two\n",
		"return '#tag'", "return None", "return False and (1 / 0)", "return True or (1 / 0)",
		// TestStringBuiltins, TestMathBuiltins, TestBuiltinsComposeInPrograms
		"return startswith('lakeguard', 'lake')", "return startswith('lakeguard', 'guard')",
		"return endswith('lakeguard', 'guard')", "return contains('lakeguard', 'egu')",
		"return contains('lakeguard', 'xyz')", "return find('lakeguard', 'guard')", "return find('lakeguard', 'zz')",
		"return replace('a-b-c', '-', '_')", "return strip('  pad  ')", "return reversed('abc')",
		"return ord('A')", "return chr(66)", "return pow(2, 10)", "return exp(0)", "return log(exp(1.0))",
		"return log(0)", "return log(-1)", "return ord('')",
		"\ns = strip('  lakeguard  ')\nif startswith(s, 'lake') and endswith(s, 'guard'):\n    return replace(s, 'lake', 'data')\nreturn 'nope'\n",
		// Compiler edges.
		"if False:\n    y = 1\nreturn y",
		"if True:\n    y = 1\nreturn y",
		"for i in range(3):\n    i * 10\n",
		"for i in range(0):\n    x = 1\nreturn i",
		"for i in range(2.9):\n    x = i\nreturn x",
		"n = 0\nwhile n < 5:\n    n = n + 1\n    n\n",
		"for i in range(10):\n    if i == 4:\n        return i * i\nreturn -1",
		"i = 0\nwhile True:\n    i = i + 1\n    if i > 3:\n        return i",
		"5\nx = 2",
		"if 1 > 2:\n    1\nelif 2 > 1:\n    2\nelse:\n    3",
		"return sha256(sha256('a') + sha256('b'))",
		"return max(min(1, 2), min(3, 4), len(str(min(9, 8))))",
		"return min(1)", "return max('a', 1)", "return -'x'", "return not ''",
		"return substr('hello', 0, -1)", "return substr('hello', -3, 2)", "return substr('hello', 4, 1)",
		"return substr('hello', 2, 99)",
		"return 'ab' * -3", "return 'ab' * True", "return 'a' * 100000000000",
		"h = 'a' * 9000000\nh = h + h\nreturn len(h)",
		"return len(replace('aaaa', 'a', 'bbbbbbbb'))", "return replace('aaaa', '', '-')",
		"return 3 + True", "return 2.5 * 2", "return 1 < 2.5", "return 7 // 2.0", "return -7 % 2.5",
	)
	withArgs := []corpusCase{
		{src: "return a + b", args: map[string]value{"a": intVal(2), "b": intVal(3)}},
		{src: "return sha256(s)", args: map[string]value{"s": strVal("lakeguard")}},
		{src: "\nh = s\nfor i in range(100):\n    h = sha256(h)\nreturn h\n", args: map[string]value{"s": strVal("seed")}},
		{src: "return http_get('http://example.aqi.com/zip/94105')"},
		{src: "return http_get('http://example.aqi.com/zip/94105')", caps: &Capabilities{}},
		{src: "return http_get('http://example.aqi.com/zip/94105')", caps: pong},
		{src: "return is_null(x)", args: map[string]value{"x": types.Null(types.KindString)}},
		{src: "return 'fallback' if is_null(x) else x", args: map[string]value{"x": types.Null(types.KindString)}},
		{src: "return x + 1", args: map[string]value{"x": types.Null(types.KindInt64)}},
		{src: "return x == y", args: map[string]value{"x": types.Null(types.KindInt64), "y": types.Null(types.KindInt64)}},
		{src: "return x < 1", args: map[string]value{"x": types.Null(types.KindInt64)}},
		{src: "return x + '!'", args: map[string]value{"x": types.Null(types.KindString)}},
		{src: "a = a * 2\nreturn a + b", args: map[string]value{"a": intVal(4), "b": intVal(1)}},
		{src: "a = str(a)\nreturn a + '!'", args: map[string]value{"a": intVal(7)}},
		{src: "for a in range(2):\n    b = a\nreturn a + b", args: map[string]value{"a": floatVal(0.5), "b": intVal(1)}},
		{src: "return str(a) + '|' + str(b) + '|' + str(d) + '|' + str(t) + '|' + str(z)", args: map[string]value{
			"a": types.Bool(true), "b": types.Binary([]byte("xy")), "d": types.Date(19000),
			"t": types.Timestamp(1_700_000_000_000_000), "z": types.Null(types.KindNull)}},
		{src: "return is_null(z) and not is_null(b)", args: map[string]value{"z": types.Null(types.KindNull), "b": types.Binary(nil)}},
		{src: "return a + b + 3", args: map[string]value{"a": intVal(math.MaxInt64), "b": intVal(1)}},
		{src: "return a * b", args: map[string]value{"a": floatVal(math.NaN()), "b": intVal(1)}},
	}
	for _, x := range []int64{20, 7, 1} {
		withArgs = append(withArgs, corpusCase{
			src:  "\nif x > 10:\n    return 'big'\nelif x > 5:\n    return 'mid'\nelse:\n    return 'small'\n",
			args: map[string]value{"x": intVal(x)},
		})
	}
	for _, x := range []int64{1, 2, 3} {
		withArgs = append(withArgs, corpusCase{
			src:  "return 'a' if x == 1 else 'b' if x == 2 else 'c'",
			args: map[string]value{"x": intVal(x)},
		})
	}
	return append(cases, withArgs...)
}

// sameValue compares two results field by field (NaN equal to NaN).
func sameValue(a, b value) bool {
	return a.Kind == b.Kind && a.Null == b.Null && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkAgainstOracle runs p compiled and tree-walked with one budget and
// reports any difference in value, error text or fuel left.
func checkAgainstOracle(t *testing.T, p *Program, c corpusCase, fuel int) {
	t.Helper()
	want, wantLeft, wantErr := oracleCall(p, c.args, c.caps, fuel)
	got, gotLeft, gotErr := compiledCall(p, c.args, c.caps, fuel)
	if !sameValue(got, want) || errText(gotErr) != errText(wantErr) || gotLeft != wantLeft {
		t.Errorf("%q fuel %d: compiled = (%v, %q, left %d), oracle = (%v, %q, left %d)",
			c.src, fuel, got, errText(gotErr), gotLeft, want, errText(wantErr), wantLeft)
	}
}

// checkRowsAgainstOracle runs p through a Set over three rows of argument
// columns — the arguments, a NULL of each argument's kind, the arguments
// again — and compares every row with the tree-walker. The first bound
// name is also bound first to a decoy STRING column, so a repeated name
// must take its later argument; a parameter the body reassigns must come
// back with its column's kind and value on the next row.
func checkRowsAgainstOracle(t *testing.T, p *Program, src string, args map[string]value, caps *Capabilities, fuel int) {
	t.Helper()
	names := make([]string, 0, len(args))
	for k := range args {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return
	}
	bound := append([]string{names[0]}, names...)
	cols := []*types.Column{types.ColumnFromValues(types.KindString, []value{strVal("decoy"), strVal("decoy"), strVal("decoy")})}
	for _, k := range names {
		v := args[k]
		cols = append(cols, types.ColumnFromValues(v.Kind, []value{v, types.Null(v.Kind), v}))
	}
	c := setOf(p, bound, caps)
	c.bind(cols)
	for row := 0; row < 3; row++ {
		rowArgs := map[string]value{}
		for i, k := range names {
			rowArgs[k] = cols[i+1].Value(row)
		}
		want, wantLeft, wantErr := oracleCall(p, rowArgs, caps, fuel)
		got, gotErr := c.call(row, fuel)
		if !sameValue(got, want) || errText(gotErr) != errText(wantErr) || c.fr.fuel != wantLeft {
			t.Errorf("%q row %d fuel %d: set = (%v, %q, left %d), oracle = (%v, %q, left %d)",
				src, row, fuel, got, errText(gotErr), c.fr.fuel, want, errText(wantErr), wantLeft)
		}
	}
}

// TestCompiledMatchesOracle runs every corpus program compiled and under the
// reference tree-walker, at the default budget and at every budget from 0 to
// the program's step count plus one, so exhaustion must land on the same
// step with the same error. Arguments reach the compiled program through
// typed argument columns, one row at a time and over several rows.
func TestCompiledMatchesOracle(t *testing.T) {
	for _, c := range corpus() {
		p, err := Compile(c.src)
		if err != nil {
			t.Fatalf("Compile(%q): %v", c.src, err)
		}
		checkAgainstOracle(t, p, c, DefaultFuel)
		checkRowsAgainstOracle(t, p, c.src, c.args, c.caps, DefaultFuel)
		_, left, _ := oracleCall(p, c.args, c.caps, DefaultFuel)
		steps := min(DefaultFuel-left, 2000) // non-terminating programs sweep a prefix
		for fuel := 0; fuel <= steps+1; fuel++ {
			checkAgainstOracle(t, p, c, fuel)
		}
	}
}

// FuzzCompiledMatchesOracle compares compiled and tree-walked runs of
// arbitrary sources over a fixed parameter set of every kind and a fuzzed
// budget.
func FuzzCompiledMatchesOracle(f *testing.F) {
	for _, c := range corpus() {
		f.Add(c.src, int64(3), "seed", uint16(200))
	}
	f.Fuzz(func(t *testing.T, src string, a int64, s string, fuel uint16) {
		p, err := Compile(src)
		if err != nil {
			return
		}
		args := map[string]value{
			"a": intVal(a), "b": floatVal(float64(a) / 3), "s": strVal(s), "n": types.Null(types.KindInt64),
			"x": boolVal(a%2 == 0), "y": types.Binary([]byte(s)), "d": types.Date(a % 100_000),
			"t": types.Timestamp(a), "z": types.Null(types.KindNull),
		}
		checkAgainstOracle(t, p, corpusCase{src: src, args: args}, int(fuel))
		checkRowsAgainstOracle(t, p, src, args, nil, int(fuel))
	})
}

// A numeric crossing costs its Set and nothing per row.
func TestFrameCallsAllocateNothingPerRow(t *testing.T) {
	p, err := Compile("return a + b")
	if err != nil {
		t.Fatal(err)
	}
	f := p.Bind([]string{"a", "b"})
	cols := func(n int) []*types.Column {
		a, b := make([]int64, n), make([]int64, n)
		for i := range a {
			a[i], b[i] = int64(i), int64(2*i)
		}
		return []*types.Column{types.NewInt64Column(types.KindInt64, a, nil), types.NewInt64Column(types.KindInt64, b, nil)}
	}
	crossing := func(cols []*types.Column) float64 {
		n := cols[0].Len()
		out := []*types.Builder{types.NewBuilder(types.KindInt64, n)}
		return testing.AllocsPerRun(20, func() {
			s := NewSet([]Call{{Name: "add", Func: f, ArgCols: []int{0, 1}, Result: types.KindInt64}}, nil)
			out[0].Reset(n)
			if err := s.Run(cols, n, DefaultFuel, out); err != nil {
				t.Fatal(err)
			}
			if got := out[0].Build(); got.Len() != n || got.Int64(n-1) != int64(3*(n-1)) {
				t.Fatalf("result %d rows, last %d", got.Len(), got.Int64(n-1))
			}
		})
	}
	small, large := crossing(cols(16)), crossing(cols(1024))
	if large > small {
		t.Errorf("1024-row crossing made %.0f allocations, 16-row %.0f", large, small)
	}
}

// Set.Run appends a result already of its declared kind without a cast,
// casts one of another kind as Value.Cast does, and names the function and
// row of a result that does not cast.
func TestSetCastsResultsToDeclaredKind(t *testing.T) {
	p, err := Compile("return a if is_null(a) or a > 1 else str(a) + 'x'")
	if err != nil {
		t.Fatal(err)
	}
	args := []*types.Column{types.ColumnFromValues(types.KindInt64, []value{intVal(5), types.Null(types.KindInt64), intVal(2), intVal(0)})}
	run := func(kind types.Kind, n int) (*types.Column, error) {
		out := []*types.Builder{types.NewBuilder(kind, n)}
		s := NewSet([]Call{{Name: "f", Func: p.Bind([]string{"a"}), ArgCols: []int{0}, Result: kind}}, nil)
		err := s.Run(args, n, DefaultFuel, out)
		return out[0].Build(), err
	}
	got, err := run(types.KindFloat64, 3)
	if err != nil || got.Float64(0) != 5 || !got.IsNull(1) || got.Float64(2) != 2 {
		t.Fatalf("DOUBLE results: %v %v", got, err)
	}
	got, err = run(types.KindString, 4)
	if err != nil || got.StringAt(0) != "5" || got.StringAt(3) != "0x" {
		t.Fatalf("STRING results: %v %v", got, err)
	}
	if _, err = run(types.KindInt64, 4); err == nil || err.Error() != `udf f at row 3: result 0x not a BIGINT` {
		t.Fatalf("cast error = %v", err)
	}
}

func TestSubstrClampsBounds(t *testing.T) {
	cases := map[string]string{
		"return substr('hello', 0, -1)":  "",
		"return substr('hello', -3, 2)":  "he",
		"return substr('hello', 4, 1)":   "",
		"return substr('hello', 2, 99)":  "llo",
		"return substr('hello', 9, 12)":  "",
		"return substr('hello', -9, -2)": "",
	}
	for src, want := range cases {
		if v := run(t, src, nil); v.S != want {
			t.Errorf("%s = %q, want %q", src, v.S, want)
		}
	}
}

// String growth is refused before the allocation. A single growing step
// allocates nothing on refusal; the doubling loop pays only for the strings
// it was allowed to build.
func TestStringGrowthRefusedBeforeAllocating(t *testing.T) {
	for src, budget := range map[string]uint64{
		"return 'a' * 1000000000000":                             1 << 20,
		"return 'abcd' * 5000000":                                1 << 20,
		"return s * 3000":                                        1 << 20,
		"return replace(s, 'a', s)":                              1 << 20,
		"h = 'ab'\nfor i in range(40):\n    h = h + h\nreturn h": 4 * MaxStringBytes,
	} {
		p, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		args := map[string]value{"s": strVal(strings.Repeat("a", 1<<13))}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = p.Call(args, nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrStringTooLong) {
			t.Errorf("%q: err = %v, want ErrStringTooLong", src, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > budget {
			t.Errorf("%q allocated %d bytes before refusing (budget %d)", src, grew, budget)
		}
	}
	// Exactly the limit still works.
	if v := run(t, "return len('ab' * 8388608)", nil); v.I != MaxStringBytes {
		t.Errorf("len = %v", v)
	}
}

func TestSha256AllocatesOnlyItsResult(t *testing.T) {
	fr := mustBind(t, "return sha256(s)", "s").NewFrame(nil)
	fr.SetArg(0, strVal(strings.Repeat("x", 64)))
	if n := testing.AllocsPerRun(50, func() { _, _ = fr.Call(DefaultFuel) }); n != 1 {
		t.Errorf("sha256 made %.0f allocations, want 1", n)
	}
}

// Bind resolves each name once: a repeated parameter name binds one slot
// (the later argument wins), a parameter may be reassigned, and a name
// nothing binds fails when read.
func TestBindSlots(t *testing.T) {
	fr := mustBind(t, "a = a + 1\nreturn a * 10 + b", "a", "b", "a").NewFrame(nil)
	fr.SetArg(0, intVal(1))
	fr.SetArg(1, intVal(2))
	fr.SetArg(2, intVal(5))
	if v, err := fr.Call(DefaultFuel); err != nil || v.I != 62 {
		t.Errorf("got %v %v", v, err)
	}
	fr = mustBind(t, "if a > 0:\n    y = a\nreturn y", "a").NewFrame(nil)
	fr.SetArg(0, intVal(1))
	if v, err := fr.Call(DefaultFuel); err != nil || v.I != 1 {
		t.Errorf("defined: %v %v", v, err)
	}
	// The next call on the same frame starts with no locals defined.
	fr.SetArg(0, intVal(0))
	if _, err := fr.Call(DefaultFuel); err == nil || !strings.Contains(err.Error(), `"y" is not defined`) {
		t.Errorf("undefined on reuse: %v", err)
	}
}

func mustBind(t *testing.T, src string, names ...string) *Func {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return p.Bind(names)
}

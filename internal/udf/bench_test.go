package udf

import (
	"testing"

	"lakeguard/internal/types"
)

// benchCall binds src to names once and calls it b.N times on one frame,
// the way a crossing runs each row.
func benchCall(b *testing.B, src string, names []string, args ...value) {
	p, err := Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	fr := p.Bind(names).NewFrame(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ai, v := range args {
			fr.SetArg(ai, v)
		}
		if _, err := fr.Call(DefaultFuel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimpleUDF(b *testing.B) {
	benchCall(b, "return a + b", []string{"a", "b"}, intVal(3), intVal(4))
}

func BenchmarkHashUDF100Iterations(b *testing.B) {
	benchCall(b, "h = s\nfor i in range(100):\n    h = sha256(h)\nreturn h", []string{"s"}, types.String("seed"))
}

func BenchmarkCompile(b *testing.B) {
	src := `
total = 0.0
for i in range(10):
    if i % 2 == 0:
        total = total + i
    else:
        total = total - i
return total
`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

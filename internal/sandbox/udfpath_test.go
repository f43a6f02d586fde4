package sandbox

import (
	"context"
	"strings"
	"testing"

	"lakeguard/internal/types"
	"lakeguard/internal/udf"
)

// Argument errors that used to panic the interpreter are ordinary results
// or user errors now: the sandbox answers, stays healthy and serves the
// next crossing instead of being poisoned.
func TestArgumentEdgesKeepSandboxHealthy(t *testing.T) {
	sb := New("alice", Config{})
	defer sb.Close()
	spec := UDFSpec{Name: "cut", Body: "return substr(str(b), 0, -1) + '|' + substr(str(b), 1, 99)",
		ArgNames: []string{"a", "b"}, ArgCols: []int{0, 1}, ResultKind: types.KindString}
	out, err := sb.Execute(context.Background(), &Request{Specs: []UDFSpec{spec}, Args: argBatch(3)})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"|", "|0", "|0"} {
		if got := out.Cols[0].StringAt(i); got != want {
			t.Errorf("row %d = %q, want %q", i, got, want)
		}
	}
	for _, body := range []string{
		"return 'a' * 1000000000000",
		"h = str(a)\nfor i in range(40):\n    h = h + h + h\nreturn h",
	} {
		bomb := UDFSpec{Name: "bomb", Body: body, ArgNames: []string{"a"}, ArgCols: []int{0}, ResultKind: types.KindString}
		_, err := sb.Execute(context.Background(), &Request{Specs: []UDFSpec{bomb}, Args: argBatch(1)})
		if err == nil || !strings.Contains(err.Error(), "byte limit") {
			t.Fatalf("%q: err = %v, want the string limit", body, err)
		}
		if sb.Poisoned() {
			t.Fatalf("%q poisoned the sandbox: %s", body, sb.PoisonReason())
		}
	}
	if _, err := sb.Execute(context.Background(), &Request{Specs: []UDFSpec{sumSpec()}, Args: argBatch(2)}); err != nil {
		t.Fatalf("sandbox dead after user errors: %v", err)
	}
}

// A crossing's interpreter cost is per batch, not per row: serving 1,024
// rows makes no more allocations than serving 16.
func TestCrossingAllocationsIndependentOfRows(t *testing.T) {
	in := newInterpreter(nil, udf.DefaultFuel)
	allocs := func(rows int) float64 {
		payload, err := appendRequest(nil, &Request{Specs: []UDFSpec{sumSpec()}, Args: argBatch(rows)})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := in.serve(payload); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(16), allocs(1024); large > small {
		t.Errorf("1024-row crossing made %.0f allocations, 16-row %.0f", large, small)
	}
}

package bench

import (
	"strings"
	"testing"
	"time"
)

func TestFormatTable2Layout(t *testing.T) {
	rows := []Table2Row{
		{NumUDFs: 1, SimpleOverheadPct: 9.53, HashOverheadPct: 3.37,
			SimpleIsolated: 100 * time.Millisecond, SimpleUnisolated: 91 * time.Millisecond,
			HashIsolated: 200 * time.Millisecond, HashUnisolated: 193 * time.Millisecond},
		{NumUDFs: 10, SimpleOverheadPct: 12.02, HashOverheadPct: 4.15},
	}
	out := FormatTable2(rows)
	for _, want := range []string{"Num UDF", "Sum(a+b)", "100x SHA256", "9.53%", "12.02%", "Raw timings"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable2 missing %q:\n%s", want, out)
		}
	}
}

func TestOverheadPct(t *testing.T) {
	if got := overheadPct(110*time.Millisecond, 100*time.Millisecond); got < 9.9 || got > 10.1 {
		t.Errorf("overhead = %f", got)
	}
	if overheadPct(1, 0) != 0 {
		t.Error("zero baseline should yield 0")
	}
}

func TestMedian(t *testing.T) {
	ts := []time.Duration{5, 1, 3}
	if median(ts) != 3 {
		t.Errorf("median = %v", median(ts))
	}
	if median([]time.Duration{7}) != 7 {
		t.Error("single median")
	}
}

func TestUDFQueryRendering(t *testing.T) {
	q := UDFQuery([]string{"udf0", "udf1"})
	want := "SELECT udf0(a, b) AS r0, udf1(a, b) AS r1 FROM pairs"
	if q != want {
		t.Errorf("q = %q", q)
	}
}

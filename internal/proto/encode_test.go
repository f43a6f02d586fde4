package proto

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// Encoding 10,000 nested Filters allocates a small multiple of the bytes it
// outputs: submessages are written in place and their lengths filled in
// once, so no level copies the levels below it. Allocation is read
// process-wide, so the smallest of several windows is the one compared.
func TestEncodeLinearInNestingDepth(t *testing.T) {
	deep := filterChain(10_000)
	out := len(mustEncode(t, deep))
	least := math.Inf(1)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustEncode(t, deep)
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc))
	}
	t.Logf("%d output bytes, %.0f allocated", out, least)
	if bound := float64(32 * out); least > bound {
		t.Errorf("encoding 10,000 nested Filters (%d bytes) allocated %.0f bytes, want at most %.0f", out, least, bound)
	}
}

// The in-place encoder writes the bytes the copying one did: length
// prefixes of one, two and three bytes, a command and a root plan's flags.
func TestEncodingBytesUnchanged(t *testing.T) {
	long := plan.Lit(types.String(strings.Repeat("x", 300)))
	deep := &plan.Filter{Cond: plan.Eq(plan.Col("a"), long), Child: filterChain(200)}
	for _, c := range []struct {
		name string
		plan *Plan
		want string
	}{
		{"sample", &Plan{Relation: samplePlan(), AllowSpill: true, WorkloadEnv: "w"}, "8f3fb5ef825965faceec1c25639237bcaac62796c0374fde4ecc6bcdf72111b1"},
		{"deep", &Plan{Command: &Command{CreateTempView: &CreateTempView{Name: "v", Input: deep}}}, "51e90f9c7065744fa0a9317366126f9d8a3e8d376433b1f5ae85fd7e6b7adf85"},
	} {
		data, err := EncodeRootPlan(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: %d bytes with digest %s, want %s", c.name, len(data), got, c.want)
		}
	}
}

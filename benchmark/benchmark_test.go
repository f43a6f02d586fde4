package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"lakeguard/internal/types"
)

func quickOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 5, seconds: 0.3, trace: trace, quick: true, tmpDir: t.TempDir()}
}

// TestQuickSmoke runs every workload at -quick size, untraced and traced, and
// checks that each run reports exactly the metrics BENCHMARK.json promises,
// each with its unit, that the oracles pass, and that every read class was
// replayed with the rows the client got.
func TestQuickSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(quickOptions(t, wl.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d statements failed: %s", wl.name, trace, rep.Failed, rep.Attempted, rep.FirstErr)
			}
			defs := endToEnd
			if trace {
				defs = perLayer()
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit || m.Unit == "" {
					t.Errorf("%s trace=%v: metric %s reported as %+v, want unit %q", wl.name, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if rep.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", wl.name, d.name, rep.Metrics[d.name].Value)
					}
				}
				continue
			}
			for _, c := range wl.classes {
				if !c.dml && rep.Replayed[c.name] != rep.Traced[c.name] {
					t.Errorf("%s: %d of %d traced %s statements were replayed", wl.name, rep.Replayed[c.name], rep.Traced[c.name], c.name)
				}
			}
			if first := wl.classes[1].name; rep.Replayed[first] == 0 {
				t.Errorf("%s: no %s statement was replayed", wl.name, first)
			}
			var sum float64
			for _, share := range rep.Shares {
				sum += share
			}
			if sum < 99.9 || sum > 100.1 {
				t.Errorf("%s: layer shares and the unattributed rest sum to %.2f%%", wl.name, sum)
			}
		}
	}
}

func TestPerLayerCountWithinContract(t *testing.T) {
	if n := len(perLayer()); n > 128 {
		t.Fatalf("%d per-layer metrics, the contract allows 128", n)
	}
	seen := map[string]bool{}
	for _, d := range append(perLayer(), endToEnd...) {
		if seen[d.name] || len(d.name) > 64 || len(d.unit) > 16 {
			t.Errorf("metric %q (unit %q) is duplicated or too long", d.name, d.unit)
		}
		seen[d.name] = true
	}
}

// TestOracleCatchesWrongAnswer corrupts one statement's expected checksum
// and expects the window to count it as failed.
func TestOracleCatchesWrongAnswer(t *testing.T) {
	b := eventGen{seed: 1, n: 10, rowsPerFile: 10, cats: 2}.batches(0, 10)[0]
	var dg digester
	good := dg.batch(b)
	if err := expectDigest(good)(b, &dg); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	if err := expectDigest(digest{rows: good.rows, sum: good.sum + 1})(b, &dg); err == nil {
		t.Fatal("wrong checksum accepted")
	}
	if err := expectDigest(digest{rows: good.rows + 1, sum: good.sum})(b, &dg); err == nil {
		t.Fatal("wrong row count accepted")
	}

	e, err := setup(findWorkload("governed_scan"), quickOptions(t, "governed_scan", false))
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	round := e.inst.round
	e.inst.round = func(c, r int) []stmt {
		stmts := round(c, r)
		stmts[0].check = expectDigest(digest{rows: 8, sum: 42})
		return stmts
	}
	first := e.rounds
	res := e.window(func(c int) bool { return e.rounds[c] < first[c]+2 }, nil)
	if want := 2 * numClients; res.failed != want {
		t.Fatalf("%d statements failed, want the %d corrupted ones (first error: %s)", res.failed, want, res.firstErr)
	}
}

// TestDigestModelAgreesWithBatches checks that the oracle's row-wise digest
// and the column-wise digest of a result batch are the same function.
func TestDigestModelAgreesWithBatches(t *testing.T) {
	g := eventGen{seed: 9, n: 500, rowsPerFile: 500, cats: 3}
	b := g.batches(0, 500)[0]
	rows := make([][]types.Value, 0, 500)
	for i := int64(0); i < 500; i++ {
		e := g.row(i)
		rows = append(rows, []types.Value{
			types.Int64(e.id), types.String(e.region), types.String(e.cat), types.Int64(e.dim),
			types.Int64(e.v), types.String(e.email), types.Float64(e.amount),
		})
	}
	var dg digester
	if got, want := dg.batch(b), digestRows(rows); got != want {
		t.Fatalf("batch digest %v, model digest %v", got, want)
	}
}

func TestSelfTimesUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60}, // overlaps span 1
		{ID: 3, Parent: 2, Start: 35, End: 45},
		{ID: 4, Parent: 0, Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{0: 40, 1: 30, 2: 20, 3: 10, 4: 30} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
}

// TestSpanSelfTimesSumToRoot traces real statements and checks that, in
// every statement's tree of sequential spans, the self times add up to the
// root's duration within 1%. The server-side connect.handle span and the
// parallel catalog reads overlap their siblings by design and are left out.
func TestSpanSelfTimesSumToRoot(t *testing.T) {
	e, err := setup(findWorkload("governed_scan"), quickOptions(t, "governed_scan", true))
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	rec := newRecorder(0, time.Now())
	tcs := []*tracedClient{newTracedClient(e, 0, rec), newTracedClient(e, 1, newRecorder(1, time.Now()))}
	first := e.rounds
	if res := e.window(func(c int) bool { return e.rounds[c] < first[c]+3 }, tcs); res.failed > 0 {
		t.Fatal(res.firstErr)
	}
	var spans []span
	remap := map[int]int{}
	for _, s := range rec.finished() {
		if s.Name == "connect.handle" || strings.HasPrefix(s.Name, "catalog.") {
			continue
		}
		remap[s.ID] = len(spans)
		spans = append(spans, s)
	}
	for i := range spans {
		spans[i].ID = i
		if spans[i].Parent >= 0 {
			spans[i].Parent = remap[spans[i].Parent]
		}
	}
	self := selfTimes(spans)
	rootOf := func(s span) int {
		for s.Parent >= 0 {
			s = spans[s.Parent]
		}
		return s.ID
	}
	sums := map[int]int64{}
	for _, s := range spans {
		sums[rootOf(s)] += self[s.ID]
	}
	if len(sums) == 0 {
		t.Fatal("no spans recorded")
	}
	for root, sum := range sums {
		dur := spans[root].End - spans[root].Start
		if diff := sum - dur; diff > dur/100 || diff < -dur/100 {
			t.Errorf("%s of statement %d: self times sum to %d ns, root lasted %d ns", spans[root].Name, spans[root].Stmt, sum, dur)
		}
	}
}

func TestSpreadIsPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(v); got != 1 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(p50 ...float64) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, wl := range workloads {
			m := map[string][]float64{"error_share": {0}}
			for _, d := range endToEnd {
				m[d.name] = []float64{100, 100, 100}
			}
			m["round_p50_ms"] = p50
			out[wl.name] = m
		}
		return out
	}
	var buf bytes.Buffer
	if code := compareSets(&buf, set(100, 101, 102), set(103, 104, 105)); code != 0 {
		t.Errorf("3%% worse within a 25%% bound: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareSets(&buf, set(100, 101, 102), set(140, 141, 142)); code != 1 || !strings.Contains(buf.String(), "BREACH") {
		t.Errorf("40%% worse: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareSets(&buf, set(60, 100, 150), set(100, 101, 102)); code != 0 || !strings.Contains(buf.String(), "unresolved") {
		t.Errorf("a set noisier than the bound: exit %d\n%s", code, buf.String())
	}
}

// TestBenchmarkJSONAgrees checks BENCHMARK.json at the repository root
// against the metric and workload lists compiled into the benchmark.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above the benchmark directory")
	}
	type metricJSON struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d compiled in", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name || spec.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, compiled in %q", i, spec.Workloads[i], wl.name)
		}
	}
	check := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d compiled in", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, compiled in %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}

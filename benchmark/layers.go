package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"lakeguard/internal/sandbox"
	"lakeguard/internal/types"
)

// metricDef names one metric and its unit. endToEnd and perLayer are the two
// lists BENCHMARK.json carries; a run reports exactly one of them.
type metricDef struct {
	name, unit string
	better     string  // "lower" unless set
	bound      float64 // end-to-end only: tolerated relative worsening
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "queries_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "round_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "round_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_query", unit: "ms", better: "lower", bound: 0.25},
	{name: "alloc_kb_per_query", unit: "KiB", better: "lower", bound: 0.10},
}

// higherIsBetter lists the per-layer metrics where more is better; every
// other one is better lower.
var higherIsBetter = map[string]bool{
	"exec.vectorized_share": true, "eval.compile_vec_ok_share": true,
	"exec.files_pruned": true, "exec.rf_files_pruned": true, "exec.rf_rows_filtered": true,
	"catalog.batch_cache_hit_share": true, "delta.snapshot_cache_hit_share": true,
	"sandbox.rows_per_s": true, "sandbox.reuses": true, "udf.calls_per_crossing": true,
}

// Times are per statement: the class medians weighted by how often each
// class occurs in a round. Counts taken around the untraced half are per
// round, so they do not depend on how many rounds fitted into it.
var perLayerFixed = []metricDef{
	{name: "connect.first_byte_ms", unit: "ms"}, {name: "connect.client_decode_ms", unit: "ms"}, {name: "connect.release_ms", unit: "ms"},
	{name: "connect.handler_ms", unit: "ms"}, {name: "connect.transport_ms", unit: "ms"},
	{name: "connect.http_self_ms", unit: "ms"}, {name: "connect.result_bytes", unit: "B"},
	{name: "proto.encode_us", unit: "us"}, {name: "proto.decode_us", unit: "us"}, {name: "proto.plan_bytes", unit: "B"},
	{name: "arrowipc.encode_ms", unit: "ms"}, {name: "arrowipc.decode_ms", unit: "ms"}, {name: "arrowipc.bytes_per_row", unit: "B"},
	{name: "admission.acquire_us", unit: "us"}, {name: "admission.sheds", unit: "count"}, {name: "admission.queued", unit: "count"},
	{name: "gateway.execute_ms", unit: "ms"}, {name: "gateway.self_us", unit: "us"},
	{name: "core.execute_ms", unit: "ms"}, {name: "core.self_us", unit: "us"}, {name: "core.policy_overhead_x", unit: "x"},
	{name: "sql.parse_us", unit: "us"}, {name: "analyzer.analyze_us", unit: "us"}, {name: "optimizer.optimize_us", unit: "us"},
	{name: "sentinel.verify_us", unit: "us"}, {name: "sentinel.seal_us", unit: "us"}, {name: "sentinel.check_us", unit: "us"},
	{name: "audit.events_per_query", unit: "count"}, {name: "audit.dropped", unit: "count"},
	{name: "systemtables.spooled", unit: "1/round"}, {name: "systemtables.dropped", unit: "count"}, {name: "systemtables.flush_errors", unit: "count"},
	{name: "exec.execute_ms", unit: "ms"}, {name: "exec.self_ms", unit: "ms"},
	{name: "exec.op.scan_ms", unit: "ms"}, {name: "exec.op.filter_ms", unit: "ms"}, {name: "exec.op.project_ms", unit: "ms"}, {name: "exec.op.secureview_ms", unit: "ms"},
	{name: "exec.op.agg_ms", unit: "ms"}, {name: "exec.op.join_ms", unit: "ms"}, {name: "exec.op.sort_ms", unit: "ms"},
	{name: "exec.rows_scanned", unit: "count"}, {name: "exec.rows_out", unit: "count"}, {name: "exec.rows_scanned_per_row_out", unit: "x"},
	{name: "exec.vectorized_share", unit: "share"}, {name: "exec.files_scanned", unit: "count"}, {name: "exec.files_pruned", unit: "count"},
	{name: "exec.rf_files_pruned", unit: "count"}, {name: "exec.rf_rows_filtered", unit: "count"}, {name: "exec.spill_bytes", unit: "B"},
	{name: "eval.compile_vec_ok_share", unit: "share"},
	{name: "catalog.open_snapshot_us", unit: "us"}, {name: "catalog.read_file_us", unit: "us"}, {name: "catalog.batch_cache_hit_share", unit: "share"},
	{name: "catalog.vends", unit: "1/round"}, {name: "catalog.denials", unit: "count"},
	{name: "delta.snapshot_cache_hit_share", unit: "share"}, {name: "delta.entries_replayed", unit: "1/round"}, {name: "delta.commit_ms", unit: "ms"},
	{name: "delta.commit_retries", unit: "count"}, {name: "delta.checkpoint_writes", unit: "count"}, {name: "delta.data_files_end", unit: "count"},
	{name: "storage.gets", unit: "1/round"}, {name: "storage.get_bytes", unit: "B/round"}, {name: "storage.puts", unit: "1/round"}, {name: "storage.put_bytes", unit: "B/round"},
	{name: "storage.lists", unit: "1/round"}, {name: "storage.heads", unit: "1/round"},
	{name: "storage.bytes_decoded_per_byte_returned", unit: "x"}, {name: "storage.bytes_stored_per_user_byte", unit: "x"},
	{name: "sandbox.crossings", unit: "1/round"}, {name: "sandbox.crossing_ms", unit: "ms"}, {name: "sandbox.rows_per_s", unit: "1/s"},
	{name: "sandbox.cold_starts", unit: "count"}, {name: "sandbox.reuses", unit: "1/round"}, {name: "sandbox.overhead_x", unit: "x"},
	{name: "sandbox.overhead_vs_inproc_x", unit: "x"}, {name: "udf.calls_per_crossing", unit: "count"},
	{name: "proc.peak_rss_mb", unit: "MiB"}, {name: "proc.gc_cycles", unit: "count"}, {name: "proc.gc_pause_total_ms", unit: "ms"}, {name: "proc.heap_inuse_end_mb", unit: "MiB"},
	{name: "bench.trace_overhead_pct", unit: "%"}, {name: "bench.unattributed_pct", unit: "%"},
}

// perLayer is perLayerFixed plus one client.<class>.p50_ms per statement
// class of any workload (0 for the classes of other workloads).
func perLayer() []metricDef {
	out := append([]metricDef(nil), perLayerFixed...)
	for _, c := range allClasses() {
		out = append(out, metricDef{name: "client." + c + ".p50_ms", unit: "ms"})
	}
	for i := range out {
		out[i].better = "lower"
		if higherIsBetter[out[i].name] {
			out[i].better = "higher"
		}
	}
	return out
}

// windowCounters are the production counters read as deltas around the
// untraced half of a traced run.
var windowCounters = []string{
	"admission.queued", "admission.shed", "audit.dropped",
	"batch.cache.hits", "batch.cache.misses", "catalog.denials", "catalog.vends",
	"delta.checkpoint.writes", "delta.commit.retries",
	"snapshot.cache.hit", "snapshot.cache.miss", "snapshot.entries.replayed",
	"storage.get_bytes", "storage.get_ops", "storage.head_ops", "storage.list_ops",
	"storage.put_bytes", "storage.put_ops",
	"systemtables.dropped", "systemtables.flush_errors", "systemtables.spooled",
	"sandbox.cold_starts", "sandbox.reuses",
}

func (w *world) counters() map[string]float64 {
	out := make(map[string]float64, len(windowCounters))
	for _, name := range windowCounters {
		out[name] = float64(w.metrics.Counter(name).Value())
	}
	return out
}

// stages are the spans of the in-process replay that together make up what
// core.Server.Execute does for a read, in order.
var stages = []string{
	"sql.parse", "analyzer.analyze", "optimizer.optimize",
	"sentinel.verify", "sentinel.seal", "sentinel.check", "exec.execute",
}

// tracedRun is the run behind --trace 1. The first half of the window is the
// plain closed loop: it yields the per-class client latencies, the untraced
// round p50 and the counter deltas. The second half runs the same rounds
// through the staged client and the staged replay.
func (e *env) tracedRun(window time.Duration, opt options, rep *report) (*windowResult, error) {
	w := e.world
	before := w.counters()
	audit0 := w.audit.Seq()
	plain := e.window(untilDeadline(window/2), nil)
	after := w.counters()
	auditEvents := float64(w.audit.Seq() - audit0)
	if len(plain.roundsMS) == 0 {
		return plain, nil // the caller reports the window as too short
	}

	t0 := time.Now()
	var tcs []*tracedClient
	for c := 0; c < numClients; c++ {
		tc := newTracedClient(e, c, newRecorder(c, t0))
		defer tc.close()
		tcs = append(tcs, tc)
	}
	sink := handleSink(tcs)
	w.handled.Store(&sink)
	traced := e.window(untilDeadline(window/2), tcs)
	w.handled.Store(nil)

	tr, spans := foldTraces(tcs, plain, rep)
	if opt.traceOut != "" {
		if err := writeSpanFile(opt.traceOut, spans); err != nil {
			return nil, err
		}
	}
	if err := e.layerMetrics(rep, tr, plain, traced, before, after, auditEvents); err != nil {
		return nil, err
	}
	// Both halves count towards attempted and failed.
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	if plain.firstErr != "" {
		traced.firstErr = plain.firstErr
	}
	return traced, nil
}

// traces is the traced half folded down: per statement class, the median of
// every span duration ("dur:<span>"), span self time ("self:<span>") and
// count over the class's traced statements, in ns and units.
type traces struct {
	med map[string]map[string]float64
	// weight is how often a class occurs in a round, stmts their sum.
	weight map[string]float64
	stmts  float64
}

// mix is the per-statement value of the given keys over the round's class
// mix: the class medians weighted by how often each class occurs.
func (t *traces) mix(keys ...string) float64 {
	var s float64
	for class, wt := range t.weight {
		for _, k := range keys {
			s += wt * t.med[class][k]
		}
	}
	return s / t.stmts
}

func foldTraces(tcs []*tracedClient, plain *windowResult, rep *report) (*traces, []span) {
	rep.Replayed, rep.Traced = map[string]int{}, map[string]int{}
	byClass := map[string]map[string][]float64{}
	add := func(class, key string, v float64) {
		m := byClass[class]
		if m == nil {
			m = map[string][]float64{}
			byClass[class] = m
		}
		m[key] = append(m[key], v)
	}
	var all []span
	for _, tc := range tcs {
		spans := tc.rec.finished()
		all = append(all, spans...)
		for _, st := range foldStatements(spans) {
			for name, d := range st.dur {
				add(st.class, "dur:"+name, float64(d))
			}
			for name, d := range st.self {
				add(st.class, "self:"+name, float64(d))
			}
		}
		for _, st := range tc.stmts {
			for k, v := range st.c {
				add(st.class, k, v)
			}
			rep.Traced[st.class]++
			if st.c["replayed"] > 0 {
				rep.Replayed[st.class]++
			}
		}
	}
	tr := &traces{med: map[string]map[string]float64{}, weight: map[string]float64{}}
	for class, m := range byClass {
		tr.med[class] = map[string]float64{}
		for k, v := range m {
			tr.med[class][k] = median(v)
		}
	}
	for class, n := range plain.classN {
		tr.weight[class] = float64(n) / float64(len(plain.roundsMS))
		tr.stmts += tr.weight[class]
	}
	return tr, all
}

func writeSpanFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = writeSpans(f, spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// layerSplit splits one class's client-observed latency over layers, from
// the class medians m. The top level is measured on the statement's own
// execution: plan encode, time in the Connect handler (server side),
// transport (what the client waited beyond the handler), concat, release.
// The handler's inside comes from the replay, a separate execution, so what
// the replayed stages do not explain stays unattributed.
func layerSplit(m map[string]float64, dml bool) map[string]float64 {
	waited := m["dur:connect.execute"] + m["dur:connect.read_stream"]
	l := map[string]float64{
		"proto":           m["dur:proto.encode"] + m["dur:proto.decode"],
		"admission":       m["dur:admission.acquire"],
		"arrowipc":        m["dur:arrowipc.encode"] + m["dur:arrowipc.decode"] + m["dur:arrowipc.concat"],
		"connect.release": m["dur:connect.release"],
		// The client decodes while it reads, so pure decode time (from the
		// replay) is part of what it waited and is named above.
		"connect.transport": max(0, waited-m["dur:connect.handle"]-m["dur:arrowipc.decode"]),
	}
	if dml {
		// DML is timed whole at core.Server.Execute; the scratch append says
		// how much of that is the commit path.
		l["delta.commit"] = min(m["dur:delta.commit"], m["dur:core.execute"])
		l["core"] = m["dur:core.execute"] - l["delta.commit"]
		return l
	}
	var staged float64
	for _, s := range stages {
		staged += m["dur:"+s]
	}
	l["gateway"] = max(0, m["dur:gateway.execute"]-m["dur:core.execute"])
	l["core"] = max(0, m["dur:core.execute"]-staged)
	l["plan"] = staged - m["dur:exec.execute"]
	l["exec"] = m["self:exec.execute"]
	l["catalog"] = m["dur:exec.execute"] - m["self:exec.execute"]
	if inproc, ok := m["dur:exec.execute_inproc"]; ok {
		// In a UDF statement the projection and aggregation operators do
		// nothing but call user functions (the noudf twin's whole execution
		// is a twentieth of theirs), so their self time is user-code time:
		// what the isolation boundary adds over running the same code inside
		// the engine is the sandbox's, the rest is the interpreter's.
		l["sandbox"] = min(l["exec"], max(0, m["dur:exec.execute"]-inproc))
		l["udf"] = min(l["exec"]-l["sandbox"], max(0, m["op:agg"]+m["op:project"]-l["sandbox"]))
		l["exec"] -= l["sandbox"] + l["udf"]
	}
	return l
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills rep with every per-layer metric and the layer shares.
func (e *env) layerMetrics(rep *report, tr *traces, plain, traced *windowResult, before, after map[string]float64, auditEvents float64) error {
	put := rep.putter(perLayer())
	n := traced.attempted
	nRounds := len(plain.roundsMS)
	rounds := float64(nRounds)
	delta := func(name string) float64 { return after[name] - before[name] }
	perRound := func(name string) float64 { return delta(name) / rounds }
	share := func(hit, miss string) float64 { return ratio(delta(hit), delta(hit)+delta(miss)) }
	us := func(span string) float64 { return tr.mix("dur:"+span) / 1e3 }
	ms := func(span string) float64 { return tr.mix("dur:"+span) / 1e6 }

	isDML := map[string]bool{}
	for _, c := range e.wl.classes {
		isDML[c.name] = c.dml
	}
	layers := map[string]float64{} // ns per round
	var total float64
	for class, wt := range tr.weight {
		for k, v := range layerSplit(tr.med[class], isDML[class]) {
			layers[k] += wt * v
		}
		total += wt * tr.med[class]["dur:client.stmt"]
	}
	rep.Shares = map[string]float64{"unattributed": 100}
	for k, v := range layers {
		rep.Shares[k] = 100 * v / total
		rep.Shares["unattributed"] -= rep.Shares[k]
	}

	put("connect.first_byte_ms", ms("connect.execute"), n)
	put("connect.client_decode_ms", ms("connect.read_stream")+ms("arrowipc.concat"), n)
	put("connect.release_ms", ms("connect.release"), n)
	put("connect.handler_ms", ms("connect.handle"), n)
	put("connect.transport_ms", layers["connect.transport"]/tr.stmts/1e6, n)
	put("connect.http_self_ms", ms("client.stmt")-ms("gateway.execute"), n)
	put("connect.result_bytes", tr.mix("result_bytes"), n)
	put("proto.encode_us", us("proto.encode"), n)
	put("proto.decode_us", us("proto.decode"), n)
	put("proto.plan_bytes", tr.mix("plan_bytes"), n)
	put("arrowipc.encode_ms", ms("arrowipc.encode"), n)
	put("arrowipc.decode_ms", ms("arrowipc.decode"), n)
	put("arrowipc.bytes_per_row", ratio(tr.mix("result_bytes"), tr.mix("result_rows")), n)
	put("admission.acquire_us", us("admission.acquire"), n)
	put("admission.sheds", delta("admission.shed"), 0)
	put("admission.queued", delta("admission.queued"), 0)
	put("gateway.execute_ms", ms("gateway.execute"), n)
	put("gateway.self_us", layers["gateway"]/tr.stmts/1e3, n)
	put("core.execute_ms", ms("core.execute"), n)
	put("core.self_us", layers["core"]/tr.stmts/1e3, n)
	var policyX float64
	if g := e.inst.governedTwin; g != nil {
		policyX = ratio(tr.med[g.class]["dur:core.execute"], tr.med[g.class]["dur:core.execute_twin"])
	}
	put("core.policy_overhead_x", policyX, n)
	put("sql.parse_us", us("sql.parse"), n)
	put("analyzer.analyze_us", us("analyzer.analyze"), n)
	put("optimizer.optimize_us", us("optimizer.optimize"), n)
	put("sentinel.verify_us", us("sentinel.verify"), n)
	put("sentinel.seal_us", us("sentinel.seal"), n)
	put("sentinel.check_us", us("sentinel.check"), n)
	put("audit.events_per_query", ratio(auditEvents, float64(plain.attempted)), plain.attempted)
	put("audit.dropped", delta("audit.dropped"), 0)
	put("systemtables.spooled", perRound("systemtables.spooled"), nRounds)
	put("systemtables.dropped", delta("systemtables.dropped"), 0)
	put("systemtables.flush_errors", delta("systemtables.flush_errors"), 0)
	put("exec.execute_ms", ms("exec.execute"), n)
	put("exec.self_ms", tr.mix("self:exec.execute")/1e6, n)
	for _, b := range opBucket {
		put("exec.op."+b+"_ms", tr.mix("op:"+b)/1e6, n)
	}
	put("exec.rows_scanned", tr.mix("rows_scanned"), n)
	put("exec.rows_out", tr.mix("rows_out"), n)
	put("exec.rows_scanned_per_row_out", ratio(tr.mix("rows_scanned"), tr.mix("rows_out")), n)
	put("exec.vectorized_share", ratio(tr.mix("vec_batches"), tr.mix("vec_batches", "row_batches")), n)
	put("exec.files_scanned", tr.mix("files_scanned"), n)
	put("exec.files_pruned", tr.mix("files_pruned"), n)
	put("exec.rf_files_pruned", tr.mix("rf_files_pruned"), n)
	put("exec.rf_rows_filtered", tr.mix("rf_rows_filtered"), n)
	put("exec.spill_bytes", tr.mix("spill_bytes"), n)
	put("eval.compile_vec_ok_share", ratio(tr.mix("vec_exprs_ok"), tr.mix("vec_exprs")), n)
	put("catalog.open_snapshot_us", us("catalog.open_snapshot"), n)
	put("catalog.read_file_us", us("catalog.read_file"), n)
	put("catalog.batch_cache_hit_share", share("batch.cache.hits", "batch.cache.misses"), 0)
	put("catalog.vends", perRound("catalog.vends"), nRounds)
	put("catalog.denials", delta("catalog.denials"), 0)
	put("delta.snapshot_cache_hit_share", share("snapshot.cache.hit", "snapshot.cache.miss"), 0)
	put("delta.entries_replayed", perRound("snapshot.entries.replayed"), nRounds)
	put("delta.commit_ms", ms("delta.commit"), n)
	put("delta.commit_retries", delta("delta.commit.retries"), 0)
	put("delta.checkpoint_writes", delta("delta.checkpoint.writes"), 0)
	files, err := e.dataFiles()
	if err != nil {
		return err
	}
	put("delta.data_files_end", float64(files), 0)
	put("storage.gets", perRound("storage.get_ops"), nRounds)
	put("storage.get_bytes", perRound("storage.get_bytes"), nRounds)
	put("storage.puts", perRound("storage.put_ops"), nRounds)
	put("storage.put_bytes", perRound("storage.put_bytes"), nRounds)
	put("storage.lists", perRound("storage.list_ops"), nRounds)
	put("storage.heads", perRound("storage.head_ops"), nRounds)
	put("storage.bytes_decoded_per_byte_returned", ratio(tr.mix("read_bytes"), tr.mix("result_bytes")), n)
	var storedX float64
	if e.dataDir != "" {
		stored, err := dirBytes(e.dataDir)
		if err != nil {
			return err
		}
		storedX = ratio(float64(stored), e.inst.userBytesPerRow*float64(e.inst.userRows()))
	}
	put("storage.bytes_stored_per_user_byte", storedX, 0)

	crossings := perRound("sandbox.cold_starts") + perRound("sandbox.reuses")
	put("sandbox.crossings", crossings, nRounds)
	put("sandbox.cold_starts", delta("sandbox.cold_starts"), 0)
	put("sandbox.reuses", perRound("sandbox.reuses"), nRounds)
	var calls, crossMS, rowsPerS, overheadX, inprocX float64
	if e.inst.udfCalls != nil {
		for class, wt := range tr.weight {
			calls += wt * float64(e.inst.udfCalls[class])
		}
		if crossMS, err = sandboxCrossingMS(); err != nil {
			return err
		}
		rowsPerS = crossingRows / (crossMS / 1e3)
		overheadX = ratio(median(plain.classMS["udf1"]), median(plain.classMS["noudf"]))
		inprocX = ratio(tr.med["udf1"]["dur:exec.execute"], tr.med["udf1"]["dur:exec.execute_inproc"])
	}
	put("sandbox.crossing_ms", crossMS, crossingRepeats)
	put("sandbox.rows_per_s", rowsPerS, crossingRepeats)
	put("sandbox.overhead_x", overheadX, len(plain.classMS["udf1"]))
	put("sandbox.overhead_vs_inproc_x", inprocX, n)
	put("udf.calls_per_crossing", ratio(calls, crossings), 0)

	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	put("proc.peak_rss_mb", float64(ru.Maxrss)/1024, 0)
	put("proc.gc_cycles", float64(plain.gcCycles), 0)
	put("proc.gc_pause_total_ms", plain.gcPauseMS, 0)
	put("proc.heap_inuse_end_mb", float64(mem.HeapInuse)/(1<<20), 0)

	put("bench.trace_overhead_pct", 100*(ratio(median(traced.roundsMS), median(plain.roundsMS))-1), len(traced.roundsMS))
	put("bench.unattributed_pct", rep.Shares["unattributed"], n)
	for _, c := range allClasses() {
		put("client."+c+".p50_ms", median(plain.classMS[c]), len(plain.classMS[c]))
	}
	return nil
}

// dataFiles counts the live data files of the workload's main table.
func (e *env) dataFiles() (int, error) {
	snap, _, err := e.world.cat.OpenSnapshot(reqCtx(e.inst.mainOwner), e.inst.mainTable, -1)
	if err != nil {
		return 0, err
	}
	return len(snap.Files), nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

const (
	crossingRows    = 8192
	crossingRepeats = 9
)

// sandboxCrossingMS times sandbox.Sandbox.Execute on one 8,192-row batch of
// the simple kernel: one crossing of the isolation boundary, nothing else.
func sandboxCrossingMS() (float64, error) {
	sb := sandbox.New("bench", sandbox.Config{})
	defer sb.Close()
	bb := types.NewBatchBuilder(pairSchema, crossingRows)
	for i := int64(0); i < crossingRows; i++ {
		bb.Column(0).AppendInt64(i)
		bb.Column(1).AppendInt64(i * 7)
	}
	req := &sandbox.Request{
		Specs: []sandbox.UDFSpec{{
			Name: "u0", Body: fmt.Sprintf(simpleUDFBody, 0),
			ArgNames: []string{"a", "b"}, ArgCols: []int{0, 1}, ResultKind: types.KindInt64,
		}},
		Args: bb.Build(),
	}
	var ms []float64
	for i := 0; i < crossingRepeats; i++ {
		t := time.Now()
		if _, err := sb.Execute(context.Background(), req); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t))/1e6)
	}
	return median(ms), nil
}

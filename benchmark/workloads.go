package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lakeguard/internal/arrowipc"
	"lakeguard/internal/catalog"
	"lakeguard/internal/connect"
	"lakeguard/internal/types"
)

// stmt is one statement of a round: what to send, as whom, and how to tell a
// right answer from a wrong one.
type stmt struct {
	class string
	sql   string
	// dml statements go out as SQL commands and change table state; the rest
	// go out as SQL relations, the read path of core.runQueryPhases.
	dml   bool
	token string
	check func(*types.Batch, *digester) error
	// before and after bracket a statement in the generator model (the
	// snapshot-isolation bounds of ingest_churn); after runs only on success.
	before, after func()
	// commitTwin, on an INSERT, returns a scratch table and the very batch
	// the statement writes, for timing the bare commit path (delta.commit_ms).
	commitTwin func() (table []string, batches []*types.Batch)
}

// class describes one statement class of a workload.
type class struct {
	name string
	dml  bool
}

// instance is one prepared workload: seeded tables plus a round generator.
type instance struct {
	tokens []string // principals every client opens a session for
	// initSession runs once per fresh session (UDF registration).
	initSession func(c *connect.Client) error
	// round returns the statements of client's r-th round. Calls for one
	// client are sequential; different clients call concurrently.
	round func(client, r int) []stmt
	// final returns the statement checked after the last round, outside the
	// window.
	final func() stmt
	// mainTable is the fully qualified table whose file count is reported.
	mainTable string
	mainOwner string
	// twin is the ungoverned twin of governedTwin, for core.policy_overhead_x.
	governedTwin, twin *stmt
	// userBytesPerRow and userRows size storage.bytes_stored_per_user_byte.
	userBytesPerRow float64
	userRows        func() int64
	// udfCalls is, per statement class, the number of user-function
	// invocations one execution makes (rows reaching the projection × UDFs).
	udfCalls map[string]int
	// sizes records the seeded tables as "<table>.rows" and "<table>.files".
	sizes map[string]int
}

func (g eventGen) sizes(table string) map[string]int {
	return map[string]int{table + ".rows": g.n, table + ".files": g.n / g.rowsPerFile}
}

func merge(ms ...map[string]int) map[string]int {
	out := map[string]int{}
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

type workload struct {
	name, why  string
	persistent bool
	warmup     int // untimed rounds per client before the window
	classes    []class
	prepare    func(w *world, seed uint64, quick bool) (*instance, error)
}

var workloads = []workload{
	{
		name:   "point_lookup",
		why:    "sub-millisecond governed point reads: the fixed per-query path (HTTP, admission, parse, analyze, verify, seal, audit, spool) dominates and exec is negligible",
		warmup: 50,
		classes: []class{
			{name: "acct_point"}, {name: "acct_agg"}, {name: "open_point"}, {name: "analyst_point"},
		},
		prepare: preparePointLookup,
	},
	{
		name:   "governed_scan",
		why:    "scans behind a row filter and a CASE mask: exec is over 95% of latency and the row-interpreter fallback on policy expressions is the hot spot; the plan path must not show",
		warmup: 3,
		classes: []class{
			{name: "masked_scanagg"}, {name: "governed_point"}, {name: "rf_join"}, {name: "topn"},
		},
		prepare: prepareGovernedScan,
	},
	{
		name:   "result_fetch",
		why:    "large ungoverned results: exec is vectorized and cheap, so Arrow-IPC encode, HTTP transfer, client decode and concat dominate",
		warmup: 5,
		classes: []class{
			{name: "fetch_wide"}, {name: "fetch_narrow"}, {name: "open_scanagg"},
		},
		prepare: prepareResultFetch,
	},
	{
		name:   "udf_sandbox",
		why:    "the paper's Table 2 shape: sandbox crossings, batch ser/de across the boundary and the PyLite interpreter dominate; scan and wire are negligible",
		warmup: 3,
		classes: []class{
			{name: "udf1"}, {name: "udf5_fused"}, {name: "udf_hash"}, {name: "noudf"},
		},
		prepare: prepareUDFSandbox,
	},
	{
		name:       "ingest_churn",
		why:        "writes beside reads on a persistent store: commit CAS, checkpoints, small-file growth and batch-cache misses on fresh files land in the window, so a read-side gain that costs commits shows as a loss",
		persistent: true,
		warmup:     3,
		classes: []class{
			{name: "insert", dml: true}, {name: "ledger_scanagg"}, {name: "dv_delete", dml: true},
			{name: "history_count"}, {name: "optimize", dml: true},
		},
		prepare: prepareIngestChurn,
	},
}

// mutates reports whether the workload's rounds change table state.
func (wl *workload) mutates() bool {
	for _, c := range wl.classes {
		if c.dml {
			return true
		}
	}
	return false
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// allClasses lists every statement class of every workload, in workload
// order; each gets a client.<class>.p50_ms per-layer metric.
func allClasses() []string {
	var out []string
	for _, wl := range workloads {
		for _, c := range wl.classes {
			out = append(out, c.name)
		}
	}
	return out
}

const (
	scanAggSQL = "SELECT cat, SUM(v) AS s, COUNT(*) AS n FROM %s WHERE v > 250 GROUP BY cat"
	pointSQL   = "SELECT id, email, amount FROM %s WHERE id = %d"
)

// scanAggDigest is the oracle for scanAggSQL over rows [0, n) of g as seen by
// a principal; all=true is the ungoverned (or analyst) view.
func scanAggDigest(g eventGen, all bool) digest {
	groups := map[string]*groupAgg{}
	for i := int64(0); i < int64(g.n); i++ {
		e := g.row(i)
		if (all || e.visible()) && e.v > 250 {
			addGroup(groups, e.cat, e.v)
		}
	}
	return digestRows(groupRows(groups))
}

// pointCheck is the oracle for pointSQL on a governed table: a visible row
// comes back with its email masked, a filtered row does not come back.
func pointCheck(e event, analyst bool) func(*types.Batch, *digester) error {
	var rows [][]types.Value
	switch {
	case analyst:
		rows = [][]types.Value{{types.Int64(e.id), types.String(e.email), types.Float64(e.amount)}}
	case e.visible():
		rows = [][]types.Value{{types.Int64(e.id), types.String(redacted), types.Float64(e.amount)}}
	}
	return expectDigest(digestRows(rows))
}

func pick(quick bool, full, small int) int {
	if quick {
		return small
	}
	return full
}

func preparePointLookup(w *world, seed uint64, quick bool) (*instance, error) {
	accounts := eventGen{seed: seed, n: 200, rowsPerFile: 200, cats: 4}
	open := eventGen{seed: seed + 1, n: pick(quick, 20000, 4000), rowsPerFile: pick(quick, 1000, 200), cats: 8}
	if err := createEventTable(w.cat, adminPrincipal, "accounts", accounts, true); err != nil {
		return nil, err
	}
	if err := createEventTable(w.cat, adminPrincipal, "events_open", open, false); err != nil {
		return nil, err
	}
	groups := map[string]*groupAgg{}
	for i := int64(0); i < int64(accounts.n); i++ {
		if e := accounts.row(i); e.visible() {
			addGroup(groups, e.cat, e.v)
		}
	}
	aggCheck := expectDigest(digestRows(groupRows(groups)))
	keys := [numClients]*rng{newRNG(seed, 10), newRNG(seed, 11)}
	return &instance{
		tokens:    []string{"user-token", "analyst-token"},
		mainTable: "main.default.accounts", mainOwner: adminPrincipal,
		sizes: merge(accounts.sizes("accounts"), open.sizes("events_open")),
		round: func(client, _ int) []stmt {
			r := keys[client]
			out := make([]stmt, 0, 8)
			for i := 0; i < 5; i++ {
				e := accounts.row(int64(r.intn(accounts.n)))
				out = append(out, stmt{class: "acct_point", sql: fmt.Sprintf(pointSQL, "accounts", e.id), check: pointCheck(e, false)})
			}
			out = append(out, stmt{class: "acct_agg", sql: "SELECT cat, SUM(v) AS s, COUNT(*) AS n FROM accounts GROUP BY cat", check: aggCheck})
			o := open.row(int64(r.intn(open.n)))
			out = append(out, stmt{
				class: "open_point", sql: fmt.Sprintf("SELECT id, v FROM events_open WHERE id = %d", o.id),
				check: expectDigest(digestRows([][]types.Value{{types.Int64(o.id), types.Int64(o.v)}})),
			})
			a := accounts.row(int64(r.intn(accounts.n)))
			out = append(out, stmt{class: "analyst_point", token: "analyst-token", sql: fmt.Sprintf(pointSQL, "accounts", a.id), check: pointCheck(a, true)})
			return out
		},
	}, nil
}

var dimSchema = types.NewSchema(
	types.Field{Name: "id", Kind: types.KindInt64},
	types.Field{Name: "name", Kind: types.KindString},
)

func prepareGovernedScan(w *world, seed uint64, quick bool) (*instance, error) {
	g := eventGen{seed: seed, n: pick(quick, 40000, 4000), rowsPerFile: pick(quick, 4000, 400), cats: 8}
	if err := createEventTable(w.cat, adminPrincipal, "events", g, true); err != nil {
		return nil, err
	}
	// The ungoverned twin holds the same rows; only the traced run reads it.
	if err := createEventTable(w.cat, adminPrincipal, "events_open", g, false); err != nil {
		return nil, err
	}
	// dims: the eight keys of two adjacent data files, chosen by the seed, so
	// the join's runtime filter prunes every other file whatever the seed.
	files := g.n / g.rowsPerFile
	lo := int64(newRNG(seed, 20).intn(files-1)) * 4
	ctx := reqCtx(adminPrincipal)
	if err := w.cat.CreateTable(ctx, []string{"dims"}, dimSchema, false, ""); err != nil {
		return nil, err
	}
	bb := types.NewBatchBuilder(dimSchema, 8)
	dimName := map[int64]string{}
	for i := int64(0); i < 8; i++ {
		dimName[lo+i] = fmt.Sprintf("d%d", i%4)
		bb.AppendRow([]types.Value{types.Int64(lo + i), types.String(dimName[lo+i])})
	}
	if _, err := w.cat.AppendToTable(ctx, []string{"dims"}, []*types.Batch{bb.Build()}); err != nil {
		return nil, err
	}
	if err := w.cat.Grant(ctx, catalog.PrivSelect, []string{"dims"}, userPrincipal); err != nil {
		return nil, err
	}

	joinGroups := map[string]*groupAgg{}
	var top []event
	for i := int64(0); i < int64(g.n); i++ {
		e := g.row(i)
		if !e.visible() {
			continue
		}
		if name, ok := dimName[e.dim]; ok {
			addGroup(joinGroups, name, e.v)
		}
		top = insertTop(top, e, 10)
	}
	topRows := make([][]types.Value, len(top))
	for i, e := range top {
		topRows[i] = []types.Value{types.Int64(e.id), types.Float64(e.amount)}
	}
	scanAgg := stmt{class: "masked_scanagg", sql: fmt.Sprintf(scanAggSQL, "events"), check: expectDigest(scanAggDigest(g, false))}
	twin := stmt{class: "open_scanagg", sql: fmt.Sprintf(scanAggSQL, "events_open"), check: expectDigest(scanAggDigest(g, true))}
	join := stmt{
		class: "rf_join", sql: "SELECT d.name, SUM(e.v) AS s, COUNT(*) AS n FROM events e JOIN dims d ON e.dim = d.id GROUP BY d.name",
		check: expectDigest(digestRows(groupRows(joinGroups))),
	}
	topn := stmt{class: "topn", sql: "SELECT id, amount FROM events ORDER BY amount DESC LIMIT 10", check: expectDigest(digestRows(topRows))}
	keys := [numClients]*rng{newRNG(seed, 21), newRNG(seed, 22)}
	return &instance{
		tokens:    []string{"user-token"},
		mainTable: "main.default.events", mainOwner: adminPrincipal,
		sizes:        merge(g.sizes("events"), g.sizes("events_open"), map[string]int{"dims.rows": 8, "dims.files": 1}),
		governedTwin: &scanAgg, twin: &twin,
		round: func(client, _ int) []stmt {
			e := g.row(int64(keys[client].intn(g.n)))
			point := stmt{class: "governed_point", sql: fmt.Sprintf(pointSQL, "events", e.id), check: pointCheck(e, false)}
			return []stmt{scanAgg, point, join, topn}
		},
	}, nil
}

// insertTop keeps the k rows of largest amount, descending.
func insertTop(top []event, e event, k int) []event {
	pos := len(top)
	for pos > 0 && top[pos-1].amount < e.amount {
		pos--
	}
	if pos >= k {
		return top
	}
	top = append(top, event{})
	copy(top[pos+1:], top[pos:])
	top[pos] = e
	if len(top) > k {
		top = top[:k]
	}
	return top
}

func prepareResultFetch(w *world, seed uint64, quick bool) (*instance, error) {
	g := eventGen{seed: seed, n: pick(quick, 80000, 4000), rowsPerFile: pick(quick, 8000, 400), cats: 8}
	if err := createEventTable(w.cat, adminPrincipal, "events_open", g, false); err != nil {
		return nil, err
	}
	var wide, narrow digest
	for i := int64(0); i < int64(g.n); i++ {
		e := g.row(i)
		one := digestRows([][]types.Value{{types.Int64(e.id), types.Int64(e.v)}})
		narrow.rows++
		narrow.sum += one.sum
		if e.v < 500 {
			one = digestRows([][]types.Value{{types.Int64(e.id), types.Int64(e.v), types.String(e.email), types.Float64(e.amount)}})
			wide.rows++
			wide.sum += one.sum
		}
	}
	round := []stmt{
		{class: "fetch_wide", sql: "SELECT id, v, email, amount FROM events_open WHERE v < 500", check: expectDigest(wide)},
		{class: "fetch_narrow", sql: "SELECT id, v FROM events_open", check: expectDigest(narrow)},
		{class: "open_scanagg", sql: fmt.Sprintf(scanAggSQL, "events_open"), check: expectDigest(scanAggDigest(g, true))},
	}
	return &instance{
		tokens:    []string{"user-token"},
		mainTable: "main.default.events_open", mainOwner: adminPrincipal,
		round: func(int, int) []stmt { return round },
	}, nil
}

var pairSchema = types.NewSchema(
	types.Field{Name: "a", Kind: types.KindInt64},
	types.Field{Name: "b", Kind: types.KindInt64},
)

// The UDF kernels of the paper's Table 2: a trivial one whose cost is the
// crossing, and 100 rounds of SHA-256 whose cost is the interpreter.
const (
	simpleUDFBody = "return a + b + %d"
	hashUDFBody   = "\nh = str(a)\nfor i in range(100):\n    h = sha256(h)\nreturn h\n"
	fusedUDFs     = 5
)

func prepareUDFSandbox(w *world, seed uint64, quick bool) (*instance, error) {
	n := pick(quick, 10000, 2000)
	rowsPerFile := pick(quick, 2500, 500)
	hashRows := pick(quick, 100, 20)
	ctx := reqCtx(adminPrincipal)
	if err := w.cat.CreateTable(ctx, []string{"pairs"}, pairSchema, false, ""); err != nil {
		return nil, err
	}
	b := func(i int64) int64 { return int64(splitmix64(seed^uint64(i)) % 1000) }
	var batches []*types.Batch
	var sum int64
	for lo := 0; lo < n; lo += rowsPerFile {
		bb := types.NewBatchBuilder(pairSchema, rowsPerFile)
		for i := int64(lo); i < int64(lo+rowsPerFile); i++ {
			bb.Column(0).AppendInt64(i)
			bb.Column(1).AppendInt64(b(i))
			sum += i + b(i)
		}
		batches = append(batches, bb.Build())
	}
	if _, err := w.cat.AppendToTable(ctx, []string{"pairs"}, batches); err != nil {
		return nil, err
	}
	if err := w.cat.Grant(ctx, catalog.PrivSelect, []string{"pairs"}, userPrincipal); err != nil {
		return nil, err
	}
	// The hashed range starts at a seeded offset inside one data file.
	hashLo := int64(newRNG(seed, 30).intn(rowsPerFile - hashRows))
	hashed := make([][]types.Value, 0, hashRows)
	for a := hashLo; a < hashLo+int64(hashRows); a++ {
		h := strconv.FormatInt(a, 10)
		for i := 0; i < 100; i++ {
			d := sha256.Sum256([]byte(h))
			h = hex.EncodeToString(d[:])
		}
		hashed = append(hashed, []types.Value{types.Int64(a), types.String(h)})
	}
	var fusedCols, fusedWant []string
	fusedRow := make([]types.Value, fusedUDFs)
	for i := 0; i < fusedUDFs; i++ {
		fusedCols = append(fusedCols, fmt.Sprintf("SUM(u%d(a, b)) AS s%d", i, i))
		fusedRow[i] = types.Int64(sum + int64(i*n))
		fusedWant = append(fusedWant, fusedRow[i].String())
	}
	one := func(v int64) digest { return digestRows([][]types.Value{{types.Int64(v)}}) }
	round := []stmt{
		{class: "udf1", sql: "SELECT SUM(u0(a, b)) AS s FROM pairs", check: expectDigest(one(sum))},
		{class: "udf5_fused", sql: "SELECT " + strings.Join(fusedCols, ", ") + " FROM pairs", check: expectDigest(digestRows([][]types.Value{fusedRow}))},
		{class: "udf_hash", sql: fmt.Sprintf("SELECT a, uh(a, b) AS h FROM pairs WHERE a >= %d AND a < %d", hashLo, hashLo+int64(hashRows)), check: expectDigest(digestRows(hashed))},
		{class: "noudf", sql: "SELECT SUM(a + b) AS s FROM pairs", check: expectDigest(one(sum))},
	}
	params := []types.Field{{Name: "a", Kind: types.KindInt64}, {Name: "b", Kind: types.KindInt64}}
	return &instance{
		tokens:    []string{"user-token"},
		mainTable: "main.default.pairs", mainOwner: adminPrincipal,
		udfCalls: map[string]int{"udf1": n, "udf5_fused": n * fusedUDFs, "udf_hash": hashRows},
		initSession: func(c *connect.Client) error {
			for i := 0; i < fusedUDFs; i++ {
				if err := c.RegisterFunction(fmt.Sprintf("u%d", i), params, types.KindInt64, fmt.Sprintf(simpleUDFBody, i)); err != nil {
					return err
				}
			}
			return c.RegisterFunction("uh", params, types.KindString, hashUDFBody)
		},
		round: func(int, int) []stmt { return round },
	}, nil
}

// Cadences of the ingest_churn round, staggered between the two clients so
// they never issue the same maintenance statement in the same round.
const (
	insertRows    = 64
	deleteEvery   = 8
	historyEvery  = 16
	optimizeEvery = 128
)

func prepareIngestChurn(w *world, seed uint64, quick bool) (*instance, error) {
	g := eventGen{seed: seed, n: pick(quick, 20000, 2000), rowsPerFile: pick(quick, 5000, 500), cats: 8}
	if err := createEventTable(w.cat, ownerPrincipal, "ledger", g, true); err != nil {
		return nil, err
	}
	// The scratch table takes the identical batches of the traced INSERTs.
	if err := w.cat.CreateTable(reqCtx(ownerPrincipal), []string{"ledger_scratch"}, eventSchema, false, ""); err != nil {
		return nil, err
	}

	// The model counts rows as the owner sees them through the row filter.
	// matching* follow the scan-agg predicate (v > 250), visible* follow
	// COUNT(*); started is bumped before a statement is sent and committed
	// after it is acknowledged, so a concurrent reader's answer must lie
	// between committed-before and started-after.
	type counts struct{ matching, visible atomic.Int64 }
	var base, addStarted, addCommitted, delStarted, delCommitted counts
	for i := int64(0); i < int64(g.n); i++ {
		if e := g.row(i); e.visible() {
			base.visible.Add(1)
			if e.v > 250 {
				base.matching.Add(1)
			}
		}
	}
	// Every history row is one core.Server.Execute, so the server's own query
	// counter bounds the owner's history from above.
	queriesTotal := w.metrics.Counter("queries.total")
	var lastHistory [numClients]int64
	var inserted atomic.Int64

	tally := func(rows []event) (matching, visible int64) {
		for _, e := range rows {
			if e.visible() {
				visible++
				if e.v > 250 {
					matching++
				}
			}
		}
		return
	}
	insertBatch := func(client, r int) []event {
		first := int64(g.n) + int64(r*numClients+client)*insertRows
		rows := make([]event, insertRows)
		for i := range rows {
			rows[i] = g.row(first + int64(i))
		}
		return rows
	}
	// Each client deletes seeded rows of its own parity, each at most once.
	var delMu sync.Mutex
	deleted := map[int64]bool{}
	delKeys := [numClients]*rng{newRNG(seed, 40), newRNG(seed, 41)}
	nextDelete := func(client int) event {
		delMu.Lock()
		defer delMu.Unlock()
		for {
			id := int64(delKeys[client].intn(g.n/2))*2 + int64(client)
			if !deleted[id] {
				deleted[id] = true
				return g.row(id)
			}
		}
	}

	round := func(client, r int) []stmt {
		var out []stmt
		rows := insertBatch(client, r)
		m, v := tally(rows)
		out = append(out, stmt{
			class: "insert", dml: true, sql: "INSERT INTO ledger VALUES " + valuesSQL(rows),
			before: func() { addStarted.matching.Add(m); addStarted.visible.Add(v) },
			after:  func() { addCommitted.matching.Add(m); addCommitted.visible.Add(v); inserted.Add(insertRows) },
			check:  expectMessage(fmt.Sprintf("inserted %d rows", insertRows)),
			commitTwin: func() ([]string, []*types.Batch) {
				bb := types.NewBatchBuilder(eventSchema, insertRows)
				for _, e := range rows {
					appendEvent(bb, e)
				}
				return []string{"ledger_scratch"}, []*types.Batch{bb.Build()}
			},
		})
		// A row counts for certain if its insert was acknowledged before the
		// scan began and no delete of it had begun by the time it ended; it
		// may count if its insert had begun by the end and its delete was not
		// acknowledged before the beginning.
		var addedBefore, deletedBefore int64
		out = append(out, stmt{
			class: "ledger_scanagg", sql: fmt.Sprintf(scanAggSQL, "ledger"),
			before: func() {
				addedBefore, deletedBefore = addCommitted.matching.Load(), delCommitted.matching.Load()
			},
			check: func(b *types.Batch, _ *digester) error {
				lo := base.matching.Load() + addedBefore - delStarted.matching.Load()
				hi := base.matching.Load() + addStarted.matching.Load() - deletedBefore
				if b.NumCols() != 3 {
					return fmt.Errorf("scan-agg answer has %d columns", b.NumCols())
				}
				var n int64
				for _, c := range b.Cols[2].Int64s() {
					n += c
				}
				if n < lo || n > hi {
					return fmt.Errorf("snapshot isolation: scan-agg counted %d rows, outside [%d committed before, %d started after]", n, lo, hi)
				}
				return nil
			},
		})
		stagger := client * (deleteEvery / numClients)
		if (r+stagger)%deleteEvery == deleteEvery-1 {
			e := nextDelete(client)
			m, v := tally([]event{e})
			out = append(out, stmt{
				class: "dv_delete", dml: true, sql: fmt.Sprintf("DELETE FROM ledger WHERE id = %d", e.id),
				before: func() { delStarted.matching.Add(m); delStarted.visible.Add(v) },
				after:  func() { delCommitted.matching.Add(m); delCommitted.visible.Add(v) },
				check:  expectMessage("deleted 1 rows"),
			})
		}
		if (r+client*(historyEvery/numClients))%historyEvery == historyEvery-1 {
			out = append(out, stmt{
				class: "history_count", sql: "SELECT COUNT(*) AS n FROM system.query.history",
				check: func(b *types.Batch, _ *digester) error {
					if b.NumRows() != 1 || b.NumCols() != 1 {
						return fmt.Errorf("history count answer is %dx%d", b.NumRows(), b.NumCols())
					}
					n := b.Cols[0].Int64(0)
					// Own rows only: the spooled history only grows, and never
					// past the queries the server has run.
					if hi := queriesTotal.Value(); n < lastHistory[client] || n > hi {
						return fmt.Errorf("history count %d outside [%d, %d]", n, lastHistory[client], hi)
					}
					lastHistory[client] = n
					return nil
				},
			})
		}
		if (r+client*(optimizeEvery/numClients))%optimizeEvery == optimizeEvery-1 {
			out = append(out, stmt{
				class: "optimize", dml: true, sql: "OPTIMIZE ledger",
				check: func(*types.Batch, *digester) error { return nil },
			})
		}
		return out
	}

	sample := g.batches(0, int64(g.rowsPerFile))[0]
	bytesPerRow, err := encodedBytesPerRow(sample)
	if err != nil {
		return nil, err
	}
	return &instance{
		tokens:    []string{"owner-token"},
		mainTable: "main.default.ledger", mainOwner: ownerPrincipal,
		sizes: merge(g.sizes("ledger"), map[string]int{"insert.rows": insertRows}),
		round: round,
		final: func() stmt {
			want := base.visible.Load() + addCommitted.visible.Load() - delCommitted.visible.Load()
			return stmt{
				class: "final_count", sql: "SELECT COUNT(*) AS n FROM ledger",
				check: expectDigest(digestRows([][]types.Value{{types.Int64(want)}})),
			}
		},
		userBytesPerRow: bytesPerRow,
		userRows:        func() int64 { return int64(g.n) + inserted.Load() },
	}, nil
}

// expectMessage checks the one-cell acknowledgement of a DML command.
func expectMessage(prefix string) func(*types.Batch, *digester) error {
	return func(b *types.Batch, _ *digester) error {
		if b.NumRows() != 1 || b.NumCols() != 1 {
			return fmt.Errorf("acknowledgement is %dx%d", b.NumRows(), b.NumCols())
		}
		if msg := b.Cols[0].StringAt(0); !strings.HasPrefix(msg, prefix) {
			return fmt.Errorf("acknowledgement %q, want prefix %q", msg, prefix)
		}
		return nil
	}
}

func encodedBytesPerRow(b *types.Batch) (float64, error) {
	data, err := arrowipc.EncodeBatch(b)
	if err != nil {
		return 0, err
	}
	return float64(len(data)) / float64(b.NumRows()), nil
}

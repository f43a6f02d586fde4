package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"lakeguard/internal/storage"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

func TestUpdateStatement(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	c := e.client("tok-admin")
	seedSales(t, c)
	b := mustExec(t, c, "UPDATE sales SET amount = amount * 2 WHERE region = 'EU'")
	if !strings.Contains(b.Cols[0].StringAt(0), "updated 2 rows") {
		t.Fatalf("update result: %s", b.Cols[0].StringAt(0))
	}
	sum, err := c.Sql("SELECT SUM(amount) AS s FROM sales WHERE region = 'EU'").Collect()
	if err != nil || sum.Cols[0].Float64(0) != 1000 { // (200+300)*2
		t.Fatalf("EU sum after update = %v, %v", sum, err)
	}
	// Untouched rows keep their values, and the row count never changes.
	us, _ := c.Sql("SELECT SUM(amount) AS s FROM sales WHERE region = 'US'").Collect()
	if us.Cols[0].Float64(0) != 225 {
		t.Fatalf("US sum after update = %v", us.Cols[0].Float64(0))
	}
	n, _ := c.Table("sales").Count()
	if n != 6 {
		t.Fatalf("rows after update = %d", n)
	}
	// Time travel still sees pre-update values.
	old, err := c.Sql("SELECT SUM(amount) AS s FROM sales VERSION AS OF 1 WHERE region = 'EU'").Collect()
	if err != nil || old.Cols[0].Float64(0) != 500 {
		t.Fatalf("pre-update EU sum: %v, %v", old, err)
	}
	// A no-match UPDATE commits nothing.
	b = mustExec(t, c, "UPDATE sales SET amount = 0 WHERE region = 'MARS'")
	if !strings.Contains(b.Cols[0].StringAt(0), "updated 0 rows") {
		t.Fatalf("no-match update result: %s", b.Cols[0].StringAt(0))
	}
}

func TestUpdateRequiresModify(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	c := e.client("tok-admin")
	seedSales(t, c)
	mustExec(t, c, "GRANT SELECT ON sales TO 'alice@corp.com'")
	alice := e.client("tok-alice")
	if _, err := alice.ExecSQL("UPDATE sales SET amount = 0 WHERE region = 'US'"); err == nil {
		t.Fatal("update without MODIFY should fail")
	}
	mustExec(t, c, "GRANT MODIFY ON sales TO 'alice@corp.com'")
	if _, err := alice.ExecSQL("UPDATE sales SET amount = 1 WHERE region = 'APAC'"); err != nil {
		t.Fatalf("update with MODIFY: %v", err)
	}
}

func TestMergeIntoUpsert(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	c := e.client("tok-admin")
	seedSales(t, c)
	mustExec(t, c, "CREATE TABLE staging (seller STRING, amount DOUBLE)")
	mustExec(t, c, "INSERT INTO staging VALUES ('ann', 999), ('eve', 10)")
	b := mustExec(t, c, `MERGE INTO sales AS t USING staging AS s ON t.seller = s.seller
		WHEN MATCHED THEN UPDATE SET amount = s.amount
		WHEN NOT MATCHED THEN INSERT VALUES (s.amount, CAST('2024-12-03' AS DATE), s.seller, 'EU')`)
	if !strings.Contains(b.Cols[0].StringAt(0), "merged: 2 updated, 0 deleted, 1 inserted") {
		t.Fatalf("merge result: %s", b.Cols[0].StringAt(0))
	}
	n, _ := c.Table("sales").Count()
	if n != 7 {
		t.Fatalf("rows after merge = %d, want 7", n)
	}
	ann, _ := c.Sql("SELECT SUM(amount) AS s FROM sales WHERE seller = 'ann'").Collect()
	if ann.Cols[0].Float64(0) != 1998 {
		t.Fatalf("ann amounts after merge = %v", ann.Cols[0].Float64(0))
	}
	eve, _ := c.Sql("SELECT amount, region FROM sales WHERE seller = 'eve'").Collect()
	if eve.NumRows() != 1 || eve.Cols[0].Float64(0) != 10 || eve.Cols[1].StringAt(0) != "EU" {
		t.Fatalf("inserted row wrong:\n%s", eve.String())
	}

	// WHEN MATCHED THEN DELETE on the same machinery.
	mustExec(t, c, "CREATE TABLE gone (seller STRING)")
	mustExec(t, c, "INSERT INTO gone VALUES ('ben')")
	b = mustExec(t, c, `MERGE INTO sales USING gone ON sales.seller = gone.seller
		WHEN MATCHED THEN DELETE`)
	if !strings.Contains(b.Cols[0].StringAt(0), "merged: 0 updated, 2 deleted, 0 inserted") {
		t.Fatalf("merge-delete result: %s", b.Cols[0].StringAt(0))
	}
	left, _ := c.Sql("SELECT COUNT(*) AS n FROM sales WHERE seller = 'ben'").Collect()
	if left.Cols[0].Int64(0) != 0 {
		t.Fatal("ben rows survived merge delete")
	}

	// A merge that changes nothing reports so without committing.
	b = mustExec(t, c, `MERGE INTO sales USING gone ON sales.seller = gone.seller
		WHEN MATCHED THEN DELETE`)
	if !strings.Contains(b.Cols[0].StringAt(0), "merge matched 0 rows") {
		t.Fatalf("no-op merge result: %s", b.Cols[0].StringAt(0))
	}
}

func TestOptimizeCompactsSmallFiles(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	c := e.client("tok-admin")
	mustExec(t, c, "CREATE TABLE tiny (n BIGINT)")
	// Each INSERT is its own commit and data file.
	for i := 0; i < 5; i++ {
		mustExec(t, c, fmt.Sprintf("INSERT INTO tiny VALUES (%d)", i))
	}
	b := mustExec(t, c, "OPTIMIZE tiny")
	if !strings.Contains(b.Cols[0].StringAt(0), "compacted 5 files into 1") {
		t.Fatalf("optimize result: %s", b.Cols[0].StringAt(0))
	}
	// Logical content is unchanged, in order.
	rows, err := c.Sql("SELECT n FROM tiny ORDER BY n").Collect()
	if err != nil || rows.NumRows() != 5 {
		t.Fatalf("rows after optimize: %v, %v", rows, err)
	}
	for i := 0; i < 5; i++ {
		if rows.Cols[0].Int64(i) != int64(i) {
			t.Fatalf("row %d = %d after optimize", i, rows.Cols[0].Int64(i))
		}
	}
	// Idempotent: one big file has nothing left to pack.
	b = mustExec(t, c, "OPTIMIZE tiny")
	if !strings.Contains(b.Cols[0].StringAt(0), "nothing to compact") {
		t.Fatalf("second optimize result: %s", b.Cols[0].StringAt(0))
	}
	// The compaction landed in the table history.
	h := mustExec(t, c, "DESCRIBE HISTORY tiny")
	if !strings.Contains(h.String(), "OPTIMIZE") {
		t.Fatalf("history missing OPTIMIZE:\n%s", h.String())
	}
}

func TestOptimizeAllowedOnPolicyProtectedTable(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	c := e.client("tok-admin")
	seedSales(t, c)
	mustExec(t, c, "INSERT INTO sales VALUES (1, CAST('2024-12-03' AS DATE), 'eve', 'US')")
	mustExec(t, c, "ALTER TABLE sales SET ROW FILTER 'region = ''US'''")
	mustExec(t, c, "GRANT SELECT ON sales TO 'alice@corp.com'")
	mustExec(t, c, "GRANT MODIFY ON sales TO 'alice@corp.com'")
	// OPTIMIZE is content-preserving, so unlike DELETE/UPDATE it does not
	// require ownership on a policy-protected table — MODIFY suffices.
	alice := e.client("tok-alice")
	b, err := alice.ExecSQL("OPTIMIZE sales")
	if err != nil {
		t.Fatalf("non-owner OPTIMIZE with MODIFY: %v", err)
	}
	if !strings.Contains(b.Cols[0].StringAt(0), "compacted") {
		t.Fatalf("optimize result: %s", b.Cols[0].StringAt(0))
	}
	// The row filter still applies to alice's reads afterwards.
	n, err := alice.Table("sales").Count()
	if err != nil || n != 4 {
		t.Fatalf("alice sees %d rows after optimize, want 4 US rows (%v)", n, err)
	}
}

func TestVacuumStatement(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	c := e.client("tok-admin")
	mustExec(t, c, "CREATE TABLE tiny (n BIGINT)")
	for i := 0; i < 4; i++ {
		mustExec(t, c, fmt.Sprintf("INSERT INTO tiny VALUES (%d)", i))
	}
	mustExec(t, c, "OPTIMIZE tiny")
	// The four replaced files are tombstones until VACUUM deletes them.
	b := mustExec(t, c, "VACUUM tiny")
	if !strings.Contains(b.Cols[0].StringAt(0), "vacuumed 4 tombstoned") {
		t.Fatalf("vacuum result: %s", b.Cols[0].StringAt(0))
	}
	n, err := c.Table("tiny").Count()
	if err != nil || n != 4 {
		t.Fatalf("rows after vacuum = %d, %v", n, err)
	}
	// Nothing left on a second sweep.
	b = mustExec(t, c, "VACUUM tiny")
	if !strings.Contains(b.Cols[0].StringAt(0), "vacuumed 0 tombstoned and 0 orphaned") {
		t.Fatalf("second vacuum result: %s", b.Cols[0].StringAt(0))
	}
}

// TestDeleteCommitsOneLogPut pins the headline DML cost: a selective DELETE
// writes exactly one object — the log entry carrying the deletion vectors —
// and zero data files.
func TestDeleteCommitsOneLogPut(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	c := e.client("tok-admin")
	seedSales(t, c)
	_, putsBefore := e.cat.Store().Stats()
	b := mustExec(t, c, "DELETE FROM sales WHERE region = 'EU'")
	if !strings.Contains(b.Cols[0].StringAt(0), "deleted 2 rows") {
		t.Fatalf("delete result: %s", b.Cols[0].StringAt(0))
	}
	_, putsAfter := e.cat.Store().Stats()
	if got := putsAfter - putsBefore; got != 1 {
		t.Fatalf("selective DELETE issued %d PUTs, want exactly 1 (the log entry)", got)
	}
}

// TestFullyDeletedFilePrunedBeforeGet proves a file whose deletion vector
// covers every row is skipped before any storage read: a fault planted on
// the dead file's object must never fire.
func TestFullyDeletedFilePrunedBeforeGet(t *testing.T) {
	m := telemetry.NewRegistry()
	e := newEnv(t, Config{Name: "std", Metrics: m})
	c := e.client("tok-admin")
	mustExec(t, c, "CREATE TABLE ev (id BIGINT, v BIGINT)")
	mustExec(t, c, "INSERT INTO ev VALUES (1, 10), (2, 20), (3, 30)") // version 1 → file 000001-*
	mustExec(t, c, "INSERT INTO ev VALUES (4, 40), (5, 50), (6, 60)") // version 2 → file 000002-*
	mustExec(t, c, "DELETE FROM ev WHERE id <= 3")                    // covers all of file 1

	// From here on, any GET of the fully-deleted file is a test failure.
	store := e.cat.Store()
	var fired bool
	store.SetFault(func(op, path string) error {
		if op == "get" && strings.HasPrefix(path, "tables/main/default/ev/data/000001") {
			fired = true
			return fmt.Errorf("read of fully-deleted file %s", path)
		}
		return nil
	})
	defer store.SetFault(nil)

	prunedBefore := m.Counter("scan.files.dv_pruned").Value()
	rows, err := c.Sql("SELECT id, v FROM ev ORDER BY id").Collect()
	if err != nil {
		t.Fatalf("scan over DV-pruned table: %v", err)
	}
	if rows.NumRows() != 3 || rows.Cols[0].Int64(0) != 4 {
		t.Fatalf("surviving rows wrong:\n%s", rows.String())
	}
	if fired {
		t.Fatal("scan issued a GET for a file whose deletion vector covers every row")
	}
	if got := m.Counter("scan.files.dv_pruned").Value() - prunedBefore; got != 1 {
		t.Errorf("scan.files.dv_pruned advanced by %d, want 1", got)
	}

	// Sanity: the fault injector is live — reading the file directly trips it.
	cred := store.Signer().Issue("tables/", storage.ModeRead, time.Minute)
	paths, err := store.List(&cred, "tables/main/default/ev/data/")
	if err != nil {
		t.Fatal(err)
	}
	var dead string
	for _, p := range paths {
		if strings.HasPrefix(p, "tables/main/default/ev/data/000001") {
			dead = p
		}
	}
	if dead == "" {
		t.Fatal("fully-deleted data object not found in storage listing")
	}
	if _, err := store.Get(&cred, dead); err == nil {
		t.Fatal("fault injector did not fire on a direct read")
	}
}

// TestDVMaskComposesWithZoneMapPruning runs a range predicate over a table
// where one file is zone-map pruned and another carries a partial deletion
// vector: the scan must apply both, and EXPLAIN ANALYZE must report them.
func TestDVMaskComposesWithZoneMapPruning(t *testing.T) {
	m := telemetry.NewRegistry()
	e := newEnv(t, Config{Name: "std", Metrics: m})
	c := e.client("tok-admin")
	mustExec(t, c, "CREATE TABLE ev (id BIGINT, v BIGINT)")
	mustExec(t, c, "INSERT INTO ev VALUES (1, 10), (2, 20), (3, 30)")
	mustExec(t, c, "INSERT INTO ev VALUES (4, 40), (5, 50), (6, 60)")
	mustExec(t, c, "DELETE FROM ev WHERE id = 5") // partial DV on file 2

	maskedBefore := m.Counter("scan.rows.dv_masked").Value()
	// id >= 4 zone-map-prunes file 1 (ids 1..3) entirely; file 2 is read and
	// row id=5 is masked by its deletion vector before the filter runs.
	analyze, rows, err := c.SqlExplainAnalyze("SELECT id FROM ev WHERE id >= 4 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Fatalf("result rows = %d, want 2 (4 and 6)", rows)
	}
	if !strings.Contains(analyze, "pruned 1") {
		t.Errorf("EXPLAIN ANALYZE missing zone-map prune:\n%s", analyze)
	}
	if !strings.Contains(analyze, "dv-masked 1 rows") {
		t.Errorf("EXPLAIN ANALYZE missing dv-masked rows:\n%s", analyze)
	}
	if got := m.Counter("scan.rows.dv_masked").Value() - maskedBefore; got != 1 {
		t.Errorf("scan.rows.dv_masked advanced by %d, want 1", got)
	}
}

// DML evaluates over columns through the engine's compiled expression
// lists: DELETE/UPDATE WHERE as selection kernels over each file's
// deletion-vector keep-list, UPDATE SET, and MERGE's ON, matched SET and
// INSERT values. DML expressions are resolved and typed by the analyzer, as
// a query's are, so typed arithmetic, concatenation and CASE compile; an
// expression that does not (LIKE, a CASE on row values, COALESCE, an
// untyped NULL) runs in the row interpreter and is counted on
// exec.vec.fallback.<node>. A sequence of statements over NULLs, identity
// functions, CASE and scalar functions, on files that already carry
// deletion vectors, must leave exactly the rows a plain model leaves; BIGINT
// arithmetic beyond 2^53 stays exact; a SET whose cast raises fails with its
// error text and changes nothing, and CASE branches of incompatible kinds
// are refused. An interpreted SET value is cast straight to its column's
// kind, whatever kind the rows before it had: a CASE over a DOUBLE column
// whose first matched row is NULL keeps the fractions.
func TestDMLWhereKernelsMatchModel(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := newEnv(t, Config{Name: "std", Metrics: reg})
	c := e.client("tok-admin")
	type pt struct {
		tag   string
		v     int64
		vNull bool
		d     float64
		dNull bool
	}
	sqlRow := func(id int64, p pt) string {
		v, d := fmt.Sprint(p.v), fmt.Sprint(p.d)
		if p.vNull {
			v = "NULL"
		}
		if p.dNull {
			d = "NULL"
		}
		return fmt.Sprintf("(%d, '%s', %s, %s)", id, p.tag, v, d)
	}
	mustExec(t, c, "CREATE TABLE pts (id BIGINT, tag STRING, v BIGINT, d DOUBLE)")
	model := map[int64]pt{}
	for f := 0; f < 4; f++ { // four files
		var vals []string
		for i := int64(f * 25); i < int64((f+1)*25); i++ {
			// Every file starts with a NULL d.
			p := pt{tag: []string{"a", "b", "ab", ""}[i%4], v: i * 7 % 40, vNull: i%9 == 4,
				d: float64(i) + 0.75, dNull: i%25 == 0 || i%7 == 3}
			model[i] = p
			vals = append(vals, sqlRow(i, p))
		}
		mustExec(t, c, "INSERT INTO pts VALUES "+strings.Join(vals, ", "))
	}
	// The MERGE source: ids 7 and 13 twice (the first matching row drives
	// the update), ids no target row has (inserted), and NULLs.
	src := []struct {
		id int64
		p  pt
	}{{7, pt{tag: "s7", v: 70, d: 7.5}}, {13, pt{tag: "s13", vNull: true, dNull: true}}, {7, pt{tag: "s7b", v: 71, d: 7.25}},
		{200, pt{tag: "n200", vNull: true, d: 200.5}}, {13, pt{tag: "s13b", v: 91, d: 13.5}}, {201, pt{tag: "n201", v: 201, dNull: true}}, {11, pt{tag: "s11", v: 110, d: 11.5}}}
	var srcVals []string
	for _, r := range src {
		srcVals = append(srcVals, sqlRow(r.id, r.p))
	}
	mustExec(t, c, "CREATE TABLE src (id BIGINT, tag STRING, v BIGINT, d DOUBLE)")
	mustExec(t, c, "INSERT INTO src VALUES "+strings.Join(srcVals, ", "))

	// rowDML applies a DELETE (set == nil) or an UPDATE to the model.
	rowDML := func(match func(id int64, p pt) bool, set func(id int64, p pt) pt) func() string {
		return func() string {
			n := 0
			for id, p := range model {
				if !match(id, p) {
					continue
				}
				n++
				if set == nil {
					delete(model, id)
				} else {
					model[id] = set(id, p)
				}
			}
			return fmt.Sprintf(" %d rows", n)
		}
	}
	lt := func(p pt, x int64) bool { return !p.vNull && p.v < x }
	merge := func() string {
		first := map[int64]pt{}
		updated, inserted := 0, 0
		for _, r := range src {
			if _, ok := model[r.id]; ok {
				if _, seen := first[r.id]; !seen {
					first[r.id] = r.p
					updated++
				}
			}
		}
		for _, r := range src {
			if _, matched := first[r.id]; matched {
				continue
			}
			p := r.p
			if p.vNull {
				p.tag = "null"
			}
			model[r.id] = p
			inserted++
		}
		for id, p := range first {
			q := model[id]
			q.tag, q.v, q.vNull = p.tag, p.v, p.vNull
			model[id] = q
		}
		return fmt.Sprintf("merged: %d updated, 0 deleted, %d inserted", updated, inserted)
	}
	fallbacks := func() map[string]int64 {
		out := map[string]int64{}
		for _, line := range strings.Split(reg.RenderPrometheus(), "\n") {
			var name string
			var n int64
			if _, err := fmt.Sscanf(line, "exec_vec_fallback_%s %d", &name, &n); err == nil {
				out[name] = n
			}
		}
		return out
	}
	for _, step := range []struct {
		sql string
		// apply updates the model and returns the statement's expected
		// message; with err set instead, the statement must fail with it.
		apply func() string
		err   string
		// fellBack lists the nodes whose fallback counters the statement
		// moves, sorted and space-separated ("" = none).
		fellBack string
	}{
		{sql: "UPDATE pts SET d = CASE WHEN d IS NULL THEN 0 ELSE d END", fellBack: "Case",
			apply: rowDML(func(int64, pt) bool { return true }, func(_ int64, p pt) pt {
				if p.dNull {
					p.d, p.dNull = 0, false
				}
				return p
			})},
		{sql: "DELETE FROM pts WHERE v < 5", apply: rowDML(func(_ int64, p pt) bool { return lt(p, 5) }, nil)},
		// DML expressions are typed as a query's are: CASE branches of
		// incompatible kinds are refused before a row is read.
		{sql: "UPDATE pts SET tag = CASE WHEN v IS NULL THEN id ELSE 'x' END WHERE id >= 13 AND id < 20",
			err: "analyzer: CASE branches: incompatible types BIGINT and STRING"},
		{sql: "UPDATE pts SET tag = CASE WHEN v IS NULL THEN CAST(id AS STRING) ELSE 'x' END WHERE id >= 13 AND id < 20", fellBack: "Case",
			apply: rowDML(func(id int64, _ pt) bool { return id >= 13 && id < 20 }, func(id int64, p pt) pt {
				p.tag = "x"
				if p.vNull {
					p.tag = fmt.Sprint(id)
				}
				return p
			})},
		{sql: "UPDATE pts SET v = v + 100 WHERE tag = 'a' AND id > 30",
			apply: rowDML(func(id int64, p pt) bool { return p.tag == "a" && id > 30 }, func(_ int64, p pt) pt { p.v += 100; return p })},
		{sql: "DELETE FROM pts WHERE id % 3 = 0 OR v > 130",
			apply: rowDML(func(id int64, p pt) bool { return id%3 == 0 || (!p.vNull && p.v > 130) }, nil)},
		{sql: "DELETE FROM pts WHERE tag LIKE 'a%' AND v < 20", fellBack: "Like",
			apply: rowDML(func(_ int64, p pt) bool { return strings.HasPrefix(p.tag, "a") && lt(p, 20) }, nil)},
		{sql: "UPDATE pts SET tag = 'mine' WHERE CURRENT_USER() = '" + admin + "' AND v >= 30",
			apply: rowDML(func(_ int64, p pt) bool { return !p.vNull && p.v >= 30 }, func(_ int64, p pt) pt { p.tag = "mine"; return p })},
		{sql: "DELETE FROM pts WHERE CURRENT_USER() <> '" + admin + "'", apply: rowDML(func(int64, pt) bool { return false }, nil)},
		// A WHERE that is not BOOLEAN is never TRUE, as in the row interpreter.
		{sql: "DELETE FROM pts WHERE v", fellBack: "ResultKind", apply: rowDML(func(int64, pt) bool { return false }, nil)},
		{sql: "UPDATE pts SET tag = CASE WHEN IS_ACCOUNT_GROUP_MEMBER('nobody') THEN 'grp' ELSE CURRENT_USER() END, v = id WHERE v IS NULL",
			apply: rowDML(func(_ int64, p pt) bool { return p.vNull }, func(id int64, p pt) pt { p.tag, p.v, p.vNull = admin, id, false; return p })},
		{sql: "UPDATE pts SET v = tag WHERE tag = 'b'", err: `core: SET column 3: cannot cast STRING to BIGINT`},
		// BIGINT arithmetic stays in int64: 2^53 + 1 is not a float64.
		{sql: "UPDATE pts SET v = 9007199254740993 WHERE id = 1",
			apply: rowDML(func(id int64, _ pt) bool { return id == 1 }, func(_ int64, p pt) pt { p.v, p.vNull = 9007199254740993, false; return p })},
		{sql: "UPDATE pts SET v = v + 2 WHERE id = 1",
			apply: rowDML(func(id int64, _ pt) bool { return id == 1 }, func(_ int64, p pt) pt { p.v += 2; return p })},
		// Scalar functions resolve in SET and WHERE.
		{sql: "UPDATE pts SET d = COALESCE(d, 0) WHERE id < 40", fellBack: "ScalarFunc",
			apply: rowDML(func(id int64, _ pt) bool { return id < 40 }, func(_ int64, p pt) pt {
				if p.dNull {
					p.d, p.dNull = 0, false
				}
				return p
			})},
		{sql: "DELETE FROM pts WHERE COALESCE(d, 0) > 90", fellBack: "ScalarFunc",
			apply: rowDML(func(_ int64, p pt) bool { return !p.dNull && p.d > 90 }, nil)},
		{sql: "MERGE INTO pts AS t USING src AS s ON t.id = s.id WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.tag, s.tag, s.d)",
			err: `core: MERGE INSERT column "v": cannot cast STRING to BIGINT`},
		{sql: "UPDATE pts SET v = NULL, tag = tag || '!' WHERE id < 20 AND tag <> ''", fellBack: "Literal",
			apply: rowDML(func(id int64, p pt) bool { return id < 20 && p.tag != "" }, func(_ int64, p pt) pt { p.tag, p.vNull = p.tag+"!", true; return p })},
		{sql: `MERGE INTO pts AS t USING src AS s ON t.id = s.id AND CURRENT_USER() = '` + admin + `'
			WHEN MATCHED THEN UPDATE SET v = s.v, tag = CASE WHEN IS_ACCOUNT_GROUP_MEMBER('nobody') THEN 'grp' ELSE s.tag END
			WHEN NOT MATCHED THEN INSERT VALUES (s.id, CASE WHEN s.v IS NULL THEN 'null' ELSE s.tag END, s.v, s.d)`,
			apply: merge, fellBack: "Case"},
	} {
		before := fallbacks()
		b, err := c.ExecSQL(step.sql)
		switch {
		case step.err != "":
			if err == nil || !strings.Contains(err.Error(), step.err) {
				t.Fatalf("%s: err = %v, want %q", step.sql, err, step.err)
			}
		case err != nil:
			t.Fatalf("%s: %v", step.sql, err)
		default:
			if want := step.apply(); !strings.Contains(b.Cols[0].StringAt(0), want) {
				t.Fatalf("%s: %s, want %q", step.sql, b.Cols[0].StringAt(0), want)
			}
		}
		var moved []string
		for name, n := range fallbacks() {
			if n > before[name] {
				moved = append(moved, name)
			}
		}
		sort.Strings(moved)
		if got := strings.Join(moved, " "); got != step.fellBack {
			t.Errorf("%s: fallback counters moved for %q, want %q", step.sql, got, step.fellBack)
		}
		got, err := c.Sql("SELECT id, tag, v, d FROM pts ORDER BY id").Collect()
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != len(model) {
			t.Fatalf("after %s: %d rows, model has %d", step.sql, got.NumRows(), len(model))
		}
		for i := 0; i < got.NumRows(); i++ {
			id := got.Cols[0].Int64(i)
			p, ok := model[id]
			if !ok || p.tag != got.Cols[1].StringAt(i) || p.vNull != got.Cols[2].IsNull(i) || !p.vNull && p.v != got.Cols[2].Int64(i) ||
				p.dNull != got.Cols[3].IsNull(i) || !p.dNull && p.d != got.Cols[3].Float64(i) {
				t.Fatalf("after %s: row %d = (%s, %v, %v), model %+v (present %v)", step.sql, id, got.Cols[1].StringAt(i), got.Cols[2].Value(i), got.Cols[3].Value(i), p, ok)
			}
		}
	}
}

// DML runs no sealed, verified plan it could hand the sandbox, so a
// user-defined function in any DML expression — a session function or a
// cataloged one, in SET, WHERE or a MERGE clause — is refused before a row
// is read, no sandbox starts, and the table is unchanged.
func TestDMLRefusesUserCode(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	c := e.client("tok-admin")
	seedSales(t, c)
	if err := c.RegisterFunction("twice", []types.Field{{Name: "x", Kind: types.KindFloat64}}, types.KindFloat64, "return x * 2"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, "CREATE FUNCTION bump(x DOUBLE) RETURNS DOUBLE AS 'return x + 1'")
	total := func() string {
		t.Helper()
		b, err := c.Sql("SELECT COUNT(*) AS n, SUM(amount) AS s FROM sales").Collect()
		if err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	before := total()
	for _, stmt := range []string{
		"UPDATE sales SET amount = twice(amount)",
		"DELETE FROM sales WHERE bump(amount) > 0",
		"UPDATE sales SET amount = 1 WHERE seller = 'ann' AND twice(amount) > 0",
		"MERGE INTO sales AS t USING sales AS s ON t.seller = s.seller AND bump(s.amount) > 0 WHEN MATCHED THEN DELETE",
		"MERGE INTO sales AS t USING sales AS s ON t.seller = s.seller WHEN MATCHED THEN UPDATE SET amount = twice(s.amount)",
	} {
		_, err := c.ExecSQL(stmt)
		if err == nil || !strings.Contains(err.Error(), "cannot run in DML") {
			t.Errorf("%s: err = %v, want the user-code refusal", stmt, err)
		}
	}
	if after := total(); after != before {
		t.Errorf("refused DML changed the table:\n%s\nwant\n%s", after, before)
	}
	if st := e.server.Dispatcher().Stats(); st.ColdStarts != 0 {
		t.Errorf("refused DML started %d sandboxes", st.ColdStarts)
	}
}

package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"lakeguard/internal/storage"
	"lakeguard/internal/telemetry"
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

// DELETE and UPDATE WHERE run as selection kernels over each file's
// deletion-vector keep-list, and through the row interpreter when the WHERE
// does not compile (LIKE). A sequence of both, on files that already carry
// deletion vectors, must leave exactly the rows a plain model leaves.
func TestDMLWhereKernelsMatchModel(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	c := e.client("tok-admin")
	mustExec(t, c, "CREATE TABLE pts (id BIGINT, tag STRING, v BIGINT)")
	type pt struct {
		tag string
		v   int64
	}
	model := map[int64]pt{}
	for f := 0; f < 4; f++ { // four files
		var vals []string
		for i := f * 25; i < (f+1)*25; i++ {
			p := pt{tag: []string{"a", "b", "ab", ""}[i%4], v: int64(i * 7 % 40)}
			model[int64(i)] = p
			vals = append(vals, fmt.Sprintf("(%d, '%s', %d)", i, p.tag, p.v))
		}
		mustExec(t, c, "INSERT INTO pts VALUES "+strings.Join(vals, ", "))
	}
	for _, step := range []struct {
		sql   string
		match func(id int64, p pt) bool
		set   func(p pt) pt // nil = DELETE
	}{
		{"DELETE FROM pts WHERE v < 5", func(_ int64, p pt) bool { return p.v < 5 }, nil},
		{"UPDATE pts SET v = v + 100 WHERE tag = 'a' AND id > 30", func(id int64, p pt) bool { return p.tag == "a" && id > 30 },
			func(p pt) pt { p.v += 100; return p }},
		{"DELETE FROM pts WHERE id % 3 = 0 OR v > 130", func(id int64, p pt) bool { return id%3 == 0 || p.v > 130 }, nil},
		{"DELETE FROM pts WHERE tag LIKE 'a%' AND v < 20", func(_ int64, p pt) bool { return strings.HasPrefix(p.tag, "a") && p.v < 20 }, nil},
		{"UPDATE pts SET tag = 'mine' WHERE CURRENT_USER() = '" + admin + "' AND v >= 30", func(_ int64, p pt) bool { return p.v >= 30 },
			func(p pt) pt { p.tag = "mine"; return p }},
		{"DELETE FROM pts WHERE CURRENT_USER() <> '" + admin + "'", func(int64, pt) bool { return false }, nil},
	} {
		want := 0
		for id, p := range model {
			if !step.match(id, p) {
				continue
			}
			want++
			if step.set == nil {
				delete(model, id)
			} else {
				model[id] = step.set(p)
			}
		}
		msg := mustExec(t, c, step.sql).Cols[0].StringAt(0)
		if !strings.Contains(msg, fmt.Sprintf(" %d rows", want)) {
			t.Fatalf("%s: %s, want %d rows", step.sql, msg, want)
		}
		b, err := c.Sql("SELECT id, tag, v FROM pts ORDER BY id").Collect()
		if err != nil {
			t.Fatal(err)
		}
		if b.NumRows() != len(model) {
			t.Fatalf("after %s: %d rows, model has %d", step.sql, b.NumRows(), len(model))
		}
		for i := 0; i < b.NumRows(); i++ {
			id := b.Cols[0].Int64(i)
			if p, ok := model[id]; !ok || p.tag != b.Cols[1].StringAt(i) || p.v != b.Cols[2].Int64(i) {
				t.Fatalf("after %s: row %d = (%s, %d), model %+v (present %v)", step.sql, id, b.Cols[1].StringAt(i), b.Cols[2].Int64(i), p, ok)
			}
		}
	}
}

package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lakeguard/internal/catalog"
	"lakeguard/internal/proto"
	"lakeguard/internal/storage"
	"lakeguard/internal/telemetry"
)

// Identity-dependent policies — a row filter and masks that ask
// IS_ACCOUNT_GROUP_MEMBER and CURRENT_USER — against per-principal
// authorized views: each governed answer must equal the same query over a
// plain copy holding exactly the rows and masked values that principal may
// see, written out by hand. The engine binds each statement's identity into
// its kernels, so a member and a non-member run different compiled
// programs; this is what keeps them honest.
const (
	staffRowFilter  = "region = 'US' OR IS_ACCOUNT_GROUP_MEMBER('analysts')"
	staffEmailMask  = "CASE WHEN IS_ACCOUNT_GROUP_MEMBER('analysts') THEN email ELSE '<redacted>' END"
	staffAmountMask = "CASE WHEN CURRENT_USER() = 'alice@corp.com' THEN amount WHEN owner = CURRENT_USER() THEN amount ELSE 0.0 END"
)

type staffRow struct {
	id                   int64
	region, email, owner string
	amount               float64
}

func genStaff(n int) []staffRow {
	regions := []string{"US", "EU", "US", "APAC"}
	owners := []string{alice, bob, "carol@corp.com"}
	out := make([]staffRow, n)
	for i := range out {
		out[i] = staffRow{
			id: int64(i), region: regions[i%4], email: fmt.Sprintf("u%d@x.com", i%7),
			owner: owners[i*5%3], amount: float64(i*13%50) + 0.25,
		}
	}
	return out
}

// staffAuthorized applies the staff policies by hand for one principal.
func staffAuthorized(rows []staffRow, user string, analyst bool) []staffRow {
	var out []staffRow
	for _, r := range rows {
		if r.region != "US" && !analyst {
			continue
		}
		if !analyst {
			r.email = "<redacted>"
		}
		if user != alice && r.owner != user {
			r.amount = 0
		}
		out = append(out, r)
	}
	return out
}

func staffValues(rows []staffRow) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = fmt.Sprintf("(%d, '%s', '%s', '%s', %g)", r.id, r.region, r.email, r.owner, r.amount)
	}
	return strings.Join(parts, ", ")
}

// seedStaff builds the governed staff table, one hand-masked copy per
// principal, and makes alice an analyst.
func seedStaff(t *testing.T, cat *catalog.Catalog) {
	t.Helper()
	srv := NewServer(Config{Name: "seed", Catalog: cat})
	rows := genStaff(80)
	cat.CreateGroup("analysts", alice)
	const cols = "(id BIGINT, region STRING, email STRING, owner STRING, amount DOUBLE)"
	stmts := []string{
		"CREATE TABLE staff " + cols,
		"INSERT INTO staff VALUES " + staffValues(rows),
		"ALTER TABLE staff SET ROW FILTER '" + escapeQuotes(staffRowFilter) + "'",
		"ALTER TABLE staff ALTER COLUMN email SET MASK '" + escapeQuotes(staffEmailMask) + "'",
		"ALTER TABLE staff ALTER COLUMN amount SET MASK '" + escapeQuotes(staffAmountMask) + "'",
		"CREATE TABLE staff_alice " + cols,
		"INSERT INTO staff_alice VALUES " + staffValues(staffAuthorized(rows, alice, true)),
		"CREATE TABLE staff_bob " + cols,
		"INSERT INTO staff_bob VALUES " + staffValues(staffAuthorized(rows, bob, false)),
	}
	for _, obj := range []string{"staff", "staff_alice", "staff_bob"} {
		for _, who := range []string{alice, bob} {
			stmts = append(stmts, "GRANT SELECT ON "+obj+" TO '"+who+"'")
		}
	}
	for _, stmt := range stmts {
		if _, _, err := srv.Execute(context.Background(), "seed", admin,
			&proto.Plan{Command: &proto.Command{SQL: stmt}}); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
}

// staffQueries are templates over {T}: projections, filters on the masked
// and the filtered column (LIKE included), aggregates, and ORDER BY + LIMIT.
func staffQueries(rng *rand.Rand, n int) []string {
	cols := []string{"id", "region", "email", "owner", "amount"}
	where := func() string {
		preds := []string{
			fmt.Sprintf("amount > %d", rng.Intn(40)),
			"email LIKE 'u1%'",
			"email = '<redacted>'",
			"region = 'EU'",
			fmt.Sprintf("id < %d", rng.Intn(80)),
			"owner = 'bob@corp.com'",
		}
		switch rng.Intn(3) {
		case 0:
			return ""
		case 1:
			return " WHERE " + preds[rng.Intn(len(preds))]
		}
		return " WHERE " + preds[rng.Intn(len(preds))] + " OR " + preds[rng.Intn(len(preds))]
	}
	out := make([]string, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			var sel []string
			for _, c := range cols {
				if rng.Intn(2) == 0 {
					sel = append(sel, c)
				}
			}
			if len(sel) == 0 {
				sel = []string{"email"}
			}
			out[i] = "SELECT " + strings.Join(sel, ", ") + " FROM {T}" + where()
		case 1:
			g := []string{"region", "email", "owner"}[rng.Intn(3)]
			out[i] = fmt.Sprintf("SELECT %s, COUNT(*) AS n, SUM(amount) AS s FROM {T}%s GROUP BY %s", g, where(), g)
		case 2:
			out[i] = fmt.Sprintf("SELECT id, email, amount FROM {T}%s ORDER BY amount DESC, id LIMIT %d", where(), 1+rng.Intn(15))
		case 3:
			out[i] = "SELECT COUNT(*) AS n FROM {T}" + where()
		}
	}
	return out
}

func TestIdentityPoliciesMatchAuthorizedViewOracle(t *testing.T) {
	cat := catalog.New(storage.NewStore(), nil)
	cat.AddAdmin(admin)
	seedStaff(t, cat)
	queries := staffQueries(rand.New(rand.NewSource(27)), 120)
	for _, user := range []string{alice, bob} {
		ref := "staff_" + strings.TrimSuffix(user, "@corp.com")
		refSrv := NewServer(Config{Name: "ref", Catalog: cat, Parallelism: 1})
		for _, p := range []int{1, 4} {
			srv := NewServer(Config{Name: fmt.Sprintf("gov-p%d", p), Catalog: cat, Parallelism: p})
			for _, q := range queries {
				want, err := queryCanonical(refSrv, user, strings.ReplaceAll(q, "{T}", ref))
				if err != nil {
					t.Fatalf("%s reference %q: %v", user, q, err)
				}
				gov := strings.ReplaceAll(q, "{T}", "staff")
				got, err := queryCanonical(srv, user, gov)
				if err != nil {
					t.Fatalf("%s parallelism %d: %q: %v", user, p, gov, err)
				}
				if got != want {
					t.Fatalf("%s parallelism %d: %q diverges from the authorized view\ngoverned:\n%s\noracle:\n%s",
						user, p, gov, got, want)
				}
			}
		}
	}
}

// fallbacks sums the exec.vec.fallback.* counters of a registry.
func fallbacks(reg *telemetry.Registry) (int64, string) {
	var total int64
	var names []string
	for _, line := range strings.Split(reg.RenderPrometheus(), "\n") {
		if !strings.HasPrefix(line, "exec_vec_fallback_") {
			continue
		}
		var name string
		var n int64
		fmt.Sscanf(line, "%s %d", &name, &n)
		total += n
		names = append(names, line)
	}
	return total, strings.Join(names, "; ")
}

// The benchmark's governed_scan statements — a row filter and an email mask
// on IS_ACCOUNT_GROUP_MEMBER, read by a scan-aggregate, a point lookup, a
// join and a top-N — run without a single row-interpreter fallback, for an
// analyst and for everyone else. A LIKE then shows the counter counts.
func TestGovernedScanStatementsNeverFallBack(t *testing.T) {
	cat := catalog.New(storage.NewStore(), nil)
	cat.AddAdmin(admin)
	cat.CreateGroup("analysts", alice)
	reg := telemetry.NewRegistry()
	seed := NewServer(Config{Name: "seed", Catalog: cat})
	var vals []string
	for i := 0; i < 200; i++ {
		vals = append(vals, fmt.Sprintf("(%d, '%s', 'c%d', %d, %d, 'u%d@x.com', %g)",
			i, []string{"US", "EU", "US", "APAC"}[i%4], i%8, i%20, i*37%500, i%9, float64(i*7%101)))
	}
	for _, stmt := range []string{
		"CREATE TABLE events (id BIGINT, region STRING, cat STRING, dim BIGINT, v BIGINT, email STRING, amount DOUBLE)",
		"INSERT INTO events VALUES " + strings.Join(vals, ", "),
		"ALTER TABLE events SET ROW FILTER '" + escapeQuotes(staffRowFilter) + "'",
		"ALTER TABLE events ALTER COLUMN email SET MASK '" + escapeQuotes(staffEmailMask) + "'",
		"CREATE TABLE dims (id BIGINT, name STRING)",
		"INSERT INTO dims VALUES (3, 'd0'), (4, 'd1'), (5, 'd2')",
		"GRANT SELECT ON events TO '" + alice + "'", "GRANT SELECT ON events TO '" + bob + "'",
		"GRANT SELECT ON dims TO '" + alice + "'", "GRANT SELECT ON dims TO '" + bob + "'",
	} {
		if _, _, err := seed.Execute(context.Background(), "seed", admin, &proto.Plan{Command: &proto.Command{SQL: stmt}}); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	srv := NewServer(Config{Name: "gov", Catalog: cat, Parallelism: 2, Metrics: reg})
	for _, user := range []string{alice, bob} {
		for _, q := range []string{
			"SELECT cat, SUM(v) AS s, COUNT(*) AS n FROM events WHERE v > 250 GROUP BY cat",
			"SELECT id, email, amount FROM events WHERE id = 17",
			"SELECT d.name, SUM(e.v) AS s, COUNT(*) AS n FROM events e JOIN dims d ON e.dim = d.id GROUP BY d.name",
			"SELECT id, amount FROM events ORDER BY amount DESC LIMIT 10",
		} {
			if _, err := queryCanonical(srv, user, q); err != nil {
				t.Fatalf("%s: %q: %v", user, q, err)
			}
		}
	}
	if n, which := fallbacks(reg); n != 0 {
		t.Fatalf("governed_scan statements fell back to the row interpreter %d times: %s", n, which)
	}
	if _, err := queryCanonical(srv, bob, "SELECT id FROM events WHERE email LIKE 'u1%'"); err != nil {
		t.Fatal(err)
	}
	if n, which := fallbacks(reg); n == 0 || !strings.Contains(which, "exec_vec_fallback_Like") {
		t.Fatalf("a LIKE filter was not counted as a fallback: %d (%s)", n, which)
	}
}

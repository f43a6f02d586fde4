package exec

import (
	"sync/atomic"
	"testing"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/catalog"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/sql"
	"lakeguard/internal/types"
)

// countingGroups is a GroupChecker that counts group-set resolutions. With
// flip set, each resolution also moves alice into or out of "auditors"
// right after reading her groups: a group change landing while the query
// that asked is still running.
type countingGroups struct {
	cat     *catalog.Catalog
	flip    bool
	lookups atomic.Int64
}

func (c *countingGroups) GroupsOf(user string) []string {
	c.lookups.Add(1)
	groups := c.cat.GroupsOf(user)
	if c.flip {
		if c.cat.IsGroupMember(alice, "auditors") {
			c.cat.RemoveFromGroup("auditors", alice)
		} else {
			c.cat.CreateGroup("auditors", alice)
		}
	}
	return groups
}

const (
	govFiles   = 10
	govPerFile = 500
	govRows    = govFiles * govPerFile
)

// seedGoverned writes a 5,000-row table across ten files, so the parallel
// scan engages, behind a row filter and a mask that both ask
// IS_ACCOUNT_GROUP_MEMBER on every row. An auditor sees every row
// unmasked; anyone else sees the even rows with b masked to 0.
func seedGoverned(t *testing.T, w *world) {
	t.Helper()
	schema := types.NewSchema(
		types.Field{Name: "a", Kind: types.KindInt64},
		types.Field{Name: "b", Kind: types.KindInt64},
	)
	if err := w.cat.CreateTable(adminCtx(), []string{"gov"}, schema, false, ""); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < govFiles; f++ {
		bb := types.NewBatchBuilder(schema, govPerFile)
		for i := f * govPerFile; i < (f+1)*govPerFile; i++ {
			bb.Column(0).AppendInt64(int64(i))
			bb.Column(1).AppendInt64(int64(i * 3))
		}
		if _, err := w.cat.AppendToTable(adminCtx(), []string{"gov"}, []*types.Batch{bb.Build()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.cat.SetRowFilter(adminCtx(), []string{"gov"}, "IS_ACCOUNT_GROUP_MEMBER('auditors') OR a % 2 = 0", false); err != nil {
		t.Fatal(err)
	}
	if err := w.cat.SetColumnMask(adminCtx(), []string{"gov"}, "b", "CASE WHEN IS_ACCOUNT_GROUP_MEMBER('auditors') THEN b ELSE 0 END", false); err != nil {
		t.Fatal(err)
	}
	if err := w.cat.Grant(adminCtx(), catalog.PrivSelect, []string{"gov"}, alice); err != nil {
		t.Fatal(err)
	}
	w.engine.Parallelism = 4
}

// governedCountSum runs SELECT COUNT(*), SUM(b) over gov as alice with
// group membership resolved through groups.
func governedCountSum(t *testing.T, w *world, groups GroupChecker) (n, sum int64) {
	t.Helper()
	q, err := sql.ParseQuery("SELECT COUNT(*) AS n, SUM(b) AS s FROM gov")
	if err != nil {
		t.Fatal(err)
	}
	ctx := catalog.RequestContext{User: alice, Compute: catalog.ComputeStandard, SessionID: "sa"}
	resolved, err := analyzer.New(w.cat, ctx).Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.engine.ExecuteToBatch(NewQueryContext(groups, ctx), optimizer.Optimize(resolved, optimizer.DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	return b.Cols[0].Int64(0), b.Cols[1].Int64(0)
}

// One governed statement resolves its principal's groups once, however many
// rows and workers evaluate IS_ACCOUNT_GROUP_MEMBER.
func TestGroupSetResolvedOncePerQuery(t *testing.T) {
	w := newWorld(t)
	seedGoverned(t, w)
	groups := &countingGroups{cat: w.cat}
	if n, _ := governedCountSum(t, w, groups); n != govRows/2 {
		t.Fatalf("non-auditor sees %d rows, want %d", n, govRows/2)
	}
	if got := groups.lookups.Load(); got != 1 {
		t.Errorf("group lookups = %d for a %d-row parallel governed query, want 1", got, govRows)
	}
}

// A group change during a parallel query yields exactly one of the two
// authorized views, never rows filtered or masked under both identities.
func TestGroupChangeMidQueryNeverMixesViews(t *testing.T) {
	w := newWorld(t)
	seedGoverned(t, w)
	var allSum int64
	for i := 0; i < govRows; i++ {
		allSum += int64(i * 3)
	}
	member := [2]int64{govRows, allSum}
	nonMember := [2]int64{govRows / 2, 0}
	groups := &countingGroups{cat: w.cat, flip: true}
	for run := 0; run < 6; run++ {
		n, sum := governedCountSum(t, w, groups)
		if got := [2]int64{n, sum}; got != member && got != nonMember {
			t.Fatalf("run %d: (count, sum) = %v, want the auditor view %v or the non-auditor view %v",
				run, got, member, nonMember)
		}
	}
}

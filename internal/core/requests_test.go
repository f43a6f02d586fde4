package core

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lakeguard/internal/connect"
)

// requestCounter counts the HTTP requests a handler serves, by path.
type requestCounter struct {
	next http.Handler
	mu   sync.Mutex
	n    map[string]int
}

func (c *requestCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.n[r.URL.Path]++
	c.mu.Unlock()
	c.next.ServeHTTP(w, r)
}

// take returns the counts since the last take and resets them.
func (c *requestCounter) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = map[string]int{}
	return n
}

// A statement whose answer is one small frame — a governed point query, an
// INSERT, a denied statement — is one HTTP request: its answer releases
// itself in the execute response. An answer too large for that is held, so
// it costs an execute and a release.
func TestRequestsPerStatement(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	counter := &requestCounter{next: e.service.Handler(), n: map[string]int{}}
	ts := httptest.NewServer(counter)
	t.Cleanup(ts.Close)
	adminC := connect.Dial(ts.URL, "tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "ALTER TABLE sales SET ROW FILTER 'region = ''US'''")
	mustExec(t, adminC, "ALTER TABLE sales ALTER COLUMN seller SET MASK 'CASE WHEN IS_ACCOUNT_GROUP_MEMBER(''hr'') THEN seller ELSE ''***'' END'")
	mustExec(t, adminC, "GRANT SELECT ON sales TO 'alice@corp.com'")
	mustExec(t, adminC, "CREATE TABLE big (k BIGINT, s STRING)")
	var values []string
	for i := 0; i < 2000; i++ {
		values = append(values, fmt.Sprintf("(%d, '%s')", i, strings.Repeat("v", 40)))
	}
	mustExec(t, adminC, "INSERT INTO big VALUES "+strings.Join(values, ", "))
	counter.take()

	aliceC := connect.Dial(ts.URL, "tok-alice")
	one := map[string]int{"/v1/execute": 1}
	held := map[string]int{"/v1/execute": 1, "/v1/release": 1}
	for _, tc := range []struct {
		name string
		run  func() error
		want map[string]int
	}{
		{"governed point query", func() error {
			b, err := aliceC.Sql("SELECT seller, amount FROM sales WHERE amount = 100").Collect()
			if err == nil && (b.NumRows() != 1 || b.Cols[0].StringAt(0) != "***") {
				err = fmt.Errorf("answer:\n%s", b.String())
			}
			return err
		}, one},
		{"insert", func() error {
			_, err := adminC.ExecSQL("INSERT INTO sales VALUES (10, CAST('2024-12-03' AS DATE), 'eve', 'US')")
			return err
		}, one},
		{"denied statement", func() error {
			if _, err := aliceC.Table("big").Collect(); err == nil {
				return fmt.Errorf("alice read a table she holds no grant on")
			}
			return nil
		}, one},
		{"held answer", func() error {
			b, err := adminC.Table("big").Collect()
			if err == nil && b.NumRows() != 2000 {
				err = fmt.Errorf("%d rows, want 2000", b.NumRows())
			}
			return err
		}, held},
	} {
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := counter.take()
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: requests %v, want %v", tc.name, got, tc.want)
		}
	}
}

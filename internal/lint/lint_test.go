package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLintClean is the tier-1 gate: the repository itself must satisfy its
// own architecture rules.
func TestLintClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(root)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// writeModule materializes a synthetic module named "lakeguard" (so the
// default boundary and context rules apply) and lints it.
func lintModule(t *testing.T, files map[string]string) []Finding {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module lakeguard\n\ngo 1.22\n"
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewRunner(root)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func wantRule(t *testing.T, findings []Finding, rule, inMessage string) {
	t.Helper()
	for _, f := range findings {
		if f.Rule == rule && (inMessage == "" || strings.Contains(f.Message, inMessage)) {
			return
		}
	}
	t.Fatalf("no %s finding (containing %q) in %v", rule, inMessage, findings)
}

func wantNoRule(t *testing.T, findings []Finding, rule string) {
	t.Helper()
	for _, f := range findings {
		if f.Rule == rule {
			t.Fatalf("unexpected %s finding: %s", rule, f)
		}
	}
}

func TestImportBoundaryViolation(t *testing.T) {
	findings := lintModule(t, map[string]string{
		"internal/catalog/catalog.go": "package catalog\n\n// V is exported.\nvar V = 1\n",
		"internal/exec/engine.go":     "package exec\n\nimport \"lakeguard/internal/catalog\"\n\n// V re-exports.\nvar V = catalog.V\n",
	})
	wantRule(t, findings, RuleImportBoundary, "internal/exec must not import internal/catalog")
}

func TestImportBoundarySubpackage(t *testing.T) {
	findings := lintModule(t, map[string]string{
		"internal/storage/blob/blob.go": "package blob\n\n// V is exported.\nvar V = 1\n",
		"internal/exec/vector/sum.go":   "package vector\n\nimport \"lakeguard/internal/storage/blob\"\n\n// V re-exports.\nvar V = blob.V\n",
	})
	wantRule(t, findings, RuleImportBoundary, "internal/exec must not import internal/storage")
}

func TestImportBoundaryAllowsOthers(t *testing.T) {
	findings := lintModule(t, map[string]string{
		"internal/core/core.go":       "package core\n\nimport \"lakeguard/internal/catalog\"\n\n// V re-exports.\nvar V = catalog.V\n",
		"internal/catalog/catalog.go": "package catalog\n\n// V is exported.\nvar V = 1\n",
	})
	wantNoRule(t, findings, RuleImportBoundary)
}

// No production package may evaluate through the reference interpreter;
// tests, which the linter skips, may.
func TestImportBoundaryEvalOracle(t *testing.T) {
	oracle := "package evaltest\n\n// V is exported.\nvar V = 1\n"
	use := func(pkg string) string {
		return "package " + pkg + "\n\nimport \"lakeguard/internal/eval/evaltest\"\n\n// V re-exports.\nvar V = evaltest.V\n"
	}
	for path, pkg := range map[string]string{"internal/exec/engine.go": "exec", "cmd/lakeguard-server/main.go": "main"} {
		findings := lintModule(t, map[string]string{
			"internal/eval/evaltest/evaltest.go": oracle,
			path:                                 use(pkg),
		})
		wantRule(t, findings, RuleImportBoundary, "must not import internal/eval/evaltest")
	}
	findings := lintModule(t, map[string]string{
		"internal/eval/evaltest/evaltest.go": oracle,
		"internal/exec/oracle_test.go":       use("exec"),
	})
	wantNoRule(t, findings, RuleImportBoundary)
}

func TestErrWrapViolation(t *testing.T) {
	findings := lintModule(t, map[string]string{
		"internal/a/a.go": `package a

import (
	"errors"
	"fmt"
)

// Bad drops the error chain.
func Bad() error {
	err := errors.New("inner")
	return fmt.Errorf("outer: %v", err)
}

// Good wraps.
func Good() error {
	err := errors.New("inner")
	return fmt.Errorf("outer: %w", err)
}

// NotAnError formats a plain value.
func NotAnError(n int) error {
	return fmt.Errorf("bad count: %d", n)
}
`,
	})
	wantRule(t, findings, RuleErrWrap, "")
	count := 0
	for _, f := range findings {
		if f.Rule == RuleErrWrap {
			count++
			if f.Line != 11 {
				t.Errorf("errwrap finding at line %d, want 11", f.Line)
			}
		}
	}
	if count != 1 {
		t.Errorf("errwrap findings = %d, want exactly 1 (Good and NotAnError are fine)", count)
	}
}

func TestLockByValueViolation(t *testing.T) {
	findings := lintModule(t, map[string]string{
		"internal/a/a.go": `package a

import "sync"

// Guarded holds a lock.
type Guarded struct {
	mu sync.Mutex
	n  int
}

// Bad copies the lock.
func Bad(g Guarded) int { return g.n }

// BadRecv copies via the receiver.
func (g Guarded) BadRecv() int { return g.n }

// Good takes a pointer.
func Good(g *Guarded) int { return g.n }
`,
	})
	count := 0
	for _, f := range findings {
		if f.Rule == RuleLockByValue {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("lock-by-value findings = %d, want 2 (param and receiver): %v", count, findings)
	}
}

func TestSecurityContextViolation(t *testing.T) {
	findings := lintModule(t, map[string]string{
		"internal/security/security.go": `package security

// RequestContext identifies a caller.
type RequestContext struct {
	User string
}
`,
		"internal/catalog/catalog.go": `package catalog

import "lakeguard/internal/security"

// RequestContext aliases the shared model.
type RequestContext = security.RequestContext

// Catalog is the metastore.
type Catalog struct{}

// Drop has no caller identity: must be flagged.
func (c *Catalog) Drop(name string) error { return nil }

// Resolve carries the context via the alias: fine.
func (c *Catalog) Resolve(ctx RequestContext, name string) error { return nil }

// Audit is exempt infrastructure.
func (c *Catalog) Audit() int { return 0 }

// internalHelper is unexported: out of scope.
func (c *Catalog) internalHelper() {}
`,
		"internal/core/core.go": `package core

// Server is a cluster.
type Server struct{}

// Execute carries identity through session parameters: fine.
func (s *Server) Execute(sessionID, user string) error { return nil }

// Leak has no identity: must be flagged.
func (s *Server) Leak() error { return nil }
`,
	})
	wantRule(t, findings, RuleSecurityContext, "Catalog.Drop")
	wantRule(t, findings, RuleSecurityContext, "Server.Leak")
	count := 0
	for _, f := range findings {
		if f.Rule == RuleSecurityContext {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("security-context findings = %d, want 2: %v", count, findings)
	}
}

func TestTypecheckFailureReported(t *testing.T) {
	findings := lintModule(t, map[string]string{
		"internal/a/a.go": "package a\n\n// V is mistyped.\nvar V int = \"not an int\"\n",
	})
	wantRule(t, findings, RuleTypecheck, "")
}

func TestTestFilesAreExcluded(t *testing.T) {
	findings := lintModule(t, map[string]string{
		"internal/catalog/catalog.go":  "package catalog\n\n// V is exported.\nvar V = 1\n",
		"internal/exec/engine.go":      "package exec\n\n// V is exported.\nvar V = 1\n",
		"internal/exec/engine_test.go": "package exec\n\nimport (\n\t\"testing\"\n\n\t\"lakeguard/internal/catalog\"\n)\n\nfunc TestV(t *testing.T) { _ = catalog.V }\n",
	})
	wantNoRule(t, findings, RuleImportBoundary)
}

func TestSelectDoneViolation(t *testing.T) {
	findings := lintModule(t, map[string]string{
		"internal/sandbox/sandbox.go": `package sandbox

// Wait blocks on a sandbox channel with no escape arm.
func Wait(respCh <-chan int, other chan int) int {
	select {
	case v := <-respCh:
		return v
	case other <- 1:
		return 0
	}
}
`,
	})
	wantRule(t, findings, RuleSelectDone, "no escape arm")
}

func TestSelectDoneEscapeArmsAccepted(t *testing.T) {
	findings := lintModule(t, map[string]string{
		"internal/sandbox/sandbox.go": `package sandbox

import (
	"context"
	"time"
)

// WaitDone escapes via a done channel.
func WaitDone(respCh <-chan int, done <-chan struct{}) int {
	select {
	case v := <-respCh:
		return v
	case <-done:
		return -1
	}
}

// WaitCtx escapes via ctx.Done().
func WaitCtx(ctx context.Context, respCh <-chan int) int {
	select {
	case v := <-respCh:
		return v
	case <-ctx.Done():
		return -1
	}
}

// WaitTimer escapes via a timer arm.
func WaitTimer(respCh <-chan int, t *time.Timer, timeoutC <-chan time.Time) int {
	select {
	case v := <-respCh:
		return v
	case <-t.C:
		return -1
	case <-timeoutC:
		return -2
	}
}

// Poll escapes via default.
func Poll(respCh <-chan int) int {
	select {
	case v := <-respCh:
		return v
	default:
		return -1
	}
}
`,
	})
	wantNoRule(t, findings, RuleSelectDone)
}

func TestSelectDoneScopedToSandbox(t *testing.T) {
	// The same escape-free select outside internal/sandbox is not flagged:
	// the rule encodes the sandbox layer's liveness contract, not a global
	// style preference.
	findings := lintModule(t, map[string]string{
		"internal/gateway/gw.go": `package gateway

// Wait blocks without an escape arm; allowed outside the sandbox layer.
func Wait(ch <-chan int) int {
	select {
	case v := <-ch:
		return v
	}
}
`,
	})
	wantNoRule(t, findings, RuleSelectDone)
}

// spanFixture is a minimal telemetry package the span-end rule resolves
// against (matched by type name Span in a package path ending in
// internal/telemetry).
const spanFixture = `package telemetry

import "context"

// Span is one traced operation.
type Span struct{ name string }

// End closes the span.
func (s *Span) End() {}

// EndErr closes the span recording err.
func (s *Span) EndErr(err error) {}

// SetAttr annotates the span.
func (s *Span) SetAttr(k, v string) {}

// StartSpan opens a child span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, &Span{name: name}
}

// SpanFrom returns the ambient span without opening one.
func SpanFrom(ctx context.Context) *Span { return nil }
`

func TestSpanEndViolation(t *testing.T) {
	findings := lintModule(t, map[string]string{
		"internal/telemetry/telemetry.go": spanFixture,
		"internal/gateway/gw.go": `package gateway

import (
	"context"

	"lakeguard/internal/telemetry"
)

// Leak starts a span, annotates it, and never ends it.
func Leak(ctx context.Context) {
	_, sp := telemetry.StartSpan(ctx, "gateway.leak")
	sp.SetAttr("k", "v")
}
`,
	})
	wantRule(t, findings, RuleSpanEnd, "span sp is started but never ended")
}

func TestSpanEndBlankViolation(t *testing.T) {
	findings := lintModule(t, map[string]string{
		"internal/telemetry/telemetry.go": spanFixture,
		"internal/gateway/gw.go": `package gateway

import (
	"context"

	"lakeguard/internal/telemetry"
)

// Drop discards the span result outright.
func Drop(ctx context.Context) context.Context {
	ctx, _ = telemetry.StartSpan(ctx, "gateway.drop")
	return ctx
}
`,
	})
	wantRule(t, findings, RuleSpanEnd, "bound to _")
}

func TestSpanEndAccepted(t *testing.T) {
	findings := lintModule(t, map[string]string{
		"internal/telemetry/telemetry.go": spanFixture,
		"internal/gateway/gw.go": `package gateway

import (
	"context"
	"errors"

	"lakeguard/internal/telemetry"
)

// holder owns a span; its Close ends it.
type holder struct{ sp *telemetry.Span }

// Ended ends via EndErr.
func Ended(ctx context.Context) error {
	_, sp := telemetry.StartSpan(ctx, "a")
	err := errors.New("x")
	sp.EndErr(err)
	return err
}

// Deferred ends via defer.
func Deferred(ctx context.Context) {
	_, sp := telemetry.StartSpan(ctx, "b")
	defer sp.End()
}

// Escapes hands spans to an owner: a call, a struct, a return.
func Escapes(ctx context.Context) *telemetry.Span {
	var spans []*telemetry.Span
	_, ws := telemetry.StartSpan(ctx, "c")
	spans = append(spans, ws)
	endAll(spans)
	_, held := telemetry.StartSpan(ctx, "d")
	h := holder{sp: held}
	_ = h
	_, ret := telemetry.StartSpan(ctx, "e")
	return ret
}

// Ambient reads the ambient span without starting one: no End obligation.
func Ambient(ctx context.Context) {
	sp := telemetry.SpanFrom(ctx)
	sp.SetAttr("k", "v")
}

func endAll(spans []*telemetry.Span) {
	for _, s := range spans {
		s.End()
	}
}
`,
	})
	wantNoRule(t, findings, RuleSpanEnd)
}

// exprInErrorPlan is a minimal stand-in for internal/plan: the Expr
// interface, one concrete expression, and the sanctioned redactor.
const exprInErrorPlan = `package plan

// Expr is a plan expression.
type Expr interface{ String() string }

// Lit is a literal expression.
type Lit struct{ V string }

// String renders the literal (leaks V).
func (l *Lit) String() string { return l.V }

// RedactedString renders e with literal values elided.
func RedactedString(e Expr) string { _ = e; return "<redacted>" }
`

func TestExprInErrorViolation(t *testing.T) {
	findings := lintModule(t, map[string]string{
		"internal/plan/expr.go": exprInErrorPlan,
		"internal/sentinel/s.go": `package sentinel

import (
	"fmt"

	"lakeguard/internal/plan"
)

// BadDirect formats the expression value itself.
func BadDirect(e plan.Expr) error { return fmt.Errorf("predicate %v rejected", e) }

// BadString launders the expression through String().
func BadString(l *plan.Lit) string { return fmt.Sprintf("predicate %s rejected", l.String()) }
`,
	})
	n := 0
	for _, f := range findings {
		if f.Rule == RuleExprInError {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("want 2 expr-in-error findings, got %d in %v", n, findings)
	}
}

func TestExprInErrorAcceptsRedaction(t *testing.T) {
	findings := lintModule(t, map[string]string{
		"internal/plan/expr.go": exprInErrorPlan,
		"internal/sentinel/s.go": `package sentinel

import (
	"fmt"

	"lakeguard/internal/plan"
)

// GoodRedacted uses the sanctioned form.
func GoodRedacted(e plan.Expr) error { return fmt.Errorf("predicate %s rejected", plan.RedactedString(e)) }

// GoodType only names the dynamic type — no literals leak through %T.
func GoodType(e plan.Expr) error { return fmt.Errorf("unsupported expression %T", e) }
`,
	})
	wantNoRule(t, findings, RuleExprInError)
}

// TestExprInErrorScoped proves the rule only bites on the boundary packages:
// the engine may format expressions in internal diagnostics.
func TestExprInErrorScoped(t *testing.T) {
	findings := lintModule(t, map[string]string{
		"internal/plan/expr.go": exprInErrorPlan,
		"internal/exec/e.go": `package exec

import (
	"fmt"

	"lakeguard/internal/plan"
)

// Debug formats an expression outside the governance boundary.
func Debug(e plan.Expr) string { return fmt.Sprintf("exec over %v", e) }
`,
	})
	wantNoRule(t, findings, RuleExprInError)
}

// Package lint is the Lakeguard architecture linter. It enforces, with the
// standard library's go/ast, go/parser, and go/types only, the structural
// rules the security model depends on but the compiler cannot express:
//
//   - import boundaries: enforcement-layer packages (exec, optimizer,
//     sandbox) must not import the catalog or storage directly — the only
//     route to governed bytes is a vended credential — and user-code
//     plumbing (udf) must not import the engine;
//   - error wrapping: fmt.Errorf calls that forward an error must use %w so
//     callers can errors.Is/As through layer boundaries;
//   - lock hygiene: no function signature passes a sync lock by value
//     (a copied mutex silently stops guarding);
//   - security context: every exported entry point on the governance
//     surfaces (catalog.Catalog, core.Server) must carry the caller's
//     security context — a security.RequestContext parameter or explicit
//     sessionID/user strings — so no privileged path can be called without
//     an identity to attribute it to;
//   - span hygiene: every *telemetry.Span obtained from StartSpan/StartTrace
//     must be ended (.End/.EndErr) or handed off (returned, stored, passed
//     to a closer) in the function that starts it — a leaked span corrupts
//     trace durations and the tracer's open-span accounting;
//   - expression redaction: verifier and analyzer messages (internal/sentinel,
//     internal/analyzer) must not format plan expressions directly — a policy
//     predicate rendered into an error leaks the very literals (tenant IDs,
//     salary thresholds) the policy exists to hide. plan.RedactedString is
//     the sanctioned form.
//
// The linter analyzes production code: _test.go files are excluded (tests
// legitimately cross layers to stage fixtures). Findings are structured for
// machine consumption; cmd/lakeguard-lint renders them as text or JSON.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	File    string `json:"file"` // relative to the module root
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Rule names.
const (
	RuleImportBoundary  = "import-boundary"
	RuleErrWrap         = "errwrap"
	RuleLockByValue     = "lock-by-value"
	RuleSecurityContext = "security-context"
	RuleSelectDone      = "select-done"
	RuleSpanEnd         = "span-end"
	RuleExprInError     = "expr-in-error"
	RuleTypecheck       = "typecheck"
)

// Boundary forbids one package (and its subpackages) from importing another.
type Boundary struct {
	Pkg       string // module-relative package path
	Forbidden string // module-relative package path it must not import
	Why       string
}

// DefaultBoundaries is the Lakeguard layering contract.
var DefaultBoundaries = []Boundary{
	{"internal/exec", "internal/catalog", "the engine reads governed data only through vended credentials (TableProvider)"},
	{"internal/exec", "internal/storage", "the engine must not reach the object store behind the credential check"},
	{"internal/optimizer", "internal/catalog", "plan rewrites must not depend on governance state"},
	{"internal/optimizer", "internal/storage", "plan rewrites must not touch storage"},
	{"internal/sandbox", "internal/catalog", "sandboxed user code must have no path to governance APIs"},
	{"internal/sandbox", "internal/storage", "sandboxed user code must have no path to the object store"},
	{"internal/udf", "internal/exec", "user-code plumbing must not depend on the engine that isolates it"},
	{"internal", "internal/eval/evaltest", evalOracleWhy},
	{"cmd", "internal/eval/evaltest", evalOracleWhy},
}

// evalOracleWhy keeps the reference interpreter a test oracle: production
// evaluates expressions only through compiled programs.
const evalOracleWhy = "the row-at-a-time reference interpreter is a test oracle; production evaluates compiled programs"

// ctxExempt are exported methods on the governance surfaces that are
// infrastructure accessors or deployment-time setup, not per-request entry
// points, and therefore carry no caller identity.
var ctxExempt = map[string]map[string]bool{
	"Catalog": {
		"Audit": true, "Store": true, "AddAdmin": true, "CreateGroup": true,
		"RemoveFromGroup": true, "IsGroupMember": true, "GroupsOf": true,
		"SetMetrics": true,
		// The system-table surface is driven by the in-process spooler and
		// retention sweeper, not by callers with identities: writes refuse
		// any table outside the reserved catalog, and per-tenant access is
		// enforced on the read path by the governed scan's row filter.
		"EnsureSystemTable": true, "AppendSystemTable": true,
		"SystemTableCount": true, "TruncateSystemTableBefore": true,
		// Spooler-driven system-table maintenance (engine identity, audited
		// as such) and deployment-time checkpoint-interval setup.
		"MaintainSystemTable": true, "SetCheckpointInterval": true,
	},
	"Server": {
		"Catalog": true, "Dispatcher": true, "ClusterManager": true,
		"Compute": true, "ActiveSessions": true, "SessionStore": true,
	},
}

// ctxReceivers are the receiver types the security-context rule applies to,
// keyed by module-relative package path.
var ctxReceivers = map[string]map[string]bool{
	"internal/catalog": {"Catalog": true},
	"internal/core":    {"Server": true},
}

// pkg is one parsed (and later typechecked) module package.
type pkg struct {
	rel   string // module-relative dir, "" for root
	path  string // import path
	dir   string
	files []*ast.File
	names []string // file names parallel to files
	// internal imports (module-relative) for topo ordering.
	deps  map[string]bool
	tpkg  *types.Package
	info  *types.Info
	broke bool // typecheck failed; type-based rules skipped
}

// Runner lints one module.
type Runner struct {
	Root       string
	Module     string
	Boundaries []Boundary

	fset *token.FileSet
	pkgs map[string]*pkg // by rel
}

// NewRunner prepares a linter for the module rooted at root (the directory
// containing go.mod).
func NewRunner(root string) (*Runner, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Runner{
		Root:       root,
		Module:     mod,
		Boundaries: DefaultBoundaries,
		fset:       token.NewFileSet(),
		pkgs:       map[string]*pkg{},
	}, nil
}

// Run parses, typechecks, and applies every rule, returning findings sorted
// by position.
func (r *Runner) Run() ([]Finding, error) {
	if err := r.load(); err != nil {
		return nil, err
	}
	var out []Finding
	out = append(out, r.checkBoundaries()...)
	out = append(out, r.typecheckAll()...)
	for _, p := range r.sorted() {
		if p.broke {
			continue
		}
		out = append(out, r.checkErrWrap(p)...)
		out = append(out, r.checkLockByValue(p)...)
		out = append(out, r.checkSecurityContext(p)...)
		out = append(out, r.checkSelectDone(p)...)
		out = append(out, r.checkSpanEnd(p)...)
		out = append(out, r.checkExprInError(p)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Rule < out[j].Rule
	})
	return out, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading module file: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// load parses every production .go file in the module.
func (r *Runner) load() error {
	return filepath.WalkDir(r.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != r.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(r.fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(r.Root, dir)
		if err != nil {
			return err
		}
		if rel == "." {
			rel = ""
		}
		rel = filepath.ToSlash(rel)
		p := r.pkgs[rel]
		if p == nil {
			importPath := r.Module
			if rel != "" {
				importPath = r.Module + "/" + rel
			}
			p = &pkg{rel: rel, path: importPath, dir: dir, deps: map[string]bool{}}
			r.pkgs[rel] = p
		}
		p.files = append(p.files, file)
		p.names = append(p.names, path)
		for _, imp := range file.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if rest, ok := strings.CutPrefix(ip, r.Module+"/"); ok {
				p.deps[rest] = true
			}
		}
		return nil
	})
}

func (r *Runner) relFile(pos token.Pos) (string, int, int) {
	p := r.fset.Position(pos)
	rel, err := filepath.Rel(r.Root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return filepath.ToSlash(rel), p.Line, p.Column
}

func (r *Runner) finding(pos token.Pos, rule, format string, args ...any) Finding {
	file, line, col := r.relFile(pos)
	return Finding{File: file, Line: line, Col: col, Rule: rule, Message: fmt.Sprintf(format, args...)}
}

func (r *Runner) sorted() []*pkg {
	rels := make([]string, 0, len(r.pkgs))
	for rel := range r.pkgs {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	out := make([]*pkg, len(rels))
	for i, rel := range rels {
		out[i] = r.pkgs[rel]
	}
	return out
}

// --- rule: import boundaries ---------------------------------------------

func within(rel, root string) bool {
	return rel == root || strings.HasPrefix(rel, root+"/")
}

func (r *Runner) checkBoundaries() []Finding {
	var out []Finding
	for _, p := range r.sorted() {
		for i, file := range p.files {
			_ = i
			for _, imp := range file.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				rest, ok := strings.CutPrefix(ip, r.Module+"/")
				if !ok {
					continue
				}
				for _, b := range r.Boundaries {
					if within(p.rel, b.Pkg) && within(rest, b.Forbidden) {
						out = append(out, r.finding(imp.Pos(), RuleImportBoundary,
							"%s must not import %s: %s", b.Pkg, b.Forbidden, b.Why))
					}
				}
			}
		}
	}
	return out
}

// --- typechecking ---------------------------------------------------------

// moduleImporter resolves module-internal packages from the checked set and
// everything else (the standard library) from source.
type moduleImporter struct {
	std  types.Importer
	mod  string
	pkgs map[string]*types.Package // by import path
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	if path == m.mod || strings.HasPrefix(path, m.mod+"/") {
		return nil, fmt.Errorf("lint: internal package %s not yet checked (dependency cycle?)", path)
	}
	return m.std.Import(path)
}

// typecheckAll checks packages in dependency order. A package that fails to
// typecheck produces a finding and is skipped by type-based rules.
func (r *Runner) typecheckAll() []Finding {
	var out []Finding
	mi := &moduleImporter{
		std:  importer.ForCompiler(r.fset, "source", nil),
		mod:  r.Module,
		pkgs: map[string]*types.Package{},
	}
	checked := map[string]bool{}
	var check func(rel string)
	check = func(rel string) {
		p := r.pkgs[rel]
		if p == nil || checked[rel] {
			return
		}
		checked[rel] = true
		for dep := range p.deps {
			check(dep)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
			Defs:  map[*ast.Ident]types.Object{},
		}
		var firstErr error
		conf := types.Config{
			Importer: mi,
			Error: func(err error) {
				if firstErr == nil {
					firstErr = err
				}
			},
		}
		tpkg, err := conf.Check(p.path, r.fset, p.files, info)
		if firstErr == nil {
			firstErr = err
		}
		if firstErr != nil {
			p.broke = true
			pos := token.NoPos
			if te, ok := firstErr.(types.Error); ok {
				pos = te.Pos
			}
			out = append(out, r.finding(pos, RuleTypecheck, "package %s does not typecheck: %v", p.path, firstErr))
			return
		}
		p.tpkg = tpkg
		p.info = info
		mi.pkgs[p.path] = tpkg
	}
	for _, p := range r.sorted() {
		check(p.rel)
	}
	return out
}

// --- rule: fmt.Errorf must wrap forwarded errors with %w ------------------

func (r *Runner) checkErrWrap(p *pkg) []Finding {
	errType := types.Universe.Lookup("error").Type()
	var out []Finding
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Errorf" {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.info.Uses[ident].(*types.PkgName)
			if !ok || pn.Imported().Path() != "fmt" {
				return true
			}
			if len(call.Args) < 2 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true // dynamic format string; out of scope
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil || strings.Contains(format, "%w") {
				return true
			}
			for _, arg := range call.Args[1:] {
				t := p.info.TypeOf(arg)
				if t != nil && types.AssignableTo(t, errType) {
					out = append(out, r.finding(call.Pos(), RuleErrWrap,
						"fmt.Errorf forwards an error without %%w; callers cannot errors.Is/As through it"))
					break
				}
			}
			return true
		})
	}
	return out
}

// --- rule: no sync locks passed by value ----------------------------------

// lockKinds are the sync types that must never be copied.
var lockKinds = map[string]bool{
	"Mutex": true, "RWMutex": true, "Once": true, "WaitGroup": true,
	"Cond": true, "Pool": true, "Map": true,
}

func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		if obj := u.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync" && lockKinds[obj.Name()] {
			return true
		}
		return containsLock(u.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}

func (r *Runner) checkLockByValue(p *pkg) []Finding {
	var out []Finding
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var recv *ast.FieldList
			switch d := n.(type) {
			case *ast.FuncDecl:
				ftype, recv = d.Type, d.Recv
			case *ast.FuncLit:
				ftype = d.Type
			default:
				return true
			}
			checkList := func(fl *ast.FieldList, what string) {
				if fl == nil {
					return
				}
				for _, field := range fl.List {
					t := p.info.TypeOf(field.Type)
					if t == nil {
						continue
					}
					if _, isPtr := t.(*types.Pointer); isPtr {
						continue
					}
					if containsLock(t, map[types.Type]bool{}) {
						out = append(out, r.finding(field.Pos(), RuleLockByValue,
							"%s copies a sync lock by value (type %s); pass a pointer", what, t))
					}
				}
			}
			checkList(recv, "receiver")
			checkList(ftype.Params, "parameter")
			checkList(ftype.Results, "result")
			return true
		})
	}
	return out
}

// --- rule: governance entry points carry a security context ---------------

// isRequestContext matches security.RequestContext (and therefore its
// aliases, which resolve to the same named type).
func isRequestContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "RequestContext" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "/internal/security")
}

func (r *Runner) checkSecurityContext(p *pkg) []Finding {
	receivers := ctxReceivers[p.rel]
	if receivers == nil {
		return nil
	}
	var out []Finding
	for _, file := range p.files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() {
				continue
			}
			recvName := receiverTypeName(fn.Recv)
			if !receivers[recvName] {
				continue
			}
			if ctxExempt[recvName][fn.Name.Name] {
				continue
			}
			if r.signatureCarriesContext(p, fn.Type) {
				continue
			}
			out = append(out, r.finding(fn.Pos(), RuleSecurityContext,
				"exported entry point %s.%s takes no security context (add a security.RequestContext or sessionID/user parameters, or exempt it as infrastructure)",
				recvName, fn.Name.Name))
		}
	}
	return out
}

// --- rule: sandbox selects must have an escape arm ------------------------

// selectDonePkgs are the packages whose channel operations synchronize with
// potentially-dead user code: every select there needs an escape arm (a
// receive from a done channel, a ctx.Done()/timer arm, or a default clause),
// or a wedged interpreter wedges the engine goroutine with it.
var selectDonePkgs = map[string]bool{
	"internal/sandbox": true,
}

func (r *Runner) checkSelectDone(p *pkg) []Finding {
	if !selectDonePkgs[p.rel] {
		return nil
	}
	var out []Finding
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			for _, stmt := range sel.Body.List {
				if comm, ok := stmt.(*ast.CommClause); ok && commIsEscape(comm) {
					return true
				}
			}
			out = append(out, r.finding(sel.Pos(), RuleSelectDone,
				"select in %s has no escape arm (receive from a done channel, ctx.Done(), a timer, or default); a dead sandbox would block this goroutine forever", p.rel))
			return true
		})
	}
	return out
}

// commIsEscape reports whether one select clause lets the goroutine escape a
// dead peer: a default clause, or a receive from a teardown/deadline channel
// (done, ctx.Done(), a timer's C, or a <-chan time.Time like timeoutC).
func commIsEscape(comm *ast.CommClause) bool {
	if comm.Comm == nil {
		return true // default:
	}
	var ch ast.Expr
	switch s := comm.Comm.(type) {
	case *ast.ExprStmt:
		if u, ok := s.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			ch = u.X
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				ch = u.X
			}
		}
	}
	if ch == nil {
		return false // send clause
	}
	return chanIsEscape(ch)
}

func chanIsEscape(ch ast.Expr) bool {
	switch e := ch.(type) {
	case *ast.Ident:
		return escapeChanName(e.Name)
	case *ast.SelectorExpr:
		// s.done, timer.C, ctx.Done() receiver chains.
		return escapeChanName(e.Sel.Name)
	case *ast.CallExpr:
		// ctx.Done() (or any method named Done returning the escape channel).
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "Done"
		}
	}
	return false
}

// escapeChanName matches the teardown/deadline channel naming convention the
// sandbox layer uses: done channels, timer .C fields, and timeout channels.
func escapeChanName(name string) bool {
	return name == "done" || name == "C" || strings.HasPrefix(name, "timeout")
}

// --- rule: started spans must be ended or handed off ----------------------

// isSpanPtr matches *telemetry.Span.
func isSpanPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Span" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "/internal/telemetry")
}

// isSpanStartCall matches calls that open a span: telemetry.StartSpan,
// Tracer.StartTrace, and any local helper following the Start*/start*
// naming convention. Accessors that merely return an existing span (Root,
// SpanFrom) are not starts and carry no End obligation.
func isSpanStartCall(call *ast.CallExpr) bool {
	var name string
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	default:
		return false
	}
	return strings.HasPrefix(name, "Start") || strings.HasPrefix(name, "start")
}

// checkSpanEnd flags spans that are started and then dropped. A span counts
// as handled when, somewhere in the same file after its binding, it is ended
// (a .End() or .EndErr(...) call, possibly deferred) or it escapes the
// starting function — passed to another call (endSpans, append), returned,
// stored in a composite literal, or assigned onward (e.g. to a struct field)
// — in which case the receiver owns ending it. Binding the span result to
// the blank identifier is always a violation: a traced request would leak an
// open span on every execution.
func (r *Runner) checkSpanEnd(p *pkg) []Finding {
	var out []Finding
	for _, file := range p.files {
		// Pass 1: collect span bindings.
		type binding struct {
			pos  token.Pos
			name string
		}
		var blanks []token.Pos
		tracked := map[types.Object]binding{}
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || !isSpanStartCall(call) {
				return true
			}
			ct := p.info.TypeOf(call)
			if ct == nil {
				return true
			}
			record := func(lhs ast.Expr) {
				ident, ok := lhs.(*ast.Ident)
				if !ok {
					return // stored into a field/index: the holder owns it
				}
				if ident.Name == "_" {
					blanks = append(blanks, ident.Pos())
					return
				}
				obj := p.info.Defs[ident]
				if obj == nil {
					obj = p.info.Uses[ident]
				}
				if obj != nil {
					tracked[obj] = binding{pos: ident.Pos(), name: ident.Name}
				}
			}
			if tuple, ok := ct.(*types.Tuple); ok {
				for i := 0; i < tuple.Len() && i < len(as.Lhs); i++ {
					if isSpanPtr(tuple.At(i).Type()) {
						record(as.Lhs[i])
					}
				}
			} else if isSpanPtr(ct) && len(as.Lhs) == 1 {
				record(as.Lhs[0])
			}
			return true
		})
		for _, pos := range blanks {
			out = append(out, r.finding(pos, RuleSpanEnd,
				"span result of StartSpan/StartTrace bound to _; end it (.End/.EndErr) or hand it off, or a traced request leaks an open span"))
		}
		if len(tracked) == 0 {
			continue
		}

		// Pass 2: look for an ending or escaping use of each binding.
		handled := map[types.Object]bool{}
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			ident, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.info.Uses[ident]
			if obj == nil {
				return true
			}
			if _, ok := tracked[obj]; !ok {
				return true
			}
			if spanUseHandles(stack) {
				handled[obj] = true
			}
			return true
		})
		for obj, b := range tracked {
			if handled[obj] {
				continue
			}
			out = append(out, r.finding(b.pos, RuleSpanEnd,
				"span %s is started but never ended or handed off; call .End()/.EndErr(err) on every path or pass it to an owner that does", b.name))
		}
	}
	return out
}

// spanUseHandles classifies one use of a span variable (the last node on the
// stack) as ending/escaping or not.
func spanUseHandles(stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	ident := stack[len(stack)-1].(*ast.Ident)
	parent := stack[len(stack)-2]
	switch pn := parent.(type) {
	case *ast.SelectorExpr:
		// sp.End() / sp.EndErr(err); attribute setters don't end the span.
		if pn.X == ident && (pn.Sel.Name == "End" || pn.Sel.Name == "EndErr") {
			return true
		}
	case *ast.CallExpr:
		// Passed as an argument (endSpans(...), append(wspans, sp), ...).
		for _, arg := range pn.Args {
			if arg == ident {
				return true
			}
		}
	case *ast.ReturnStmt:
		return true
	case *ast.CompositeLit, *ast.KeyValueExpr:
		return true
	case *ast.AssignStmt:
		// Assigned onward (struct field, slice element, another variable).
		for _, rhs := range pn.Rhs {
			if rhs == ident {
				return true
			}
		}
	}
	return false
}

// --- rule: no plan expressions formatted into verifier/analyzer messages ---

// exprErrPkgs are the packages whose error and message strings cross the
// governance boundary back to untrusted callers: a plan expression rendered
// there leaks policy predicate literals (tenant IDs, thresholds) verbatim.
var exprErrPkgs = map[string]bool{
	"internal/sentinel": true,
	"internal/analyzer": true,
}

// fmtMessageFns are the fmt functions whose output becomes an error or
// message string.
var fmtMessageFns = map[string]bool{
	"Errorf": true, "Sprintf": true, "Sprint": true, "Sprintln": true,
}

// planExprIface resolves the lakeguard/internal/plan.Expr interface from the
// package's typechecked imports (nil when the package never imports plan —
// then nothing it formats can be an Expr).
func planExprIface(p *pkg) *types.Interface {
	for _, imp := range p.tpkg.Imports() {
		if !strings.HasSuffix(imp.Path(), "/internal/plan") {
			continue
		}
		obj := imp.Scope().Lookup("Expr")
		if obj == nil {
			continue
		}
		if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
			return iface
		}
	}
	return nil
}

// formatVerbs returns the verb letter each successive Printf argument is
// consumed by ('*' for a dynamic width/precision argument). Flags, widths,
// and %% are skipped.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) {
			c := format[i]
			if c == '%' {
				break
			}
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
				verbs = append(verbs, c)
				break
			}
			i++
		}
	}
	return verbs
}

func implementsPlanExpr(t types.Type, iface *types.Interface) bool {
	if t == nil {
		return false
	}
	if types.Implements(t, iface) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

func (r *Runner) checkExprInError(p *pkg) []Finding {
	if !exprErrPkgs[p.rel] {
		return nil
	}
	iface := planExprIface(p)
	if iface == nil {
		return nil
	}
	var out []Finding
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !fmtMessageFns[sel.Sel.Name] {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.info.Uses[ident].(*types.PkgName)
			if !ok || pn.Imported().Path() != "fmt" {
				return true
			}
			args := call.Args
			var verbs []byte
			if sel.Sel.Name == "Errorf" || sel.Sel.Name == "Sprintf" {
				if len(args) < 2 {
					return true
				}
				if lit, ok := args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if format, err := strconv.Unquote(lit.Value); err == nil {
						verbs = formatVerbs(format)
					}
				}
				args = args[1:] // skip the format string
			}
			for i, arg := range args {
				// %T renders only the dynamic type name — no literals leak.
				if i < len(verbs) && verbs[i] == 'T' {
					continue
				}
				// X.String() launders the expression into a plain string;
				// catch it by looking at the receiver's type.
				target := arg
				if inner, ok := arg.(*ast.CallExpr); ok {
					if isel, ok := inner.Fun.(*ast.SelectorExpr); ok && isel.Sel.Name == "String" && len(inner.Args) == 0 {
						target = isel.X
					}
				}
				if implementsPlanExpr(p.info.TypeOf(target), iface) {
					out = append(out, r.finding(arg.Pos(), RuleExprInError,
						"plan expression formatted into a %s message leaks policy predicate literals; use plan.RedactedString", p.rel))
				}
			}
			return true
		})
	}
	return out
}

func receiverTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if ident, ok := t.(*ast.Ident); ok {
		return ident.Name
	}
	return ""
}

func (r *Runner) signatureCarriesContext(p *pkg, ftype *ast.FuncType) bool {
	if ftype.Params == nil {
		return false
	}
	for _, field := range ftype.Params.List {
		t := p.info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if isRequestContext(t) {
			return true
		}
		if basic, ok := t.Underlying().(*types.Basic); ok && basic.Kind() == types.String {
			for _, name := range field.Names {
				if name.Name == "sessionID" || name.Name == "user" {
					return true
				}
			}
		}
	}
	return false
}

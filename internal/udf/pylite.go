// Package udf implements PyLite, a small Python-flavored language for
// user-defined functions. User code in this system is *data* (source text),
// never linked Go code: a Program is parsed once, bound to its parameter
// names once (compile.go: every variable becomes a slot of a reusable frame
// and every node a Go closure), and run with an explicit capability table
// and a fuel limit, so a sandbox can grant exactly the authority it wants
// (e.g. HTTP egress to allow-listed hosts) and nothing else. This reproduces
// the paper's setting where Python/Scala UDFs are untrusted and must be
// contained.
//
// Language summary:
//
//	x = expr                 assignment
//	return expr              return
//	if cond:                 indentation-based blocks, elif/else supported
//	for i in range(n):       counted loop
//	while cond:              loop
//	# comment
//
// Expressions: int/float/string/bool literals, arithmetic (+ - * / %),
// comparisons, and/or/not, conditional `a if c else b`, builtin calls
// (sha256, upper, lower, len, substr, str, int, float, abs, min,
// max, http_get, ...).
package udf

import (
	"fmt"
	"strconv"
	"strings"
)

// node is a parsed expression.
type node interface{ exprNode() }

type litNode struct{ val value }
type nameNode struct{ name string }
type binNode struct {
	op   string
	l, r node
}
type unNode struct {
	op    string
	child node
}
type condNode struct{ cond, then, els node } // then if cond else els
type callNode struct {
	fn   string
	args []node
}

func (litNode) exprNode()  {}
func (nameNode) exprNode() {}
func (binNode) exprNode()  {}
func (unNode) exprNode()   {}
func (condNode) exprNode() {}
func (callNode) exprNode() {}

// stmt is a parsed statement.
type stmt interface{ stmtNode() }

type assignStmt struct {
	name string
	expr node
}
type returnStmt struct{ expr node }
type exprStmt struct{ expr node }
type ifStmt struct {
	cond node
	then []stmt
	els  []stmt // may be nil; elif chains nest here
}
type forStmt struct {
	varName string
	count   node
	body    []stmt
}
type whileStmt struct {
	cond node
	body []stmt
}

func (assignStmt) stmtNode() {}
func (returnStmt) stmtNode() {}
func (exprStmt) stmtNode()   {}
func (ifStmt) stmtNode()     {}
func (forStmt) stmtNode()    {}
func (whileStmt) stmtNode()  {}

// Program is parsed PyLite source; Bind compiles it for a caller.
type Program struct {
	body []stmt
	src  string
}

// Source returns the original source text.
func (p *Program) Source() string { return p.src }

// Compile parses PyLite source into a Program.
func Compile(src string) (*Program, error) {
	lines, err := logicalLines(src)
	if err != nil {
		return nil, err
	}
	body, rest, err := parseBlock(lines, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("pylite: unexpected indentation at line %d", rest[0].num)
	}
	return &Program{body: body, src: src}, nil
}

type line struct {
	indent int
	text   string
	num    int
}

// logicalLines strips comments and blank lines, recording indentation.
func logicalLines(src string) ([]line, error) {
	var out []line
	for i, raw := range strings.Split(src, "\n") {
		// Strip comments outside strings.
		text := stripComment(raw)
		trimmed := strings.TrimRight(text, " \t")
		content := strings.TrimLeft(trimmed, " \t")
		if content == "" {
			continue
		}
		indent := 0
		for _, c := range trimmed {
			if c == ' ' {
				indent++
			} else if c == '\t' {
				indent += 4
			} else {
				break
			}
		}
		out = append(out, line{indent: indent, text: content, num: i + 1})
	}
	return out, nil
}

func stripComment(s string) string {
	inStr := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr != 0 {
			if c == inStr {
				inStr = 0
			}
			continue
		}
		switch c {
		case '\'', '"':
			inStr = c
		case '#':
			return s[:i]
		}
	}
	return s
}

// parseBlock parses statements at exactly the given indent, returning the
// remaining lines (at lower indents).
func parseBlock(lines []line, indent int) ([]stmt, []line, error) {
	var out []stmt
	for len(lines) > 0 {
		l := lines[0]
		if l.indent < indent {
			return out, lines, nil
		}
		if l.indent > indent {
			return nil, nil, fmt.Errorf("pylite: unexpected indent at line %d", l.num)
		}
		s, rest, err := parseStmt(lines, indent)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, s)
		lines = rest
	}
	return out, nil, nil
}

func parseStmt(lines []line, indent int) (stmt, []line, error) {
	l := lines[0]
	text := l.text
	switch {
	case strings.HasPrefix(text, "return ") || text == "return":
		exprText := strings.TrimSpace(strings.TrimPrefix(text, "return"))
		if exprText == "" {
			return returnStmt{expr: litNode{val: value{Null: true}}}, lines[1:], nil
		}
		e, err := parseExprText(exprText, l.num)
		if err != nil {
			return nil, nil, err
		}
		return returnStmt{expr: e}, lines[1:], nil
	case strings.HasPrefix(text, "if ") && strings.HasSuffix(text, ":"):
		return parseIf(lines, indent)
	case strings.HasPrefix(text, "for ") && strings.HasSuffix(text, ":"):
		header := strings.TrimSuffix(strings.TrimPrefix(text, "for "), ":")
		parts := strings.SplitN(header, " in ", 2)
		if len(parts) != 2 {
			return nil, nil, fmt.Errorf("pylite: line %d: for requires 'for x in range(n):'", l.num)
		}
		varName := strings.TrimSpace(parts[0])
		rangeText := strings.TrimSpace(parts[1])
		if !strings.HasPrefix(rangeText, "range(") || !strings.HasSuffix(rangeText, ")") {
			return nil, nil, fmt.Errorf("pylite: line %d: only range(...) iteration is supported", l.num)
		}
		count, err := parseExprText(rangeText[len("range("):len(rangeText)-1], l.num)
		if err != nil {
			return nil, nil, err
		}
		body, rest, err := parseIndentedBlock(lines[1:], indent, l.num)
		if err != nil {
			return nil, nil, err
		}
		return forStmt{varName: varName, count: count, body: body}, rest, nil
	case strings.HasPrefix(text, "while ") && strings.HasSuffix(text, ":"):
		cond, err := parseExprText(strings.TrimSuffix(strings.TrimPrefix(text, "while "), ":"), l.num)
		if err != nil {
			return nil, nil, err
		}
		body, rest, err := parseIndentedBlock(lines[1:], indent, l.num)
		if err != nil {
			return nil, nil, err
		}
		return whileStmt{cond: cond, body: body}, rest, nil
	}
	// Assignment: name = expr (but not ==).
	if eq := findAssign(text); eq >= 0 {
		name := strings.TrimSpace(text[:eq])
		if isPyIdent(name) {
			e, err := parseExprText(text[eq+1:], l.num)
			if err != nil {
				return nil, nil, err
			}
			return assignStmt{name: name, expr: e}, lines[1:], nil
		}
	}
	// Bare expression statement.
	e, err := parseExprText(text, l.num)
	if err != nil {
		return nil, nil, err
	}
	return exprStmt{expr: e}, lines[1:], nil
}

func parseIf(lines []line, indent int) (stmt, []line, error) {
	l := lines[0]
	cond, err := parseExprText(strings.TrimSuffix(strings.TrimPrefix(l.text, "if "), ":"), l.num)
	if err != nil {
		return nil, nil, err
	}
	then, rest, err := parseIndentedBlock(lines[1:], indent, l.num)
	if err != nil {
		return nil, nil, err
	}
	out := ifStmt{cond: cond, then: then}
	if len(rest) > 0 && rest[0].indent == indent {
		switch {
		case strings.HasPrefix(rest[0].text, "elif ") && strings.HasSuffix(rest[0].text, ":"):
			// Treat elif as else { if ... }.
			sub := rest
			sub[0].text = "if " + strings.TrimPrefix(sub[0].text, "elif ")
			nested, rem, err := parseIf(sub, indent)
			if err != nil {
				return nil, nil, err
			}
			out.els = []stmt{nested}
			return out, rem, nil
		case rest[0].text == "else:":
			els, rem, err := parseIndentedBlock(rest[1:], indent, rest[0].num)
			if err != nil {
				return nil, nil, err
			}
			out.els = els
			return out, rem, nil
		}
	}
	return out, rest, nil
}

func parseIndentedBlock(lines []line, parentIndent, headerLine int) ([]stmt, []line, error) {
	if len(lines) == 0 || lines[0].indent <= parentIndent {
		return nil, nil, fmt.Errorf("pylite: line %d: expected an indented block", headerLine)
	}
	return parseBlock(lines, lines[0].indent)
}

// findAssign locates a top-level single '=' (not ==, <=, >=, !=) outside
// strings and parentheses.
func findAssign(s string) int {
	depth := 0
	inStr := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr != 0 {
			if c == inStr {
				inStr = 0
			}
			continue
		}
		switch c {
		case '\'', '"':
			inStr = c
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '=':
			if depth == 0 {
				prev := byte(0)
				if i > 0 {
					prev = s[i-1]
				}
				next := byte(0)
				if i+1 < len(s) {
					next = s[i+1]
				}
				if next != '=' && prev != '=' && prev != '<' && prev != '>' && prev != '!' {
					return i
				}
			}
		}
	}
	return -1
}

func isPyIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// --- expression tokenizer/parser ---

type ptoken struct {
	kind byte // 'n' number, 's' string, 'i' ident, 'o' operator
	text string
}

func tokenizeExpr(s string, lineNum int) ([]ptoken, error) {
	var toks []ptoken
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c >= '0' && c <= '9' || c == '.' && i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9':
			j := i
			dot := false
			for j < len(s) && (s[j] >= '0' && s[j] <= '9' || s[j] == '.' && !dot) {
				if s[j] == '.' {
					dot = true
				}
				j++
			}
			toks = append(toks, ptoken{kind: 'n', text: s[i:j]})
			i = j
		case c == '\'' || c == '"':
			j := i + 1
			var b strings.Builder
			for j < len(s) && s[j] != c {
				if s[j] == '\\' && j+1 < len(s) {
					j++
					switch s[j] {
					case 'n':
						b.WriteByte('\n')
					case 't':
						b.WriteByte('\t')
					default:
						b.WriteByte(s[j])
					}
				} else {
					b.WriteByte(s[j])
				}
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("pylite: line %d: unterminated string", lineNum)
			}
			toks = append(toks, ptoken{kind: 's', text: b.String()})
			i = j + 1
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			j := i
			for j < len(s) && (s[j] == '_' || s[j] >= 'a' && s[j] <= 'z' || s[j] >= 'A' && s[j] <= 'Z' || s[j] >= '0' && s[j] <= '9') {
				j++
			}
			toks = append(toks, ptoken{kind: 'i', text: s[i:j]})
			i = j
		default:
			matched := false
			for _, op := range []string{"==", "!=", "<=", ">=", "//", "**"} {
				if strings.HasPrefix(s[i:], op) {
					toks = append(toks, ptoken{kind: 'o', text: op})
					i += len(op)
					matched = true
					break
				}
			}
			if matched {
				continue
			}
			if strings.ContainsRune("+-*/%()<>,", rune(c)) {
				toks = append(toks, ptoken{kind: 'o', text: string(c)})
				i++
				continue
			}
			return nil, fmt.Errorf("pylite: line %d: unexpected character %q", lineNum, c)
		}
	}
	return toks, nil
}

type exprParser struct {
	toks []ptoken
	pos  int
	line int
}

func parseExprText(s string, lineNum int) (node, error) {
	toks, err := tokenizeExpr(s, lineNum)
	if err != nil {
		return nil, err
	}
	p := &exprParser{toks: toks, line: lineNum}
	e, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("pylite: line %d: unexpected token %q", lineNum, p.toks[p.pos].text)
	}
	return e, nil
}

func (p *exprParser) peek() (ptoken, bool) {
	if p.pos < len(p.toks) {
		return p.toks[p.pos], true
	}
	return ptoken{}, false
}

func (p *exprParser) acceptOp(op string) bool {
	if t, ok := p.peek(); ok && t.kind == 'o' && t.text == op {
		p.pos++
		return true
	}
	return false
}

func (p *exprParser) acceptIdent(name string) bool {
	if t, ok := p.peek(); ok && t.kind == 'i' && t.text == name {
		p.pos++
		return true
	}
	return false
}

func (p *exprParser) errf(format string, args ...any) error {
	return fmt.Errorf("pylite: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

// parseTernary: or_expr ['if' or_expr 'else' ternary]   (Python order)
func (p *exprParser) parseTernary() (node, error) {
	then, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.acceptIdent("if") {
		cond, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if !p.acceptIdent("else") {
			return nil, p.errf("conditional expression requires else")
		}
		els, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		return condNode{cond: cond, then: then, els: els}, nil
	}
	return then, nil
}

func (p *exprParser) parseOr() (node, error) {
	l, err := p.parseAndE()
	if err != nil {
		return nil, err
	}
	for p.acceptIdent("or") {
		r, err := p.parseAndE()
		if err != nil {
			return nil, err
		}
		l = binNode{op: "or", l: l, r: r}
	}
	return l, nil
}

func (p *exprParser) parseAndE() (node, error) {
	l, err := p.parseNotE()
	if err != nil {
		return nil, err
	}
	for p.acceptIdent("and") {
		r, err := p.parseNotE()
		if err != nil {
			return nil, err
		}
		l = binNode{op: "and", l: l, r: r}
	}
	return l, nil
}

func (p *exprParser) parseNotE() (node, error) {
	if p.acceptIdent("not") {
		c, err := p.parseNotE()
		if err != nil {
			return nil, err
		}
		return unNode{op: "not", child: c}, nil
	}
	return p.parseCmp()
}

func (p *exprParser) parseCmp() (node, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"==", "!=", "<=", ">=", "<", ">"} {
		if p.acceptOp(op) {
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return binNode{op: op, l: l, r: r}, nil
		}
	}
	return l, nil
}

func (p *exprParser) parseAdd() (node, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = binNode{op: "+", l: l, r: r}
		case p.acceptOp("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = binNode{op: "-", l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *exprParser) parseMul() (node, error) {
	l, err := p.parseUnaryE()
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range []string{"*", "/", "//", "%"} {
			if p.acceptOp(op) {
				r, err := p.parseUnaryE()
				if err != nil {
					return nil, err
				}
				l = binNode{op: op, l: l, r: r}
				matched = true
				break
			}
		}
		if !matched {
			return l, nil
		}
	}
}

func (p *exprParser) parseUnaryE() (node, error) {
	if p.acceptOp("-") {
		c, err := p.parseUnaryE()
		if err != nil {
			return nil, err
		}
		return unNode{op: "-", child: c}, nil
	}
	return p.parseAtom()
}

func (p *exprParser) parseAtom() (node, error) {
	t, ok := p.peek()
	if !ok {
		return nil, p.errf("unexpected end of expression")
	}
	switch t.kind {
	case 'n':
		p.pos++
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return litNode{val: floatVal(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return litNode{val: intVal(i)}, nil
	case 's':
		p.pos++
		return litNode{val: strVal(t.text)}, nil
	case 'i':
		p.pos++
		switch t.text {
		case "True":
			return litNode{val: boolVal(true)}, nil
		case "False":
			return litNode{val: boolVal(false)}, nil
		case "None":
			return litNode{val: value{Null: true}}, nil
		}
		// Call?
		if p.acceptOp("(") {
			var args []node
			if !p.acceptOp(")") {
				for {
					a, err := p.parseTernary()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.acceptOp(")") {
						break
					}
					if !p.acceptOp(",") {
						return nil, p.errf("expected , or ) in call")
					}
				}
			}
			return callNode{fn: t.text, args: args}, nil
		}
		return nameNode{name: t.text}, nil
	case 'o':
		if t.text == "(" {
			p.pos++
			e, err := p.parseTernary()
			if err != nil {
				return nil, err
			}
			if !p.acceptOp(")") {
				return nil, p.errf("missing )")
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q", t.text)
}

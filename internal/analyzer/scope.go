package analyzer

import (
	"fmt"
	"strings"

	"lakeguard/internal/types"
)

// scopeCol is one column visible during expression resolution.
type scopeCol struct {
	qualifier string // table alias or table name ("" for derived columns)
	// aliases are further names that qualify the column (DML scopes).
	aliases []string
	name    string
	kind    types.Kind
	index   int // ordinal in the operator's input row
}

// scope is the set of columns an expression may reference.
type scope struct {
	cols []scopeCol
}

func scopeFromSchema(qualifier string, s *types.Schema, offset int) *scope {
	sc := &scope{cols: make([]scopeCol, s.Len())}
	for i, f := range s.Fields {
		sc.cols[i] = scopeCol{qualifier: qualifier, name: f.Name, kind: f.Kind, index: offset + i}
	}
	return sc
}

// withQualifier returns a copy of the scope with every column requalified
// (SubqueryAlias semantics).
func (sc *scope) withQualifier(q string) *scope {
	out := &scope{cols: make([]scopeCol, len(sc.cols))}
	copy(out.cols, sc.cols)
	for i := range out.cols {
		out.cols[i].qualifier = q
	}
	return out
}

// concat merges two scopes side by side, offsetting the right side (Join).
func (sc *scope) concat(right *scope, rightOffset int) *scope {
	out := &scope{cols: make([]scopeCol, 0, len(sc.cols)+len(right.cols))}
	out.cols = append(out.cols, sc.cols...)
	for _, c := range right.cols {
		c.index += rightOffset
		out.cols = append(out.cols, c)
	}
	return out
}

// resolve finds a column by (qualifier, name). Ambiguity is an error.
func (sc *scope) resolve(qualifier, name string) (scopeCol, error) {
	var found []scopeCol
	for _, c := range sc.cols {
		if !strings.EqualFold(c.name, name) {
			continue
		}
		if qualifier != "" && !c.qualifiedBy(qualifier) {
			continue
		}
		found = append(found, c)
	}
	switch len(found) {
	case 0:
		full := name
		if qualifier != "" {
			full = qualifier + "." + name
		}
		return scopeCol{}, fmt.Errorf("column %q not found; available: %s", full, sc.describe())
	case 1:
		return found[0], nil
	}
	return scopeCol{}, fmt.Errorf("column %q is ambiguous (%d matches)", name, len(found))
}

// qualifiedBy reports whether qualifier names the column's relation.
func (c scopeCol) qualifiedBy(qualifier string) bool {
	if qualifierMatches(c.qualifier, qualifier) {
		return true
	}
	for _, a := range c.aliases {
		if qualifierMatches(a, qualifier) {
			return true
		}
	}
	return false
}

// qualifierMatches accepts exact matches and suffix matches on dotted names,
// so alias "t", bare table "sales", and full "main.default.sales" all work.
func qualifierMatches(have, want string) bool {
	if strings.EqualFold(have, want) {
		return true
	}
	return strings.HasSuffix(strings.ToLower(have), "."+strings.ToLower(want))
}

// columnsFor returns the scope columns matching a star qualifier ("" = all).
func (sc *scope) columnsFor(qualifier string) []scopeCol {
	if qualifier == "" {
		return sc.cols
	}
	var out []scopeCol
	for _, c := range sc.cols {
		if qualifierMatches(c.qualifier, qualifier) {
			out = append(out, c)
		}
	}
	return out
}

func (sc *scope) describe() string {
	names := make([]string, 0, len(sc.cols))
	for _, c := range sc.cols {
		if c.qualifier != "" {
			names = append(names, c.qualifier+"."+c.name)
		} else {
			names = append(names, c.name)
		}
	}
	if len(names) > 12 {
		names = append(names[:12], "...")
	}
	return strings.Join(names, ", ")
}

package eval

// RootShape names the node a program's root compiled to, so tests can see
// what constant folding and identity binding decided.
func RootShape(p *VecProg) string {
	switch p.root.(type) {
	case *constNode:
		return "const"
	case *errNode:
		return "err"
	case *cmpNode:
		return "cmp"
	case *refNode:
		return "ref"
	case *caseNode:
		return "case"
	}
	return "other"
}

package plan

// RedactedString renders an expression for error messages and audit payloads
// with every literal value (and account-group name) replaced by "?". Policy
// predicates embed tenant constants — `region = 'US'`,
// `IS_ACCOUNT_GROUP_MEMBER('finance')` — and echoing them back to a denied
// caller is a side channel: the caller learns the policy's contents from the
// refusal. Column names and expression shape are kept so the message stays
// actionable. All code under internal/sentinel and internal/analyzer that
// puts an expression into a returned error must use this (enforced by the
// expr-in-error lint rule).
func RedactedString(e Expr) string {
	if e == nil {
		return "?"
	}
	return TransformExpr(e, func(x Expr) Expr {
		switch x.(type) {
		case *Literal:
			return &ColumnRef{Name: "?"}
		case *GroupMember:
			return &GroupMember{Group: "?"}
		}
		return x
	}).String()
}

package redteam

import (
	"lakeguard/internal/analyzer"
	"lakeguard/internal/catalog"
	"lakeguard/internal/core"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/sentinel"
	"lakeguard/internal/sql"
	"lakeguard/internal/types"
)

// The governance labels the seeded fixture carries (see Fixture.Seed).
const (
	rowLabel  = "row_filter:main.default.sales"
	maskLabel = "column_mask:main.default.sales.seller"
)

const victimSQL = "SELECT amount, seller FROM sales"

// prunedVictimSQL does not select the masked column, so column pruning drops
// seller and its mask from the barrier; the attacks built on it re-read the
// raw column inside the barrier without restoring the mask.
const prunedVictimSQL = "SELECT amount FROM sales"

// standardAttack seeds a standard-compute fixture with the given sabotage
// rules and runs the victim query through the full server pipeline.
func standardAttack(q string, rules ...optimizer.Rule) func() (*Fixture, error) {
	return func() (*Fixture, error) {
		f := NewFixture(catalog.ComputeStandard, rules...)
		if err := f.Seed(); err != nil {
			return nil, err
		}
		return f, f.Query(Victim, q)
	}
}

// salesTableSchema finds the governed table's full schema inside a plan (the
// sabotage rules need it to forge raw scans).
func salesTableSchema(n plan.Node) *types.Schema {
	var s *types.Schema
	plan.Walk(n, func(x plan.Node) bool {
		if sc, ok := x.(*plan.Scan); ok && sc.Table == "main.default.sales" {
			s = sc.TableSchema
		}
		return true
	})
	return s
}

// widenSeller re-adds the raw seller column to a scan's projection and
// returns the widened scan plus seller's index in its output schema. The
// optimizer prunes seller out of the governed scan (the literal mask never
// references it), so an attack that wants the raw value must first widen the
// scan back — which is by itself legal; the violation is what the attack
// then does with the column. Returns (sc, i) unchanged when seller is
// already scanned.
func widenSeller(sc *plan.Scan) (*plan.Scan, int) {
	if sc == nil {
		return nil, -1
	}
	s := sc.Schema()
	for i := 0; i < s.Len(); i++ {
		if s.Fields[i].Name == "seller" {
			return sc, i
		}
	}
	tblIdx := -1
	for i := 0; i < sc.TableSchema.Len(); i++ {
		if sc.TableSchema.Fields[i].Name == "seller" {
			tblIdx = i
		}
	}
	if tblIdx < 0 || sc.ProjectedCols == nil {
		return sc, -1
	}
	cp := *sc
	cp.ProjectedCols = append(append([]int{}, sc.ProjectedCols...), tblIdx)
	return &cp, len(cp.ProjectedCols) - 1
}

// rawSeller is a bound reference to the raw seller column at index i.
func rawSeller(i int) *plan.BoundRef {
	return &plan.BoundRef{Index: i, Name: "seller", Kind: types.KindString}
}

// sabotageBarrier rewrites the governed barrier's interior: it widens the
// scan to expose raw seller and hands (projection, widened scan, seller
// index) to the attack, which returns the replacement interior.
func sabotageBarrier(build func(proj *plan.Project, sc *plan.Scan, idx int) plan.Node) optimizer.Rule {
	return func(n plan.Node) plan.Node {
		return plan.Transform(n, func(x plan.Node) plan.Node {
			sv, ok := x.(*plan.SecureView)
			if !ok {
				return x
			}
			proj, ok := sv.Child.(*plan.Project)
			if !ok {
				return x
			}
			sc, ok := proj.Child.(*plan.Scan)
			if !ok {
				return x
			}
			wide, idx := widenSeller(sc)
			if idx < 0 {
				return x
			}
			cp := *sv
			cp.Child = build(proj, wide, idx)
			return &cp
		})
	}
}

// replaceSeller rewrites the barrier's projection, swapping the seller item
// for item (renaming its output field to name). Every reference to seller
// inside item is rebound to the raw column of the widened scan.
func replaceSeller(item plan.Expr, name string) optimizer.Rule {
	return sabotageBarrier(func(proj *plan.Project, sc *plan.Scan, idx int) plan.Node {
		exprs := append([]plan.Expr{}, proj.Exprs...)
		fields := append([]types.Field{}, proj.OutSchema.Fields...)
		for i, e := range exprs {
			if plan.OutputName(e) == "seller" {
				exprs[i] = plan.TransformExpr(item, func(x plan.Expr) plan.Expr {
					if b, ok := x.(*plan.BoundRef); ok && b.Name == "seller" {
						return rawSeller(idx)
					}
					return x
				})
				fields[i].Name = name
			}
		}
		return &plan.Project{Exprs: exprs, Child: sc, OutSchema: &types.Schema{Fields: fields}}
	})
}

// readRawUnderPrunedMask interposes an operator that reads raw seller
// between the (pruned, seller-free) mask projection and the widened scan.
func readRawUnderPrunedMask(reader func(sc *plan.Scan, raw *plan.BoundRef) plan.Node) optimizer.Rule {
	return sabotageBarrier(func(proj *plan.Project, sc *plan.Scan, idx int) plan.Node {
		return &plan.Project{Exprs: proj.Exprs, OutSchema: proj.OutSchema, Child: reader(sc, rawSeller(idx))}
	})
}

// errorOracle is the Queen's Guard error oracle over a scan of sales:
// CASE WHEN amount = 200 THEN CAST('boom' AS BIGINT) ELSE 1 END = 1. It
// raises exactly when it sees a row with amount 200 — in the fixture, the
// EU row the row filter hides — so a victim query that fails reveals that a
// hidden row holds the probed value. nil when the scan does not read amount.
func errorOracle(sc *plan.Scan) plan.Expr {
	amount := fieldIndex(sc.Schema(), "amount")
	if amount < 0 {
		return nil
	}
	probe := &plan.Binary{Op: plan.OpEq,
		L:          &plan.BoundRef{Index: amount, Name: "amount", Kind: types.KindFloat64},
		R:          plan.Lit(types.Float64(200)),
		ResultKind: types.KindBool}
	guarded := &plan.Case{
		Whens:      []plan.WhenClause{{Cond: probe, Then: &plan.Cast{Child: plan.Lit(types.String("boom")), To: types.KindInt64}}},
		Else:       plan.Lit(types.Int64(1)),
		ResultKind: types.KindInt64,
	}
	return &plan.Binary{Op: plan.OpEq, L: guarded, R: plan.Lit(types.Int64(1)), ResultKind: types.KindBool}
}

// Corpus is the bypass corpus: at least one case per known attack class
// against the plan pipeline. Every case must be blocked by the sentinel with the listed
// invariants and, where a label applies, a label-attributed deny audit event.
var Corpus = []Case{
	{
		Name:  "drop-pushed-policy-filter",
		Class: "label-dropping",
		Description: "A rewrite deletes the row-filter predicate the optimizer " +
			"pushed into the governed scan, so unfiltered rows would flow out.",
		Attack: standardAttack(victimSQL, func(n plan.Node) plan.Node {
			return plan.Transform(n, func(x plan.Node) plan.Node {
				if sc, ok := x.(*plan.Scan); ok && len(sc.PushedFilters) > 0 {
					cp := *sc
					cp.PushedFilters = nil
					return &cp
				}
				return x
			})
		}),
		WantInvariants: []sentinel.Invariant{sentinel.InvRowFilter, sentinel.InvLabelFlow},
		WantLabel:      rowLabel,
	},
	{
		Name:  "mask-replaced-with-identity",
		Class: "mask-laundering",
		Description: "A rewrite swaps the column-mask expression for the raw " +
			"column under the same output name — the mask operator survives " +
			"by name but masks nothing.",
		Attack: standardAttack(victimSQL, sabotageBarrier(
			func(proj *plan.Project, sc *plan.Scan, idx int) plan.Node {
				exprs := append([]plan.Expr{}, proj.Exprs...)
				for i, e := range exprs {
					if plan.OutputName(e) == "seller" {
						exprs[i] = plan.As(rawSeller(idx), "seller")
					}
				}
				return &plan.Project{Exprs: exprs, Child: sc, OutSchema: proj.OutSchema}
			})),
		WantInvariants: []sentinel.Invariant{sentinel.InvColumnMask, sentinel.InvLabelFlow},
		WantLabel:      maskLabel,
	},
	{
		Name:  "alias-copy-laundering",
		Class: "mask-laundering",
		Description: "A rewrite keeps the mask intact but adds a second " +
			"projection item copying the raw masked column under a fresh " +
			"alias — every name-based check passes, the value leaks.",
		Attack: standardAttack(victimSQL, sabotageBarrier(
			func(proj *plan.Project, sc *plan.Scan, idx int) plan.Node {
				exprs := append(append([]plan.Expr{}, proj.Exprs...),
					plan.As(rawSeller(idx), "cc"))
				fields := append(append([]types.Field{}, proj.OutSchema.Fields...),
					types.Field{Name: "cc", Kind: types.KindString, Nullable: true})
				return &plan.Project{Exprs: exprs, Child: sc,
					OutSchema: &types.Schema{Fields: fields}}
			})),
		WantInvariants: []sentinel.Invariant{sentinel.InvLabelFlow},
		WantLabel:      maskLabel,
	},
	{
		Name:  "udf-below-mask",
		Class: "udf-smuggling",
		Description: "A rewrite interposes a foreign-owned UDF predicate " +
			"between the scan and the mask projection, feeding raw masked " +
			"values into sandboxed user code.",
		Attack: standardAttack(victimSQL, sabotageBarrier(
			func(proj *plan.Project, sc *plan.Scan, idx int) plan.Node {
				udf := &plan.UDFCall{Name: "main.default.exfil", Owner: "mallory@corp.com",
					Args: []plan.Expr{rawSeller(idx)}, ResultKind: types.KindBool}
				return &plan.Project{Exprs: proj.Exprs, OutSchema: proj.OutSchema,
					Child: &plan.Filter{Cond: udf, Child: sc}}
			})),
		WantInvariants: []sentinel.Invariant{sentinel.InvTrustDomain, sentinel.InvLabelSink},
		WantLabel:      maskLabel,
	},
	{
		Name:  "udf-into-remote-push",
		Class: "udf-smuggling",
		Description: "On dedicated compute, a rewrite smuggles a user-owned " +
			"UDF into the eFGAC RemoteScan's pushed filters, which would run " +
			"user code on the trusted serverless side.",
		Attack: func() (*Fixture, error) {
			f := NewFixture(catalog.ComputeStandard)
			if err := f.Seed(); err != nil {
				return nil, err
			}
			ded := f.WithDedicated(func(n plan.Node) plan.Node {
				return plan.Transform(n, func(x plan.Node) plan.Node {
					rs, ok := x.(*plan.RemoteScan)
					if !ok {
						return x
					}
					cp := *rs
					cp.PushedFilters = append(append([]plan.Expr{}, rs.PushedFilters...),
						&plan.UDFCall{Name: "main.default.exfil", Owner: "mallory@corp.com",
							Args: []plan.Expr{plan.Col("amount")}, ResultKind: types.KindBool})
					return &cp
				})
			})
			return ded, ded.Query(Victim, victimSQL)
		},
		WantInvariants: []sentinel.Invariant{sentinel.InvRemotePush},
	},
	{
		Name:  "inject-raw-scan",
		Class: "plan-injection",
		Description: "A rewrite unions the governed query with a raw scan of " +
			"the same table outside any policy barrier.",
		Attack: standardAttack(victimSQL, func(n plan.Node) plan.Node {
			ts := salesTableSchema(n)
			if ts == nil {
				return n
			}
			raw := &plan.Project{
				Exprs: []plan.Expr{
					&plan.BoundRef{Index: 0, Name: "amount", Kind: types.KindFloat64},
					&plan.BoundRef{Index: 2, Name: "seller", Kind: types.KindString},
				},
				Child: &plan.Scan{Table: "main.default.sales", TableSchema: ts},
				OutSchema: types.NewSchema(
					types.Field{Name: "amount", Kind: types.KindFloat64},
					types.Field{Name: "seller", Kind: types.KindString}),
			}
			return &plan.Union{L: n, R: raw}
		}),
		WantInvariants: []sentinel.Invariant{sentinel.InvBarrier, sentinel.InvLabelSink},
		WantLabel:      maskLabel,
	},
	{
		Name:  "filter-past-mask",
		Class: "implicit-flow",
		Description: "A rewrite pushes a predicate over the raw masked column " +
			"below the mask projection — the value is never projected, but " +
			"filtering on it leaks it bit by bit.",
		Attack: standardAttack(victimSQL, sabotageBarrier(
			func(proj *plan.Project, sc *plan.Scan, idx int) plan.Node {
				leak := &plan.Binary{Op: plan.OpEq,
					L: rawSeller(idx), R: plan.Lit(types.String("ann")),
					ResultKind: types.KindBool}
				return &plan.Project{Exprs: proj.Exprs, OutSchema: proj.OutSchema,
					Child: &plan.Filter{Cond: leak, Child: sc}}
			})),
		WantInvariants: []sentinel.Invariant{sentinel.InvLabelFlow},
		WantLabel:      maskLabel,
	},
	{
		Name:  "barrier-drop",
		Class: "label-dropping",
		Description: "A rewrite deletes the SecureView barrier and its policy " +
			"operators wholesale, splicing the raw scan into the plan.",
		Attack: standardAttack(victimSQL, func(n plan.Node) plan.Node {
			return plan.Transform(n, func(x plan.Node) plan.Node {
				sv, ok := x.(*plan.SecureView)
				if !ok {
					return x
				}
				ts := salesTableSchema(sv)
				if ts == nil {
					return x
				}
				return &plan.Scan{Table: "main.default.sales", TableSchema: ts}
			})
		}),
		WantInvariants: []sentinel.Invariant{sentinel.InvBarrier, sentinel.InvLabelSink},
		WantLabel:      maskLabel,
	},
	{
		Name:  "observed-pushed-filter",
		Class: "implicit-flow",
		Description: "A rewrite appends a non-policy predicate over the raw " +
			"masked column to the scan's pushed filters — storage-level " +
			"observation of a value the mask should hide.",
		Attack: standardAttack(victimSQL, func(n plan.Node) plan.Node {
			return plan.Transform(n, func(x plan.Node) plan.Node {
				sc, ok := x.(*plan.Scan)
				if !ok || sc.Table != "main.default.sales" {
					return x
				}
				wide, idx := widenSeller(sc)
				if idx < 0 {
					return x
				}
				cp := *wide
				cp.PushedFilters = append(append([]plan.Expr{}, wide.PushedFilters...),
					&plan.Binary{Op: plan.OpEq,
						L: rawSeller(idx), R: plan.Lit(types.String("ann")),
						ResultKind: types.KindBool})
				return &cp
			})
		}),
		WantInvariants: []sentinel.Invariant{sentinel.InvLabelFlow},
		WantLabel:      maskLabel,
	},
	{
		Name:  "barrier-rename",
		Class: "plan-injection",
		Description: "A rewrite renames the policy barrier so obligation " +
			"matching would bind it to the wrong securable.",
		Attack: standardAttack(victimSQL, func(n plan.Node) plan.Node {
			return plan.Transform(n, func(x plan.Node) plan.Node {
				if sv, ok := x.(*plan.SecureView); ok {
					cp := *sv
					cp.Name = "main.default.decoy"
					return &cp
				}
				return x
			})
		}),
		WantInvariants: []sentinel.Invariant{sentinel.InvBarrier},
	},
	{
		Name:  "toctou-seal-tamper",
		Class: "toctou",
		Description: "The plan passes verification, then is mutated in the " +
			"window between verification and execution; the seal's " +
			"re-fingerprint check must refuse to run it.",
		Attack: func() (*Fixture, error) {
			f := NewFixture(catalog.ComputeStandard)
			if err := f.Seed(); err != nil {
				return nil, err
			}
			q, err := sql.ParseQuery(victimSQL)
			if err != nil {
				return nil, err
			}
			a := analyzer.New(f.Cat, catalog.RequestContext{
				User: Victim, Compute: catalog.ComputeStandard, SessionID: "rt-toctou"})
			resolved, err := a.Analyze(q)
			if err != nil {
				return nil, err
			}
			optimized := optimizer.Optimize(resolved, optimizer.DefaultOptions())
			r := sentinel.Verify(resolved, optimized)
			if err := r.Err(); err != nil {
				return nil, err
			}
			sealed, err := sentinel.Seal(optimized, r)
			if err != nil {
				return nil, err
			}
			// The attack: strip the pushed policy filter from the tree that is
			// about to execute, after verification already passed.
			plan.Walk(sealed.Plan, func(x plan.Node) bool {
				if sc, ok := x.(*plan.Scan); ok {
					sc.PushedFilters = nil
				}
				return true
			})
			return nil, sealed.Check()
		},
		WantInvariants: []sentinel.Invariant{sentinel.InvSeal},
	},
	{
		Name:  "mask-dropped-raw-output",
		Class: "mask-laundering",
		Description: "A rewrite drops the column mask and outputs the raw " +
			"masked column in its place as a plain column reference.",
		Attack:         standardAttack(victimSQL, replaceSeller(rawSeller(0), "seller")),
		WantInvariants: []sentinel.Invariant{sentinel.InvColumnMask},
		WantLabel:      maskLabel,
	},
	{
		Name:  "mask-dropped-raw-alias",
		Class: "mask-laundering",
		Description: "A rewrite drops the column mask and outputs the raw " +
			"masked column under a fresh alias, so no item is named seller.",
		Attack:         standardAttack(victimSQL, replaceSeller(plan.As(rawSeller(0), "s"), "s")),
		WantInvariants: []sentinel.Invariant{sentinel.InvColumnMask},
		WantLabel:      maskLabel,
	},
	{
		Name:  "mask-swapped-same-name",
		Class: "mask-laundering",
		Description: "A rewrite replaces the mask with a different expression " +
			"over the raw column under the mask's own output name.",
		Attack: standardAttack(victimSQL, replaceSeller(plan.As(&plan.ScalarFunc{
			Name: "substr", ResultKind: types.KindString,
			Args: []plan.Expr{rawSeller(0), plan.Lit(types.Int64(1)), plan.Lit(types.Int64(1))},
		}, "seller"), "seller")),
		WantInvariants: []sentinel.Invariant{sentinel.InvColumnMask},
		WantLabel:      maskLabel,
	},
	{
		Name:  "pruned-mask-pushed-filter",
		Class: "implicit-flow",
		Description: "The query never selects the masked column, so pruning " +
			"drops its mask; a rewrite then widens the scan and pushes a " +
			"predicate over the raw column into it.",
		Attack: standardAttack(prunedVictimSQL, readRawUnderPrunedMask(
			func(sc *plan.Scan, raw *plan.BoundRef) plan.Node {
				cp := *sc
				cp.PushedFilters = append(append([]plan.Expr{}, sc.PushedFilters...),
					&plan.Binary{Op: plan.OpEq, L: raw, R: plan.Lit(types.String("ann")), ResultKind: types.KindBool})
				return &cp
			})),
		WantInvariants: []sentinel.Invariant{sentinel.InvColumnMask},
		WantLabel:      maskLabel,
	},
	{
		Name:  "pruned-mask-sort-key",
		Class: "implicit-flow",
		Description: "The query never selects the masked column; a rewrite " +
			"orders the barrier's rows by the raw column under the pruned " +
			"mask projection, leaking it through row order.",
		Attack: standardAttack(prunedVictimSQL, readRawUnderPrunedMask(
			func(sc *plan.Scan, raw *plan.BoundRef) plan.Node {
				return &plan.Sort{Orders: []plan.SortOrder{{Expr: raw}}, Child: sc}
			})),
		WantInvariants: []sentinel.Invariant{sentinel.InvColumnMask},
		WantLabel:      maskLabel,
	},
	{
		Name:  "pruned-mask-join-key",
		Class: "implicit-flow",
		Description: "The query never selects the masked column; a rewrite " +
			"semi-joins the barrier's scan with a probe list on the raw " +
			"column, leaking it through which rows survive.",
		Attack: standardAttack(prunedVictimSQL, readRawUnderPrunedMask(
			func(sc *plan.Scan, raw *plan.BoundRef) plan.Node {
				probe := types.NewBatchBuilder(types.NewSchema(
					types.Field{Name: "guess", Kind: types.KindString}), 1)
				probe.Column(0).AppendString("ann")
				guess := &plan.BoundRef{Index: sc.Schema().Len(), Name: "guess", Kind: types.KindString}
				return &plan.Join{Type: plan.JoinLeftSemi, L: sc, R: &plan.LocalRelation{Data: probe.Build()},
					Cond: &plan.Binary{Op: plan.OpEq, L: raw, R: guess, ResultKind: types.KindBool}}
			})),
		WantInvariants: []sentinel.Invariant{sentinel.InvColumnMask},
		WantLabel:      maskLabel,
	},
	{
		Name:  "error-oracle-pushed-filter",
		Class: "implicit-flow",
		Description: "A rewrite puts a predicate that throws on one amount " +
			"ahead of the row filter in the governed scan's pushed filters; " +
			"the victim query fails whenever any row, hidden ones included, holds " +
			"that amount.",
		Attack: standardAttack(victimSQL, func(n plan.Node) plan.Node {
			return plan.Transform(n, func(x plan.Node) plan.Node {
				sc, ok := x.(*plan.Scan)
				if !ok || sc.Table != "main.default.sales" {
					return x
				}
				oracle := errorOracle(sc)
				if oracle == nil {
					return x
				}
				cp := *sc
				cp.PushedFilters = append([]plan.Expr{oracle}, sc.PushedFilters...)
				return &cp
			})
		}),
		WantInvariants: []sentinel.Invariant{sentinel.InvTotal},
		WantLabel:      rowLabel,
	},
	{
		Name:  "error-oracle-below-mask",
		Class: "implicit-flow",
		Description: "A rewrite interposes the throwing predicate as a filter " +
			"between the mask projection and the governed scan, inside the " +
			"barrier where no user code may fail.",
		Attack: standardAttack(victimSQL, func(n plan.Node) plan.Node {
			return plan.Transform(n, func(x plan.Node) plan.Node {
				sv, ok := x.(*plan.SecureView)
				if !ok {
					return x
				}
				proj, ok := sv.Child.(*plan.Project)
				if !ok {
					return x
				}
				sc, ok := proj.Child.(*plan.Scan)
				if !ok {
					return x
				}
				oracle := errorOracle(sc)
				if oracle == nil {
					return x
				}
				return sv.WithChildren([]plan.Node{&plan.Project{Exprs: proj.Exprs, OutSchema: proj.OutSchema,
					Child: &plan.Filter{Cond: oracle, Child: sc}}})
			})
		}),
		WantInvariants: []sentinel.Invariant{sentinel.InvTotal},
		WantLabel:      rowLabel,
	},
}

// WithDedicated builds a dedicated-compute deployment over the same catalog
// (the eFGAC configuration), running the given sabotage rules.
func (f *Fixture) WithDedicated(rules ...optimizer.Rule) *Fixture {
	opts := optimizer.DefaultOptions()
	opts.ExtraRules = rules
	srv := core.NewServer(core.Config{
		Name: "redteam-dedicated", Catalog: f.Cat, Compute: catalog.ComputeDedicated,
		Optimizer: &opts, Parallelism: 1,
	})
	return &Fixture{Cat: f.Cat, Server: srv}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"lakeguard/internal/catalog"
	"lakeguard/internal/delta"
	"lakeguard/internal/eval"
	"lakeguard/internal/exec"
	"lakeguard/internal/plan"
	"lakeguard/internal/session"
	"lakeguard/internal/types"
)

// dmlAttempts bounds optimistic-concurrency replans for one DML statement.
// Each attempt re-reads the snapshot and recomputes matches, so a statement
// only fails when the table sustains this many conflicting commits during it.
const dmlAttempts = 8

// dmlScope is one namespace visible to a DML expression: the qualifiers that
// name it, its schema, and the column offset of its fields in the combined
// evaluation row.
type dmlScope struct {
	names  []string
	schema *types.Schema
	base   int
}

func tableScope(parts []string, alias string, schema *types.Schema, base int) dmlScope {
	names := []string{strings.ToLower(parts[len(parts)-1]), strings.ToLower(strings.Join(parts, "."))}
	if alias != "" {
		names = append(names, strings.ToLower(alias))
	}
	return dmlScope{names: names, schema: schema, base: base}
}

func (sc dmlScope) matches(qualifier string) bool {
	q := strings.ToLower(qualifier)
	for _, n := range sc.names {
		if n == q {
			return true
		}
	}
	return false
}

// bindDMLExpr resolves ColumnRefs against the scopes, producing BoundRefs
// whose ordinals index the combined row (target columns then source columns
// for MERGE). Unqualified names must be unambiguous across scopes.
func bindDMLExpr(e plan.Expr, scopes []dmlScope) (plan.Expr, error) {
	var bindErr error
	out := plan.TransformExpr(plan.CloneExpr(e), func(x plan.Expr) plan.Expr {
		cr, ok := x.(*plan.ColumnRef)
		if !ok || bindErr != nil {
			return x
		}
		var found *plan.BoundRef
		for _, sc := range scopes {
			if cr.Qualifier != "" && !sc.matches(cr.Qualifier) {
				continue
			}
			idx := sc.schema.IndexOf(cr.Name)
			if idx < 0 {
				continue
			}
			f := sc.schema.Fields[idx]
			if found != nil {
				bindErr = fmt.Errorf("core: column %q is ambiguous; qualify it", cr.String())
				return x
			}
			found = &plan.BoundRef{Index: sc.base + idx, Name: f.Name, Kind: f.Kind}
		}
		if found == nil {
			bindErr = fmt.Errorf("core: unknown column %q", cr.String())
			return x
		}
		return found
	})
	return out, bindErr
}

type boundAssign struct {
	col  int // target column ordinal
	kind types.Kind
	expr plan.Expr
}

func bindAssignments(set []plan.Assignment, target *types.Schema, scopes []dmlScope) ([]boundAssign, error) {
	out := make([]boundAssign, 0, len(set))
	for _, a := range set {
		idx := target.IndexOf(a.Column)
		if idx < 0 {
			return nil, fmt.Errorf("core: SET references unknown column %q", a.Column)
		}
		bound, err := bindDMLExpr(a.Value, scopes)
		if err != nil {
			return nil, err
		}
		out = append(out, boundAssign{col: idx, kind: target.Fields[idx].Kind, expr: bound})
	}
	return out, nil
}

// applyAssignments produces the updated copy of one row: the original values
// with each SET column replaced by its expression over the combined row.
func applyAssignments(target []types.Value, combined eval.RowFn, set []boundAssign, ectx *eval.Context) ([]types.Value, error) {
	updated := append([]types.Value(nil), target...)
	for _, a := range set {
		v, err := eval.Eval(a.expr, combined, ectx)
		if err != nil {
			return nil, err
		}
		cv, err := v.Cast(a.kind)
		if err != nil {
			return nil, fmt.Errorf("core: SET column %d: %w", a.col+1, err)
		}
		updated[a.col] = cv
	}
	return updated, nil
}

// executeDelete marks matching rows deleted via per-file deletion vectors:
// no data file is read for an unconditional DELETE and none is rewritten for
// a conditional one — the commit is a single log entry.
func (s *Server) executeDelete(qctx context.Context, ctx catalog.RequestContext, st *session.State, c *plan.DeleteFrom) (*types.Schema, *types.Batch, error) {
	matched, version, err := s.executeRowDML(ctx, c.Table, "DELETE", c.Where, nil)
	if err != nil {
		return nil, nil, err
	}
	schema, b := okBatch(fmt.Sprintf("deleted %d rows (version %d)", matched, version))
	return schema, b, nil
}

// executeUpdate rewrites matching rows in place: their old versions join the
// files' deletion vectors and one appended file carries the updated copies.
func (s *Server) executeUpdate(qctx context.Context, ctx catalog.RequestContext, st *session.State, c *plan.Update) (*types.Schema, *types.Batch, error) {
	matched, version, err := s.executeRowDML(ctx, c.Table, "UPDATE", c.Where, c.Set)
	if err != nil {
		return nil, nil, err
	}
	schema, b := okBatch(fmt.Sprintf("updated %d rows (version %d)", matched, version))
	return schema, b, nil
}

// executeRowDML is the shared DELETE/UPDATE engine: evaluate the predicate
// per row over the raw table, mask matches through deletion vectors, append
// updated copies when set is given, and commit optimistically with Expect
// guards so a concurrent writer forces a clean replan instead of lost rows.
func (s *Server) executeRowDML(ctx catalog.RequestContext, table []string, op string, where plan.Expr, set []plan.Assignment) (int64, int64, error) {
	meta, err := s.cat.ResolveTable(ctx, table)
	if err != nil {
		return 0, 0, err
	}
	if err := s.cat.AuthorizeTableDML(ctx, table, op); err != nil {
		return 0, 0, err
	}
	scopes := []dmlScope{tableScope(table, "", meta.Schema, 0)}
	var bWhere plan.Expr
	if where != nil {
		if bWhere, err = bindDMLExpr(where, scopes); err != nil {
			return 0, 0, err
		}
	}
	var bSet []boundAssign
	if set != nil {
		if bSet, err = bindAssignments(set, meta.Schema, scopes); err != nil {
			return 0, 0, err
		}
	}
	ectx := exec.NewEvalContext(s.cat, ctx.User)
	// The WHERE compiles once per statement, with its identity bound, into a
	// selection kernel; nil leaves it to the row interpreter.
	var wherePred *eval.VecProg
	if bWhere != nil {
		kinds := make([]types.Kind, meta.Schema.Len())
		for i, f := range meta.Schema.Fields {
			kinds[i] = f.Kind
		}
		wherePred, _ = eval.CompileVecBound(bWhere, kinds, ectx)
	}
	for attempt := 0; attempt < dmlAttempts; attempt++ {
		snap, read, err := s.cat.OpenSnapshot(ctx, meta.FullName, -1)
		if err != nil {
			return 0, 0, err
		}
		m := delta.Mutation{Operation: op}
		var matched int64
		// Unconditional DELETE: drop every live file without a single GET.
		if bWhere == nil && bSet == nil {
			for _, f := range snap.Files {
				if f.LiveRecords() == 0 {
					continue
				}
				m.RemovePaths = append(m.RemovePaths, f.Path)
				m.Expect = append(m.Expect, delta.FileExpectation{Path: f.Path, DVCardinality: f.DV.Cardinality()})
				matched += f.LiveRecords()
			}
		} else {
			candidates := make([]int, 0, len(snap.Files))
			if bWhere != nil {
				candidates = exec.PruneFilesForPredicate(meta.Schema, bWhere, snap.Files)
			} else {
				for i := range snap.Files {
					candidates = append(candidates, i)
				}
			}
			var updated *types.BatchBuilder
			if bSet != nil {
				updated = types.NewBatchBuilder(meta.Schema, 0)
			}
			for _, fi := range candidates {
				f := snap.Files[fi]
				if f.DV.Covers(f.NumRecords) {
					continue // already fully deleted; pruned from scans too
				}
				b, err := read(f.Path)
				if err != nil {
					return 0, 0, err
				}
				rows, err := dmlMatches(b, f.DV, bWhere, wherePred, ectx)
				if err != nil {
					return 0, 0, fmt.Errorf("core: %s WHERE: %w", op, err)
				}
				hits := make([]int64, len(rows))
				for i, r := range rows {
					hits[i] = int64(r)
					if updated != nil {
						row := b.Row(r)
						vals, err := applyAssignments(row, func(i int) types.Value { return row[i] }, bSet, ectx)
						if err != nil {
							return 0, 0, err
						}
						updated.AppendRow(vals)
					}
				}
				if len(hits) == 0 {
					continue
				}
				matched += int64(len(hits))
				if m.SetDVs == nil {
					m.SetDVs = map[string]*delta.DeletionVector{}
				}
				m.SetDVs[f.Path] = f.DV.Union(hits)
				m.Expect = append(m.Expect, delta.FileExpectation{Path: f.Path, DVCardinality: f.DV.Cardinality()})
			}
			if updated != nil {
				if ub := updated.Build(); ub.NumRows() > 0 {
					m.AddBatches = append(m.AddBatches, ub)
				}
			}
		}
		if matched == 0 {
			return 0, snap.Version, nil
		}
		v, err := s.cat.MutateTable(ctx, table, m)
		if errors.Is(err, delta.ErrConcurrentCommit) {
			continue
		}
		if err != nil {
			return 0, 0, err
		}
		return matched, v, nil
	}
	return 0, 0, fmt.Errorf("core: %s on %s: %w after %d attempts", op, meta.FullName, delta.ErrConcurrentCommit, dmlAttempts)
}

// dmlMatches returns the live rows of one file batch that a DELETE/UPDATE
// WHERE selects (every live row when where is nil). The deletion vector's
// keep-list is the first selection; the compiled kernel narrows it without
// boxing a row. The row interpreter serves a WHERE that did not compile.
func dmlMatches(b *types.Batch, dv *delta.DeletionVector, where plan.Expr, pred *eval.VecProg, ectx *eval.Context) ([]int, error) {
	n := b.NumRows()
	var live []int // nil = every row
	if dv.Cardinality() > 0 {
		live = dv.KeepIndexes(n)
	}
	switch {
	case where == nil:
		if live == nil {
			live = make([]int, n)
			for i := range live {
				live[i] = i
			}
		}
		return live, nil
	case pred != nil:
		if live != nil && len(live) == 0 {
			return nil, nil
		}
		return pred.Select(b.Cols, n, live, nil), nil
	}
	var out []int
	for r := 0; r < n; r++ {
		if dv.Has(int64(r)) {
			continue
		}
		ok, err := eval.EvalPredicate(where, func(i int) types.Value { return b.Cols[i].Value(r) }, ectx)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// executeMerge implements MERGE INTO on the same deletion-vector machinery:
// matched target rows are DV-masked (and, for UPDATE, re-appended with their
// assignments applied); source rows no target row matched are inserted. The
// source relation runs through the full query path, so row filters and masks
// on source tables apply to what the merge can see.
func (s *Server) executeMerge(qctx context.Context, ctx catalog.RequestContext, st *session.State, c *plan.MergeInto) (*types.Schema, *types.Batch, error) {
	meta, err := s.cat.ResolveTable(ctx, c.Table)
	if err != nil {
		return nil, nil, err
	}
	if err := s.cat.AuthorizeTableDML(ctx, c.Table, "MERGE"); err != nil {
		return nil, nil, err
	}
	if c.InsertValues != nil && len(c.InsertValues) != meta.Schema.Len() {
		return nil, nil, fmt.Errorf("core: MERGE INSERT has %d values for %d columns of %s",
			len(c.InsertValues), meta.Schema.Len(), meta.FullName)
	}
	srcSchema, srcBatches, err := s.run(qctx, ctx, st, c.Source, "", nil)
	if err != nil {
		return nil, nil, err
	}
	var srcRows [][]types.Value
	for _, b := range srcBatches {
		srcRows = append(srcRows, b.Rows()...)
	}
	tgt := tableScope(c.Table, c.TableAlias, meta.Schema, 0)
	src := dmlScope{schema: srcSchema, base: meta.Schema.Len()}
	if c.SourceAlias != "" {
		src.names = append(src.names, strings.ToLower(c.SourceAlias))
	}
	if rel, ok := c.Source.(*plan.UnresolvedRelation); ok && len(rel.Parts) > 0 {
		src.names = append(src.names, strings.ToLower(rel.Parts[len(rel.Parts)-1]))
	}
	both := []dmlScope{tgt, src}
	bOn, err := bindDMLExpr(c.On, both)
	if err != nil {
		return nil, nil, err
	}
	var bSet []boundAssign
	if len(c.MatchedSet) > 0 {
		if bSet, err = bindAssignments(c.MatchedSet, meta.Schema, both); err != nil {
			return nil, nil, err
		}
	}
	var bInsert []plan.Expr
	for _, e := range c.InsertValues {
		be, err := bindDMLExpr(e, []dmlScope{{names: src.names, schema: srcSchema, base: 0}})
		if err != nil {
			return nil, nil, err
		}
		bInsert = append(bInsert, be)
	}
	ectx := exec.NewEvalContext(s.cat, ctx.User)
	for attempt := 0; attempt < dmlAttempts; attempt++ {
		snap, read, err := s.cat.OpenSnapshot(ctx, meta.FullName, -1)
		if err != nil {
			return nil, nil, err
		}
		m := delta.Mutation{Operation: "MERGE"}
		srcMatched := make([]bool, len(srcRows))
		var updatedRows, deletedRows, insertedRows int64
		changed := types.NewBatchBuilder(meta.Schema, 0)
		for _, f := range snap.Files {
			if f.DV.Covers(f.NumRecords) {
				continue
			}
			b, err := read(f.Path)
			if err != nil {
				return nil, nil, err
			}
			var hits []int64
			for r := 0; r < b.NumRows(); r++ {
				if f.DV.Has(int64(r)) {
					continue
				}
				row := b.Row(r)
				var match []types.Value
				for si, srow := range srcRows {
					combined := append(append([]types.Value(nil), row...), srow...)
					ok, err := eval.EvalPredicate(bOn, func(i int) types.Value { return combined[i] }, ectx)
					if err != nil {
						return nil, nil, fmt.Errorf("core: MERGE ON: %w", err)
					}
					if ok {
						srcMatched[si] = true
						if match == nil {
							match = combined // first matching source row drives the action
						}
					}
				}
				if match == nil {
					continue
				}
				switch {
				case c.MatchedDelete:
					hits = append(hits, int64(r))
					deletedRows++
				case bSet != nil:
					vals, err := applyAssignments(row, func(i int) types.Value { return match[i] }, bSet, ectx)
					if err != nil {
						return nil, nil, err
					}
					hits = append(hits, int64(r))
					changed.AppendRow(vals)
					updatedRows++
				}
			}
			if len(hits) == 0 {
				continue
			}
			if m.SetDVs == nil {
				m.SetDVs = map[string]*delta.DeletionVector{}
			}
			m.SetDVs[f.Path] = f.DV.Union(hits)
			m.Expect = append(m.Expect, delta.FileExpectation{Path: f.Path, DVCardinality: f.DV.Cardinality()})
		}
		if bInsert != nil {
			for si, srow := range srcRows {
				if srcMatched[si] {
					continue
				}
				vals := make([]types.Value, len(bInsert))
				for i, e := range bInsert {
					v, err := eval.Eval(e, func(j int) types.Value { return srow[j] }, ectx)
					if err != nil {
						return nil, nil, fmt.Errorf("core: MERGE INSERT: %w", err)
					}
					cv, err := v.Cast(meta.Schema.Fields[i].Kind)
					if err != nil {
						return nil, nil, fmt.Errorf("core: MERGE INSERT column %q: %w", meta.Schema.Fields[i].Name, err)
					}
					vals[i] = cv
				}
				changed.AppendRow(vals)
				insertedRows++
			}
		}
		if cb := changed.Build(); cb.NumRows() > 0 {
			m.AddBatches = append(m.AddBatches, cb)
		}
		if updatedRows+deletedRows+insertedRows == 0 {
			schema, b := okBatch("merge matched 0 rows")
			return schema, b, nil
		}
		v, err := s.cat.MutateTable(ctx, c.Table, m)
		if errors.Is(err, delta.ErrConcurrentCommit) {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		schema, b := okBatch(fmt.Sprintf("merged: %d updated, %d deleted, %d inserted (version %d)",
			updatedRows, deletedRows, insertedRows, v))
		return schema, b, nil
	}
	return nil, nil, fmt.Errorf("core: MERGE on %s: %w after %d attempts", meta.FullName, delta.ErrConcurrentCommit, dmlAttempts)
}

// executeOptimize runs bin-packing compaction on a table.
func (s *Server) executeOptimize(ctx catalog.RequestContext, c *plan.OptimizeTable) (*types.Schema, *types.Batch, error) {
	stats, err := s.cat.CompactTable(ctx, c.Table, c.TargetBytes)
	if err != nil {
		return nil, nil, err
	}
	if stats.FilesIn == 0 {
		schema, b := okBatch("nothing to compact")
		return schema, b, nil
	}
	schema, b := okBatch(fmt.Sprintf("compacted %d files into %d (%d -> %d bytes, %d deleted rows dropped, version %d)",
		stats.FilesIn, stats.FilesOut, stats.BytesIn, stats.BytesOut, stats.DVRowsDropped, stats.Version))
	return schema, b, nil
}

// executeVacuum deletes unreferenced storage objects for a table.
func (s *Server) executeVacuum(ctx catalog.RequestContext, c *plan.VacuumTable) (*types.Schema, *types.Batch, error) {
	res, err := s.cat.VacuumTable(ctx, c.Table)
	if err != nil {
		return nil, nil, err
	}
	schema, b := okBatch(fmt.Sprintf("vacuumed %d tombstoned and %d orphaned objects (version %d)",
		res.TombstonesDeleted, res.OrphansDeleted, res.Version))
	return schema, b, nil
}

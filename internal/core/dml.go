package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"lakeguard/internal/analyzer"
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

// tableScope is the DML scope of a table: its columns are qualified by the
// table's name, its full name and its alias.
func tableScope(parts []string, alias string, schema *types.Schema, base int) analyzer.DMLScope {
	names := []string{strings.ToLower(strings.Join(parts, ".")), strings.ToLower(parts[len(parts)-1])}
	if alias != "" {
		names = append(names, strings.ToLower(alias))
	}
	return analyzer.DMLScope{Names: names, Schema: schema, Base: base}
}

type boundAssign struct {
	col  int // target column ordinal
	kind types.Kind
	expr plan.Expr
}

func bindAssignments(an *analyzer.Analyzer, set []plan.Assignment, target *types.Schema, scopes []analyzer.DMLScope) ([]boundAssign, error) {
	out := make([]boundAssign, 0, len(set))
	for _, a := range set {
		idx := target.IndexOf(a.Column)
		if idx < 0 {
			return nil, fmt.Errorf("core: SET references unknown column %q", a.Column)
		}
		bound, err := an.AnalyzeDMLExpr(a.Value, scopes)
		if err != nil {
			return nil, err
		}
		out = append(out, boundAssign{col: idx, kind: target.Fields[idx].Kind, expr: bound})
	}
	return out, nil
}

// compileAssignments compiles the SET expressions for one statement, each
// cast to its column's kind.
func (s *Server) compileAssignments(ectx *eval.Context, set []boundAssign, in *types.Schema) *exec.ExprProgs {
	exprs := make([]plan.Expr, len(set))
	kinds := make([]types.Kind, len(set))
	for i, a := range set {
		exprs[i], kinds[i] = a.expr, a.kind
	}
	return s.engine.CompileExprs(ectx, exprs, in, kinds)
}

// applyAssignments produces the updated copies of the rows of target: its
// columns with each SET column replaced by its expression over cols (the
// target columns, then the source columns for MERGE).
func applyAssignments(target *types.Batch, cols []*types.Column, set []boundAssign, progs *exec.ExprProgs) (*types.Batch, error) {
	vals, err := progs.Run(cols, target.NumRows(), nil)
	var cast *exec.CastError
	if errors.As(err, &cast) {
		return nil, fmt.Errorf("core: SET column %d: %w", set[cast.Expr()].col+1, cast)
	}
	if err != nil {
		return nil, err
	}
	updated := append([]*types.Column(nil), target.Cols...)
	for i, a := range set {
		updated[a.col] = vals[i]
	}
	return types.NewBatch(target.Schema, updated)
}

// deleteRows masks rows of file f through its deletion vector, expecting
// the vector f carries now.
func deleteRows(m *delta.Mutation, f delta.AddFile, rows []int) {
	hits := make([]int64, len(rows))
	for i, r := range rows {
		hits[i] = int64(r)
	}
	if m.SetDVs == nil {
		m.SetDVs = map[string]*delta.DeletionVector{}
	}
	m.SetDVs[f.Path] = f.DV.Union(hits)
	m.Expect = append(m.Expect, delta.FileExpectation{Path: f.Path, DVCardinality: f.DV.Cardinality()})
}

// executeDelete marks matching rows deleted via per-file deletion vectors:
// no data file is read for an unconditional DELETE and none is rewritten for
// a conditional one — the commit is a single log entry.
func (s *Server) executeDelete(qctx context.Context, ctx catalog.RequestContext, st *session.State, c *plan.DeleteFrom) (*types.Schema, *types.Batch, error) {
	matched, version, err := s.executeRowDML(ctx, st, c.Table, "DELETE", c.Where, nil)
	if err != nil {
		return nil, nil, err
	}
	schema, b := okBatch(fmt.Sprintf("deleted %d rows (version %d)", matched, version))
	return schema, b, nil
}

// executeUpdate rewrites matching rows in place: their old versions join the
// files' deletion vectors and one appended file carries the updated copies.
func (s *Server) executeUpdate(qctx context.Context, ctx catalog.RequestContext, st *session.State, c *plan.Update) (*types.Schema, *types.Batch, error) {
	matched, version, err := s.executeRowDML(ctx, st, c.Table, "UPDATE", c.Where, c.Set)
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
func (s *Server) executeRowDML(ctx catalog.RequestContext, st *session.State, table []string, op string, where plan.Expr, set []plan.Assignment) (int64, int64, error) {
	meta, err := s.cat.ResolveTable(ctx, table)
	if err != nil {
		return 0, 0, err
	}
	if err := s.cat.AuthorizeTableDML(ctx, table, op); err != nil {
		return 0, 0, err
	}
	an := s.newAnalyzer(ctx, st)
	scopes := []analyzer.DMLScope{tableScope(table, "", meta.Schema, 0)}
	var bWhere plan.Expr
	if where != nil {
		if bWhere, err = an.AnalyzeDMLExpr(where, scopes); err != nil {
			return 0, 0, err
		}
	}
	var bSet []boundAssign
	if set != nil {
		if bSet, err = bindAssignments(an, set, meta.Schema, scopes); err != nil {
			return 0, 0, err
		}
	}
	ectx := exec.NewEvalContext(s.cat, ctx.User)
	var whereProgs, setProgs *exec.ExprProgs
	if bWhere != nil {
		whereProgs = s.engine.CompileExprs(ectx, []plan.Expr{bWhere}, meta.Schema, []types.Kind{types.KindBool})
	}
	if bSet != nil {
		setProgs = s.compileAssignments(ectx, bSet, meta.Schema)
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
				// The deletion vector's keep-list is the first selection; the
				// WHERE narrows it.
				n := b.NumRows()
				var rows []int // nil = every row
				if f.DV.Cardinality() > 0 {
					rows = f.DV.KeepIndexes(n, nil)
				}
				if whereProgs != nil {
					if rows, err = whereProgs.Select(b.Cols, n, rows, nil); err != nil {
						return 0, 0, fmt.Errorf("core: %s WHERE: %w", op, err)
					}
				}
				if rows == nil {
					rows = make([]int, n)
					for i := range rows {
						rows[i] = i
					}
				}
				if len(rows) == 0 {
					continue
				}
				if updated != nil {
					hit := b.Gather(rows)
					ub, err := applyAssignments(hit, hit.Cols, bSet, setProgs)
					if err != nil {
						return 0, 0, err
					}
					updated.AppendBatch(ub)
				}
				matched += int64(len(rows))
				deleteRows(&m, f, rows)
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
	srcAll := types.NewBatchBuilder(srcSchema, 0)
	for _, b := range srcBatches {
		srcAll.AppendBatch(b)
	}
	src := srcAll.Build()
	an := s.newAnalyzer(ctx, st)
	tgt := tableScope(c.Table, c.TableAlias, meta.Schema, 0)
	srcScope := analyzer.DMLScope{Schema: srcSchema, Base: meta.Schema.Len()}
	if c.SourceAlias != "" {
		srcScope.Names = append(srcScope.Names, strings.ToLower(c.SourceAlias))
	}
	if rel, ok := c.Source.(*plan.UnresolvedRelation); ok && len(rel.Parts) > 0 {
		srcScope.Names = append(srcScope.Names, strings.ToLower(rel.Parts[len(rel.Parts)-1]))
	}
	both := []analyzer.DMLScope{tgt, srcScope}
	bOn, err := an.AnalyzeDMLExpr(c.On, both)
	if err != nil {
		return nil, nil, err
	}
	var bSet []boundAssign
	if len(c.MatchedSet) > 0 {
		if bSet, err = bindAssignments(an, c.MatchedSet, meta.Schema, both); err != nil {
			return nil, nil, err
		}
	}
	var bInsert []plan.Expr
	for _, e := range c.InsertValues {
		be, err := an.AnalyzeDMLExpr(e, []analyzer.DMLScope{{Names: srcScope.Names, Schema: srcSchema}})
		if err != nil {
			return nil, nil, err
		}
		bInsert = append(bInsert, be)
	}
	// Every expression evaluates over columns: ON and SET over the target
	// columns followed by the source's, INSERT over the source's alone.
	ectx := exec.NewEvalContext(s.cat, ctx.User)
	bothSchema := meta.Schema.Concat(srcSchema)
	onProgs := s.engine.CompileExprs(ectx, []plan.Expr{bOn}, bothSchema, []types.Kind{types.KindBool})
	var setProgs, insertProgs *exec.ExprProgs
	if bSet != nil {
		setProgs = s.compileAssignments(ectx, bSet, bothSchema)
	}
	if bInsert != nil {
		insertProgs = s.engine.CompileExprs(ectx, bInsert, srcSchema, meta.Schema.Kinds())
	}
	ns := src.NumRows()
	for attempt := 0; attempt < dmlAttempts; attempt++ {
		snap, read, err := s.cat.OpenSnapshot(ctx, meta.FullName, -1)
		if err != nil {
			return nil, nil, err
		}
		m := delta.Mutation{Operation: "MERGE"}
		srcMatched := make([]bool, ns)
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
			n := b.NumRows()
			var live []int // nil = every row
			if f.DV.Cardinality() > 0 {
				live = f.DV.KeepIndexes(n, nil)
			}
			// ON runs once per source row, over every live target row with
			// that source row's values as constant columns. The first
			// matching source row drives a target row's action.
			match := make([]int, n)
			for r := range match {
				match[r] = -1
			}
			cols := append(make([]*types.Column, 0, bothSchema.Len()), b.Cols...)
			var onSel exec.SelScratch // each source row's matches are read before the next
			for si := 0; si < ns; si++ {
				cols = cols[:len(b.Cols)]
				for _, sc := range src.Cols {
					cols = append(cols, types.ConstColumn(sc.Value(si), n))
				}
				sel, err := onProgs.Select(cols, n, live, &onSel)
				if err != nil {
					return nil, nil, fmt.Errorf("core: MERGE ON: %w", err)
				}
				srcMatched[si] = srcMatched[si] || len(sel) > 0
				for _, r := range sel {
					if match[r] < 0 {
						match[r] = si
					}
				}
			}
			var rows, srcOf []int
			for r, si := range match {
				if si >= 0 {
					rows, srcOf = append(rows, r), append(srcOf, si)
				}
			}
			switch {
			case len(rows) == 0:
				continue
			case c.MatchedDelete:
				deletedRows += int64(len(rows))
			case bSet != nil:
				hit := b.Gather(rows)
				ub, err := applyAssignments(hit, append(hit.Cols, src.Gather(srcOf).Cols...), bSet, setProgs)
				if err != nil {
					return nil, nil, err
				}
				changed.AppendBatch(ub)
				updatedRows += int64(len(rows))
			default:
				continue
			}
			deleteRows(&m, f, rows)
		}
		if bInsert != nil {
			var unmatched []int
			for si, hit := range srcMatched {
				if !hit {
					unmatched = append(unmatched, si)
				}
			}
			if len(unmatched) > 0 {
				ins := src.Gather(unmatched)
				vals, err := insertProgs.Run(ins.Cols, len(unmatched), nil)
				var cast *exec.CastError
				if errors.As(err, &cast) {
					return nil, nil, fmt.Errorf("core: MERGE INSERT column %q: %w", meta.Schema.Fields[cast.Expr()].Name, cast)
				}
				if err != nil {
					return nil, nil, fmt.Errorf("core: MERGE INSERT: %w", err)
				}
				changed.AppendBatch(types.MustBatch(meta.Schema, vals))
				insertedRows += int64(len(unmatched))
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

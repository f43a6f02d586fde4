package core

import (
	"context"
	"fmt"
	"sort"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/arrowipc"
	"lakeguard/internal/catalog"
	"lakeguard/internal/plan"
	"lakeguard/internal/proto"
	"lakeguard/internal/session"
	"lakeguard/internal/sql"
	"lakeguard/internal/types"
	"lakeguard/internal/udf"
)

// executeCommand dispatches a side-effecting execution root.
func (s *Server) executeCommand(qctx context.Context, ctx catalog.RequestContext, st *session.State, cmd *proto.Command) (*types.Schema, *types.Batch, error) {
	switch {
	case cmd.SQL != "":
		return s.executeSQL(qctx, ctx, st, cmd.SQL)

	case cmd.CreateTempView != nil:
		node, err := substituteSQL(cmd.CreateTempView.Input)
		if err != nil {
			return nil, nil, err
		}
		// Validate eagerly so broken temp views fail at registration.
		if _, err := s.newAnalyzer(ctx, st).Analyze(node); err != nil {
			return nil, nil, fmt.Errorf("core: temp view %q: %w", cmd.CreateTempView.Name, err)
		}
		s.mu.Lock()
		st.TempViews[lower(cmd.CreateTempView.Name)] = node
		s.mu.Unlock()
		schema, b := okBatch("temp view " + cmd.CreateTempView.Name + " created")
		return schema, b, nil

	case cmd.RegisterFunction != nil:
		rf := cmd.RegisterFunction
		if _, err := udf.Compile(rf.Body); err != nil {
			return nil, nil, fmt.Errorf("core: function %q: %w", rf.Name, err)
		}
		s.mu.Lock()
		st.TempFuncs[lower(rf.Name)] = analyzer.TempFunc{
			Params: rf.Params, Returns: rf.Returns, Body: rf.Body, Owner: ctx.User,
			Resources: rf.Resources,
		}
		s.mu.Unlock()
		schema, b := okBatch("function " + rf.Name + " registered")
		return schema, b, nil

	case cmd.InsertInto != nil:
		return s.executeInsert(qctx, ctx, st, cmd.InsertInto.Table, cmd.InsertInto.Input, nil)
	}
	return nil, nil, fmt.Errorf("core: empty command")
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c - 'A' + 'a'
		}
	}
	return string(b)
}

// executeSQL parses and dispatches one SQL statement.
func (s *Server) executeSQL(qctx context.Context, ctx catalog.RequestContext, st *session.State, text string) (*types.Schema, *types.Batch, error) {
	qctx = withSQLText(qctx, text)
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	if stmt.Query != nil {
		if stmt.Explain {
			c, err := s.compile(qctx, ctx, st, stmt.Query, nil)
			if err != nil {
				return nil, nil, err
			}
			schema := types.NewSchema(types.Field{Name: "plan", Kind: types.KindString})
			bb := types.NewBatchBuilder(schema, 1)
			bb.AppendRow([]types.Value{types.String(plan.ExplainRedacted(c.optimized))})
			return schema, bb.Build(), nil
		}
		schema, batches, err := s.run(qctx, ctx, st, stmt.Query, "", nil)
		if err != nil {
			return nil, nil, err
		}
		b, err := arrowipc.ConcatBatches(schema, batches)
		if err != nil {
			return nil, nil, err
		}
		return schema, b, nil
	}
	return s.executeDDL(qctx, ctx, st, stmt.Cmd)
}

// executeDDL dispatches parsed DDL/DML commands to the catalog.
func (s *Server) executeDDL(qctx context.Context, ctx catalog.RequestContext, st *session.State, cmd plan.Command) (*types.Schema, *types.Batch, error) {
	ok := func(msg string) (*types.Schema, *types.Batch, error) {
		schema, b := okBatch(msg)
		return schema, b, nil
	}
	switch c := cmd.(type) {
	case *plan.CreateSchema:
		if err := s.cat.CreateSchema(ctx, c.Name, c.IfNotExists); err != nil {
			return nil, nil, err
		}
		return ok("schema created")

	case *plan.CreateTable:
		if err := s.cat.CreateTable(ctx, c.Name, c.TableSchema, c.IfNotExists, c.Comment); err != nil {
			return nil, nil, err
		}
		return ok("table created")

	case *plan.CreateView:
		// Derive the view schema by analyzing the body as the creator.
		body, err := sql.ParseQuery(c.Query)
		if err != nil {
			return nil, nil, err
		}
		resolved, err := analyzer.New(s.cat, ctx).Analyze(body)
		if err != nil {
			return nil, nil, fmt.Errorf("core: view body: %w", err)
		}
		if err := s.cat.CreateView(ctx, c.Name, c.Query, c.Materialized, c.OrReplace, resolved.Schema().Clone(), c.Comment); err != nil {
			return nil, nil, err
		}
		if c.Materialized {
			return ok("materialized view created; run REFRESH MATERIALIZED VIEW to populate it")
		}
		return ok("view created")

	case *plan.CreateFunction:
		if _, err := udf.Compile(c.Body); err != nil {
			return nil, nil, fmt.Errorf("core: function body: %w", err)
		}
		if err := s.cat.CreateFunctionResources(ctx, c.Name, c.Params, c.Returns, c.Body, c.OrReplace, c.Comment, c.Resources); err != nil {
			return nil, nil, err
		}
		return ok("function created")

	case *plan.DropTable:
		if err := s.cat.Drop(ctx, c.Name, c.IfExists); err != nil {
			return nil, nil, err
		}
		return ok("dropped")

	case *plan.Grant:
		priv, err := catalog.ParsePrivilege(c.Privilege)
		if err != nil {
			return nil, nil, err
		}
		if err := s.cat.Grant(ctx, priv, c.Securable, c.Principal); err != nil {
			return nil, nil, err
		}
		return ok("granted")

	case *plan.Revoke:
		priv, err := catalog.ParsePrivilege(c.Privilege)
		if err != nil {
			return nil, nil, err
		}
		if err := s.cat.Revoke(ctx, priv, c.Securable, c.Principal); err != nil {
			return nil, nil, err
		}
		return ok("revoked")

	case *plan.SetRowFilter:
		if err := s.cat.SetRowFilter(ctx, c.Table, c.FilterSQL, c.Drop); err != nil {
			return nil, nil, err
		}
		return ok("row filter updated")

	case *plan.SetColumnMask:
		if err := s.cat.SetColumnMask(ctx, c.Table, c.Column, c.MaskSQL, c.Drop); err != nil {
			return nil, nil, err
		}
		return ok("column mask updated")

	case *plan.SetColumnTags:
		if err := s.cat.SetColumnTags(ctx, c.Table, c.Column, c.Tags); err != nil {
			return nil, nil, err
		}
		return ok("column tags updated")

	case *plan.InsertInto:
		if c.Query != nil {
			return s.executeInsert(qctx, ctx, st, c.Table, c.Query, nil)
		}
		return s.executeInsert(qctx, ctx, st, c.Table, nil, c.Rows)

	case *plan.RefreshMaterializedView:
		return s.refreshMaterializedView(qctx, ctx, c.Name)

	case *plan.CreateTableAs:
		return s.executeCTAS(qctx, ctx, st, c)

	case *plan.DeleteFrom:
		return s.executeDelete(qctx, ctx, st, c)

	case *plan.Update:
		return s.executeUpdate(qctx, ctx, st, c)

	case *plan.MergeInto:
		return s.executeMerge(qctx, ctx, st, c)

	case *plan.OptimizeTable:
		return s.executeOptimize(ctx, c)

	case *plan.VacuumTable:
		return s.executeVacuum(ctx, c)

	case *plan.ShowTables:
		names := s.cat.ListTables(ctx)
		sort.Strings(names)
		schema := types.NewSchema(types.Field{Name: "table_name", Kind: types.KindString})
		bb := types.NewBatchBuilder(schema, len(names))
		for _, n := range names {
			bb.AppendRow([]types.Value{types.String(n)})
		}
		return schema, bb.Build(), nil

	case *plan.DescribeHistory:
		history, err := s.cat.TableHistory(ctx, c.Name)
		if err != nil {
			return nil, nil, err
		}
		schema := types.NewSchema(
			types.Field{Name: "version", Kind: types.KindInt64},
			types.Field{Name: "timestamp", Kind: types.KindTimestamp},
			types.Field{Name: "operation", Kind: types.KindString},
			types.Field{Name: "num_files", Kind: types.KindInt64},
		)
		bb := types.NewBatchBuilder(schema, len(history))
		for _, h := range history {
			bb.AppendRow([]types.Value{
				types.Int64(h.Version), types.Timestamp(h.Timestamp.UnixMicro()),
				types.String(h.Operation), types.Int64(int64(h.NumFiles)),
			})
		}
		return schema, bb.Build(), nil

	case *plan.DescribeTable:
		meta, err := s.cat.Describe(ctx, c.Name)
		if err != nil {
			return nil, nil, err
		}
		schema := types.NewSchema(
			types.Field{Name: "col_name", Kind: types.KindString},
			types.Field{Name: "data_type", Kind: types.KindString},
			types.Field{Name: "nullable", Kind: types.KindBool},
			types.Field{Name: "comment", Kind: types.KindString},
		)
		bb := types.NewBatchBuilder(schema, meta.Schema.Len()+4)
		for _, f := range meta.Schema.Fields {
			comment := f.Comment
			if meta.ColumnMasks != nil {
				if _, masked := meta.ColumnMasks[lower(f.Name)]; masked {
					comment = appendAnnotation(comment, "MASKED")
				}
			}
			bb.AppendRow([]types.Value{
				types.String(f.Name), types.String(f.Kind.String()),
				types.Bool(f.Nullable), types.String(comment),
			})
		}
		bb.AppendRow([]types.Value{types.String("# type"), types.String(string(meta.Type)), types.Bool(false), types.String("")})
		bb.AppendRow([]types.Value{types.String("# owner"), types.String(meta.Owner), types.Bool(false), types.String("")})
		if meta.HasPolicies {
			bb.AppendRow([]types.Value{types.String("# governance"), types.String("fine-grained policies attached"), types.Bool(false), types.String("")})
		}
		return schema, bb.Build(), nil
	}
	return nil, nil, fmt.Errorf("core: unsupported command %T", cmd)
}

func appendAnnotation(comment, note string) string {
	if comment == "" {
		return note
	}
	return comment + " [" + note + "]"
}

// executeCTAS creates a table from a query result.
func (s *Server) executeCTAS(qctx context.Context, ctx catalog.RequestContext, st *session.State, c *plan.CreateTableAs) (*types.Schema, *types.Batch, error) {
	if c.IfNotExists {
		if _, err := s.cat.ResolveTable(ctx, c.Name); err == nil {
			schema, b := okBatch("table already exists; CTAS skipped")
			return schema, b, nil
		}
	}
	schema, batches, err := s.run(qctx, ctx, st, c.Query, "", nil)
	if err != nil {
		return nil, nil, err
	}
	// Result columns become nullable stored columns.
	tblSchema := schema.Clone()
	for i := range tblSchema.Fields {
		tblSchema.Fields[i].Nullable = true
	}
	if err := tblSchema.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: CTAS result schema: %w (alias duplicate columns)", err)
	}
	if err := s.cat.CreateTable(ctx, c.Name, tblSchema, c.IfNotExists, ""); err != nil {
		return nil, nil, err
	}
	if len(batches) > 0 {
		if _, err := s.cat.AppendToTable(ctx, c.Name, batches); err != nil {
			return nil, nil, err
		}
	}
	outSchema, b := okBatch(fmt.Sprintf("table created with %d rows", numRows(batches)))
	return outSchema, b, nil
}

// executeInsert appends a query result or literal rows into a table.
func (s *Server) executeInsert(qctx context.Context, ctx catalog.RequestContext, st *session.State, table []string, input plan.Node, rows [][]types.Value) (*types.Schema, *types.Batch, error) {
	meta, err := s.cat.ResolveTable(ctx, table)
	if err != nil {
		return nil, nil, err
	}
	var data []*types.Batch
	if input != nil {
		_, batches, err := s.run(qctx, ctx, st, input, "", nil)
		if err != nil {
			return nil, nil, err
		}
		// Coerce to the table schema (names from the query may differ).
		for _, b := range batches {
			cb, err := coerceBatch(b, meta.Schema)
			if err != nil {
				return nil, nil, err
			}
			data = append(data, cb)
		}
	} else {
		bb := types.NewBatchBuilder(meta.Schema, len(rows))
		for ri, row := range rows {
			if len(row) != meta.Schema.Len() {
				return nil, nil, fmt.Errorf("core: INSERT row %d has %d values for %d columns", ri+1, len(row), meta.Schema.Len())
			}
			cast := make([]types.Value, len(row))
			for i, v := range row {
				cv, err := v.Cast(meta.Schema.Fields[i].Kind)
				if err != nil {
					return nil, nil, fmt.Errorf("core: INSERT row %d column %q: %w", ri+1, meta.Schema.Fields[i].Name, err)
				}
				cast[i] = cv
			}
			bb.AppendRow(cast)
		}
		data = append(data, bb.Build())
	}
	version, err := s.cat.AppendToTable(ctx, table, data)
	if err != nil {
		return nil, nil, err
	}
	schema, b := okBatch(fmt.Sprintf("inserted %d rows (version %d)", numRows(data), version))
	return schema, b, nil
}

// coerceBatch casts a batch column-by-column to a target schema.
func coerceBatch(b *types.Batch, schema *types.Schema) (*types.Batch, error) {
	if b.NumCols() != schema.Len() {
		return nil, fmt.Errorf("core: INSERT source has %d columns for %d target columns", b.NumCols(), schema.Len())
	}
	bb := types.NewBatchBuilder(schema, b.NumRows())
	for i := 0; i < b.NumRows(); i++ {
		row := b.Row(i)
		cast := make([]types.Value, len(row))
		for c, v := range row {
			cv, err := v.Cast(schema.Fields[c].Kind)
			if err != nil {
				return nil, fmt.Errorf("core: INSERT column %q: %w", schema.Fields[c].Name, err)
			}
			cast[c] = cv
		}
		bb.AppendRow(cast)
	}
	return bb.Build(), nil
}

// refreshMaterializedView recomputes an MV by executing its stored body as
// the owner and overwriting the backing storage. The body runs with no
// session state: it must never resolve the refresher's temp views.
func (s *Server) refreshMaterializedView(qctx context.Context, ctx catalog.RequestContext, name []string) (*types.Schema, *types.Batch, error) {
	viewText, err := s.cat.ViewTextForRefresh(ctx, name)
	if err != nil {
		return nil, nil, err
	}
	_, batches, err := s.run(qctx, ctx, nil, &plan.SQLRelation{Query: viewText}, "", nil)
	if err != nil {
		return nil, nil, err
	}
	if err := s.cat.RefreshMaterializedView(ctx, name, batches); err != nil {
		return nil, nil, err
	}
	schema, b := okBatch("materialized view refreshed")
	return schema, b, nil
}

package catalog

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"lakeguard/internal/arrowipc"
	"lakeguard/internal/audit"
	"lakeguard/internal/delta"
	"lakeguard/internal/security"
	"lakeguard/internal/storage"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// defaultCompactTarget is the file size OPTIMIZE bin-packs toward when the
// statement gives no TARGET SIZE.
const defaultCompactTarget = 1 << 20

// dvRewriteDensity is the deleted-row fraction above which OPTIMIZE rewrites
// a file even when it is not small: past this point the scan-time masking
// cost and the dead bytes on storage outweigh one rewrite.
const dvRewriteDensity = 0.3

// CompactionStats summarizes one OPTIMIZE pass.
type CompactionStats struct {
	FilesIn       int   // data files folded into rewrites
	FilesOut      int   // replacement files written
	BytesIn       int64 // stored bytes of the input files
	BytesOut      int64 // stored bytes of the replacement files
	DVRowsDropped int64 // deletion-vector rows physically removed
	Version       int64 // table version holding the result
}

// metric returns a registry counter, or nil (a nil-safe no-op) before
// SetMetrics ran.
func (c *Catalog) metric(name string) *telemetry.Counter {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	if c.metrics == nil {
		return nil
	}
	return c.metrics.Counter(name)
}

// AuthorizeTableDML checks whether ctx may run a row-mutating DML operation
// (DELETE, UPDATE, MERGE) on a table, without vending a credential. The DML
// planner calls it before reading any data so denials happen early; the
// commit path (MutateTable) enforces the same rules again.
//
// Rules beyond MODIFY: system tables are engine-written only, and tables
// carrying FGAC policies accept DML only from their owner or an admin —
// deletion-vector DML evaluates predicates over the raw (unfiltered) rows,
// which is exactly what a row filter exists to prevent for other users.
func (c *Catalog) AuthorizeTableDML(ctx RequestContext, parts []string, operation string) error {
	c.mu.RLock()
	t, full, err := c.lookupTable(parts)
	if err != nil {
		c.mu.RUnlock()
		return err
	}
	if t.objType != TypeTable {
		c.mu.RUnlock()
		return fmt.Errorf("%w: cannot run %s on %s of type %s", ErrPermission, operation, full, t.objType)
	}
	hasFGAC := t.rowFilter != "" || len(c.effectiveMasks(t)) > 0
	owner := t.owner
	hasModify := c.hasPrivilege(ctx, PrivModify, full, owner)
	c.mu.RUnlock()
	if strings.HasPrefix(full, SystemCatalog+".") && ctx.User != SystemUser {
		c.record(ctx, operation, full, audit.DecisionDeny, "system tables are engine-written")
		return fmt.Errorf("%w: %s is an engine-written system table", ErrPermission, full)
	}
	if !hasModify {
		c.record(ctx, operation, full, audit.DecisionDeny, "missing MODIFY")
		return fmt.Errorf("%w: user %q lacks MODIFY on %s", ErrPermission, ctx.User, full)
	}
	if hasFGAC && ctx.User != owner && !c.isAdmin(ctx.User) {
		c.record(ctx, operation, full, audit.DecisionDeny, "DML on policy-protected table requires ownership")
		return fmt.Errorf("%w: only the owner may run DML on the policy-protected table %s", ErrPermission, full)
	}
	return nil
}

// MutateTable commits a deletion-vector/compaction mutation against a
// managed table. Content-changing operations pass AuthorizeTableDML;
// OPTIMIZE is content-preserving and needs only MODIFY (enforced by the
// credential vend). Returns the committed version.
func (c *Catalog) MutateTable(ctx RequestContext, parts []string, m delta.Mutation) (int64, error) {
	if m.Operation != "OPTIMIZE" {
		if err := c.AuthorizeTableDML(ctx, parts, m.Operation); err != nil {
			return 0, err
		}
	}
	cred, err := c.VendCredential(ctx, parts, storage.ModeReadWrite)
	if err != nil {
		return 0, err
	}
	c.mu.RLock()
	t, full, err := c.lookupTable(parts)
	c.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	if t.objType != TypeTable {
		return 0, fmt.Errorf("%w: cannot modify %s of type %s", ErrPermission, full, t.objType)
	}
	v, err := c.logFor(t.prefix).Mutate(cred, m)
	if err != nil {
		return 0, err
	}
	c.record(ctx, m.Operation, full, audit.DecisionAllow, fmt.Sprintf("version %d", v))
	return v, nil
}

// CompactTable runs OPTIMIZE: consecutive runs of small or deletion-vector-
// dense files are read, masked, and swapped for merged replacements in one
// atomic commit. targetBytes <= 0 uses the engine default.
func (c *Catalog) CompactTable(ctx RequestContext, parts []string, targetBytes int64) (CompactionStats, error) {
	cred, err := c.VendCredential(ctx, parts, storage.ModeReadWrite)
	if err != nil {
		return CompactionStats{}, err
	}
	c.mu.RLock()
	t, full, err := c.lookupTable(parts)
	c.mu.RUnlock()
	if err != nil {
		return CompactionStats{}, err
	}
	if t.objType != TypeTable {
		return CompactionStats{}, fmt.Errorf("%w: cannot optimize %s of type %s", ErrPermission, full, t.objType)
	}
	stats, err := c.compactLog(c.logFor(t.prefix), cred, targetBytes)
	if err != nil {
		return stats, err
	}
	c.record(ctx, "OPTIMIZE", full, audit.DecisionAllow,
		fmt.Sprintf("%d files -> %d (version %d)", stats.FilesIn, stats.FilesOut, stats.Version))
	return stats, nil
}

// compactLog plans and commits one compaction pass over a table log,
// retrying the whole plan when a concurrent commit invalidates it.
func (c *Catalog) compactLog(log *delta.Log, cred *storage.Credential, targetBytes int64) (CompactionStats, error) {
	if targetBytes <= 0 {
		targetBytes = defaultCompactTarget
	}
	// Each recompute replans from the snapshot the conflicting commit left,
	// so only a writer that lands again inside the next pass forces another.
	// Under sustained DML (a DELETE every few milliseconds) a handful of
	// passes is not enough; the budget matches Mutate's CAS retries.
	const maxRecompute = 16
	for attempt := 0; attempt < maxRecompute; attempt++ {
		snap, err := log.Snapshot(cred, -1)
		if err != nil {
			return CompactionStats{}, err
		}
		groups := planCompaction(snap.Files, targetBytes)
		var stats CompactionStats
		if len(groups) == 0 {
			stats.Version = snap.Version
			return stats, nil
		}
		m := delta.Mutation{Operation: "OPTIMIZE"}
		for _, g := range groups {
			parts := make([]*types.Batch, 0, len(g))
			for _, f := range g {
				b, err := c.batches.get(cred, f.Path)
				if err != nil {
					return stats, err
				}
				if card := f.DV.Cardinality(); card > 0 {
					b = b.Gather(f.DV.KeepIndexes(b.NumRows(), nil))
					stats.DVRowsDropped += card
				}
				if b.NumRows() > 0 {
					parts = append(parts, b)
				}
				m.RemovePaths = append(m.RemovePaths, f.Path)
				m.Expect = append(m.Expect, delta.FileExpectation{Path: f.Path, DVCardinality: f.DV.Cardinality()})
				stats.FilesIn++
				stats.BytesIn += f.SizeBytes
			}
			if len(parts) == 0 {
				continue // every row deleted: the swap drops the files outright
			}
			merged, err := arrowipc.ConcatBatches(snap.Schema, parts)
			if err != nil {
				return stats, err
			}
			enc, err := arrowipc.EncodeBatch(merged)
			if err != nil {
				return stats, err
			}
			stats.BytesOut += int64(len(enc))
			m.AddBatches = append(m.AddBatches, merged)
			stats.FilesOut++
		}
		v, err := log.Mutate(cred, m)
		if errors.Is(err, delta.ErrConcurrentCommit) {
			continue // replan against the newer snapshot
		}
		if err != nil {
			return stats, err
		}
		stats.Version = v
		c.metric("compaction.files_in").Add(int64(stats.FilesIn))
		c.metric("compaction.files_out").Add(int64(stats.FilesOut))
		c.metric("compaction.bytes").Add(stats.BytesIn)
		return stats, nil
	}
	return CompactionStats{}, fmt.Errorf("catalog: OPTIMIZE: %w after %d attempts", delta.ErrConcurrentCommit, maxRecompute)
}

// planCompaction groups consecutive candidate files (small, or past the DV
// density threshold) into rewrite groups. Consecutive-only grouping keeps
// any natural clustering of the data; a group must merge at least two files
// or physically drop deleted rows to justify the rewrite.
func planCompaction(files []delta.AddFile, targetBytes int64) [][]delta.AddFile {
	var groups [][]delta.AddFile
	var cur []delta.AddFile
	var curBytes int64
	flush := func() {
		if len(cur) >= 2 || (len(cur) == 1 && cur[0].DV.Cardinality() > 0) {
			groups = append(groups, cur)
		}
		cur, curBytes = nil, 0
	}
	for _, f := range files {
		small := f.SizeBytes < targetBytes
		dense := f.NumRecords > 0 &&
			float64(f.DV.Cardinality())/float64(f.NumRecords) >= dvRewriteDensity
		if !small && !dense {
			flush()
			continue
		}
		cur = append(cur, f)
		curBytes += f.SizeBytes
		if curBytes >= targetBytes {
			flush()
		}
	}
	flush()
	return groups
}

// VacuumTable deletes storage objects no live snapshot references —
// tombstoned data files and orphans from failed commit attempts — and
// commits a VACUUM entry clearing the reclaimed tombstones from the log.
func (c *Catalog) VacuumTable(ctx RequestContext, parts []string) (delta.VacuumResult, error) {
	cred, err := c.VendCredential(ctx, parts, storage.ModeReadWrite)
	if err != nil {
		return delta.VacuumResult{}, err
	}
	c.mu.RLock()
	t, full, err := c.lookupTable(parts)
	c.mu.RUnlock()
	if err != nil {
		return delta.VacuumResult{}, err
	}
	if t.objType != TypeTable {
		return delta.VacuumResult{}, fmt.Errorf("%w: cannot vacuum %s of type %s", ErrPermission, full, t.objType)
	}
	res, err := c.logFor(t.prefix).Vacuum(cred)
	if err != nil {
		return res, err
	}
	deleted := res.TombstonesDeleted + res.OrphansDeleted
	if deleted > 0 {
		c.batches.invalidatePrefix(t.prefix)
	}
	c.metric("vacuum.files_deleted").Add(int64(deleted))
	c.record(ctx, "VACUUM", full, audit.DecisionAllow,
		fmt.Sprintf("%d tombstoned + %d orphaned objects", res.TombstonesDeleted, res.OrphansDeleted))
	return res, nil
}

// MaintainSystemTable compacts and vacuums an engine-owned system table
// using the signer directly (the system user vends no credentials). The
// retention sweeper calls it so high-churn audit/billing tables keep a
// bounded file count. One audited MAINTENANCE event records the pass.
func (c *Catalog) MaintainSystemTable(parts []string) (CompactionStats, delta.VacuumResult, error) {
	t, full, err := c.systemTable(parts)
	if err != nil {
		return CompactionStats{}, delta.VacuumResult{}, err
	}
	cred := c.signer.Issue(t.prefix, storage.ModeReadWrite, time.Minute)
	log := c.logFor(t.prefix)
	stats, err := c.compactLog(log, &cred, 0)
	if err != nil {
		return stats, delta.VacuumResult{}, fmt.Errorf("catalog: maintain %s: %w", full, err)
	}
	res, err := log.Vacuum(&cred)
	if err != nil {
		return stats, res, fmt.Errorf("catalog: maintain %s: %w", full, err)
	}
	if n := res.TombstonesDeleted + res.OrphansDeleted; n > 0 {
		c.batches.invalidatePrefix(t.prefix)
		c.metric("vacuum.files_deleted").Add(int64(n))
	}
	if stats.FilesIn > 0 || res.TombstonesDeleted+res.OrphansDeleted > 0 {
		c.record(RequestContext{User: SystemUser, Compute: security.ComputeServerless}, "MAINTENANCE", full,
			audit.DecisionAllow, fmt.Sprintf("compacted %d->%d files, deleted %d objects",
				stats.FilesIn, stats.FilesOut, res.TombstonesDeleted+res.OrphansDeleted))
	}
	return stats, res, nil
}

// SetCheckpointInterval sets the log-checkpoint cadence for every table
// handle the catalog creates (and retrofits existing handles). n <= 0
// disables checkpoint writing.
func (c *Catalog) SetCheckpointInterval(n int) {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	c.ckptInterval = n
	c.ckptSet = true
	for _, l := range c.logs {
		l.SetCheckpointInterval(n)
	}
}

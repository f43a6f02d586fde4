// Package delta implements a Delta-Lake-style table format over the object
// store: an ordered JSON transaction log plus immutable columnar data files.
// Commits use PutIfAbsent on the next log entry for optimistic concurrency,
// and snapshots support time travel (VERSION AS OF n).
//
// Snapshots are served through an incremental cache: the log tail is
// discovered with one credential-checked LIST (seeded from the cached
// version, so its cost is O(new entries) — see tailVersionLocked), the
// latest replay state advances by applying only new log entries, and a small
// LRU holds time-travel versions. Cold replay is bounded by checkpoints
// (checkpoint.go): every checkpointInterval commits the full replay state is
// materialized, so a fresh handle reads one checkpoint plus the log tail
// instead of replaying from genesis. The cache never weakens access control —
// every Snapshot call re-runs the caller's credential through the store
// before any cached state is returned.
package delta

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lakeguard/internal/arrowipc"
	"lakeguard/internal/storage"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// Action is one entry in a commit file. Exactly one field is set.
type Action struct {
	MetaData   *MetaData   `json:"metaData,omitempty"`
	Add        *AddFile    `json:"add,omitempty"`
	Remove     *Remove     `json:"remove,omitempty"`
	SetDV      *SetDV      `json:"setDV,omitempty"`
	Vacuum     *VacuumInfo `json:"vacuum,omitempty"`
	CommitInfo *CommitInfo `json:"commitInfo,omitempty"`
}

// CommitInfo records provenance for one commit (DESCRIBE HISTORY).
type CommitInfo struct {
	TimestampMicros int64  `json:"timestamp"`
	Operation       string `json:"operation"`
}

// MetaData records the table schema.
type MetaData struct {
	SchemaFields []SchemaField `json:"schemaFields"`
}

// SchemaField is the JSON form of a types.Field.
type SchemaField struct {
	Name     string `json:"name"`
	Kind     uint8  `json:"kind"`
	Nullable bool   `json:"nullable"`
	Comment  string `json:"comment,omitempty"`
}

// AddFile registers a data file in the table. Stats carries the file's
// zone-map column statistics; entries committed before statistics existed
// decode with Stats == nil and are never pruned. DV is the file's current
// deletion vector (nil = no rows deleted); after a deletion the recorded
// Stats are a conservative superset of the surviving rows' bounds, which
// keeps zone-map pruning sound (it may under-prune, never wrong).
type AddFile struct {
	Path       string          `json:"path"`
	NumRecords int64           `json:"numRecords"`
	SizeBytes  int64           `json:"sizeBytes"`
	Stats      *FileStats      `json:"stats,omitempty"`
	DV         *DeletionVector `json:"dv,omitempty"`
}

// LiveRecords returns the file's row count minus deleted rows.
func (f *AddFile) LiveRecords() int64 { return f.NumRecords - f.DV.Cardinality() }

// Remove unregisters a data file.
type Remove struct {
	Path string `json:"path"`
}

// SetDV replaces the deletion vector of a live data file. The DV is a full
// replacement (not a delta), so applying the action is idempotent and the
// file's logical content at any version is determined by that version alone.
type SetDV struct {
	Path string          `json:"path"`
	DV   *DeletionVector `json:"dv"`
}

// VacuumInfo clears removed-file tombstones after their data objects were
// physically deleted, so the tombstone list carried by checkpoints stays
// bounded.
type VacuumInfo struct {
	Paths []string `json:"paths"`
}

// timeTravelCacheSize bounds the per-log LRU of time-travel snapshots.
const timeTravelCacheSize = 8

// DefaultCheckpointInterval is how many commits elapse between checkpoint
// materializations. Small enough that high-churn tables (the system-table
// spooler appends a tiny file per flush) keep cold replay short; large
// enough that checkpoint writes stay a rounding error next to commits.
const DefaultCheckpointInterval = 32

// Log is a handle to one table's transaction log. A Log may be shared by
// many concurrent readers (the catalog caches one handle per table prefix):
// the snapshot cache inside it is guarded by mu, and every Snapshot call
// revalidates the caller's credential against the store before serving
// cached state.
type Log struct {
	store    *storage.Store
	prefix   string
	fileSeq  atomic.Int64
	interval atomic.Int64 // checkpoint interval; <= 0 disables checkpoints
	clock    func() time.Time

	mu     sync.Mutex
	latest *logState           // incremental replay state at the newest known version
	travel map[int64]*Snapshot // time-travel LRU, bounded by timeTravelCacheSize
	tOrder []int64             // travel eviction order, oldest first
	ckpts  []int64             // known checkpoint versions, sorted ascending

	// snapshot-cache counters (nil until SetMetrics; nil-safe no-ops).
	mHits       *telemetry.Counter
	mMisses     *telemetry.Counter
	mReplayed   *telemetry.Counter
	mCkptWrites *telemetry.Counter
	mCkptHits   *telemetry.Counter
	mFromCkpt   *telemetry.Counter
	mRetries    *telemetry.Counter
}

func newLog(store *storage.Store, prefix string) *Log {
	l := &Log{store: store, prefix: prefix, clock: time.Now}
	l.interval.Store(DefaultCheckpointInterval)
	return l
}

// SetMetrics publishes snapshot-cache and commit counters
// (snapshot.cache.hit, snapshot.cache.miss, snapshot.entries.replayed,
// snapshot.replay.from_checkpoint, delta.checkpoint.writes,
// delta.checkpoint.hits, delta.commit.retries) on a registry.
func (l *Log) SetMetrics(m *telemetry.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mHits = m.Counter("snapshot.cache.hit")
	l.mMisses = m.Counter("snapshot.cache.miss")
	l.mReplayed = m.Counter("snapshot.entries.replayed")
	l.mCkptWrites = m.Counter("delta.checkpoint.writes")
	l.mCkptHits = m.Counter("delta.checkpoint.hits")
	l.mFromCkpt = m.Counter("snapshot.replay.from_checkpoint")
	l.mRetries = m.Counter("delta.commit.retries")
}

// SetCheckpointInterval overrides how many commits elapse between checkpoint
// writes; n <= 0 disables checkpointing (legacy log behavior).
func (l *Log) SetCheckpointInterval(n int) { l.interval.Store(int64(n)) }

// logState is the mutable replay state behind the snapshot cache. It
// accumulates exactly what a full replay from version 0 would: the schema,
// the live file set, first-seen file order (so cached and uncached snapshots
// are byte-identical, including across Overwrite commits), and the removed
// but not yet vacuumed file tombstones.
type logState struct {
	version    int64
	schema     *types.Schema
	live       map[string]AddFile
	order      []string
	tombstones map[string]bool
}

func newLogState() *logState {
	return &logState{version: -1, live: map[string]AddFile{}, tombstones: map[string]bool{}}
}

func (st *logState) clone() *logState {
	cp := &logState{
		version:    st.version,
		schema:     st.schema,
		live:       make(map[string]AddFile, len(st.live)),
		order:      append([]string(nil), st.order...),
		tombstones: make(map[string]bool, len(st.tombstones)),
	}
	for k, v := range st.live {
		cp.live[k] = v
	}
	for k := range st.tombstones {
		cp.tombstones[k] = true
	}
	return cp
}

func (st *logState) apply(actions []Action) {
	for _, a := range actions {
		switch {
		case a.CommitInfo != nil:
			// provenance only; History reads these
		case a.MetaData != nil:
			st.schema = metaToSchema(a.MetaData)
		case a.Add != nil:
			if _, seen := st.live[a.Add.Path]; !seen {
				st.order = append(st.order, a.Add.Path)
			}
			st.live[a.Add.Path] = *a.Add
		case a.Remove != nil:
			delete(st.live, a.Remove.Path)
			st.tombstones[a.Remove.Path] = true
		case a.SetDV != nil:
			if f, ok := st.live[a.SetDV.Path]; ok {
				f.DV = a.SetDV.DV
				st.live[a.SetDV.Path] = f
			}
		case a.Vacuum != nil:
			for _, p := range a.Vacuum.Paths {
				delete(st.tombstones, p)
			}
		}
	}
}

func (st *logState) snapshot(prefix string) *Snapshot {
	snap := &Snapshot{Version: st.version, Schema: st.schema, prefix: prefix}
	for _, p := range st.order {
		if f, ok := st.live[p]; ok {
			snap.Files = append(snap.Files, f)
		}
	}
	for p := range st.tombstones {
		snap.Tombstones = append(snap.Tombstones, p)
	}
	sort.Strings(snap.Tombstones)
	return snap
}

// ErrConcurrentCommit is returned when another writer won the commit race;
// callers should re-read the snapshot and retry.
var ErrConcurrentCommit = errors.New("delta: concurrent commit, retry")

// ErrVersionNotFound is returned for time travel to a missing version.
var ErrVersionNotFound = errors.New("delta: version not found")

func logPath(prefix string, version int64) string {
	return fmt.Sprintf("%s_delta_log/%020d.json", prefix, version)
}

func dataPath(prefix string, version, seq int64) string {
	return fmt.Sprintf("%sdata/%06d-%06d.arrow", prefix, version, seq)
}

// dataFileVersion extracts the commit version embedded in a data file name
// ("<prefix>data/%06d-%06d.arrow"). VACUUM uses it to decide whether an
// unreferenced object can belong to an in-flight commit.
func dataFileVersion(prefix, path string) (int64, bool) {
	name, ok := strings.CutPrefix(path, prefix+"data/")
	if !ok {
		return 0, false
	}
	name, ok = strings.CutSuffix(name, ".arrow")
	if !ok || strings.Contains(name, "/") {
		return 0, false
	}
	verStr, _, ok := strings.Cut(name, "-")
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(verStr, 10, 64)
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

// Create initializes a new table at prefix with the given schema, writing
// commit 0. The credential must grant read-write under prefix.
func Create(store *storage.Store, cred *storage.Credential, prefix string, schema *types.Schema) (*Log, error) {
	if err := schema.Validate(); err != nil {
		return nil, fmt.Errorf("delta: invalid schema: %w", err)
	}
	l := newLog(store, prefix)
	actions := []Action{
		{MetaData: schemaToMeta(schema)},
		{CommitInfo: &CommitInfo{TimestampMicros: time.Now().UnixMicro(), Operation: "CREATE TABLE"}},
	}
	data, err := encodeActions(actions)
	if err != nil {
		return nil, err
	}
	if err := store.PutIfAbsent(cred, logPath(prefix, 0), data); err != nil {
		if errors.Is(err, storage.ErrAlreadyExists) {
			return nil, fmt.Errorf("delta: table already exists at %s", prefix)
		}
		return nil, err
	}
	return l, nil
}

// Open attaches to an existing table, verifying commit 0 exists. The probe
// is a HEAD-style existence check — it no longer downloads and discards the
// full version-0 log entry.
func Open(store *storage.Store, cred *storage.Credential, prefix string) (*Log, error) {
	ok, err := store.Exists(cred, logPath(prefix, 0))
	if err != nil {
		return nil, fmt.Errorf("delta: no table at %s: %w", prefix, err)
	}
	if !ok {
		return nil, fmt.Errorf("delta: no table at %s: %w: %s", prefix, storage.ErrNotFound, logPath(prefix, 0))
	}
	return newLog(store, prefix), nil
}

// Attach returns a handle to the table at prefix without probing storage.
// Callers that already know the table exists (the catalog's cached per-table
// handles) use it to skip Open's existence check; Snapshot still verifies
// the caller's credential on every call.
func Attach(store *storage.Store, prefix string) *Log {
	return newLog(store, prefix)
}

// SetClock overrides the commit timestamp source (tests).
func (l *Log) SetClock(clock func() time.Time) { l.clock = clock }

// Prefix returns the table's storage prefix.
func (l *Log) Prefix() string { return l.prefix }

func (l *Log) logDir() string { return l.prefix + "_delta_log/" }

// parseLogVersion extracts the commit version from a log object path.
// Checkpoint files ("....checkpoint.json") and the _last_checkpoint pointer
// fail the numeric parse and are ignored here.
func parseLogVersion(dir, path string) (int64, bool) {
	name, ok := strings.CutPrefix(path, dir)
	if !ok {
		return 0, false
	}
	name, ok = strings.CutSuffix(name, ".json")
	if !ok || strings.Contains(name, "/") {
		return 0, false
	}
	v, err := strconv.ParseInt(name, 10, 64)
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

// tailVersionLocked discovers the newest committed version (-1 for an empty
// log) with a single credential-checked LIST of the log directory. When the
// handle already holds replay state, the LIST is seeded to start after the
// cached version, so its cost is O(entries newer than the cache) instead of
// O(table age); the store credits the skipped objects to storage.list_saved.
// Checkpoint files discovered by either listing are remembered for
// time-travel seeding. Caller must hold l.mu.
func (l *Log) tailVersionLocked(cred *storage.Credential) (int64, error) {
	dir := l.logDir()
	seed := int64(-1)
	if l.latest != nil {
		seed = l.latest.version
	}
	var paths []string
	var err error
	if seed >= 0 {
		paths, err = l.store.ListAfter(cred, dir, logPath(l.prefix, seed))
	} else {
		paths, err = l.store.List(cred, dir)
	}
	if err != nil {
		return -1, err
	}
	tail := seed
	for _, p := range paths {
		if v, ok := parseLogVersion(dir, p); ok && v > tail {
			tail = v
		}
		if v, ok := parseCheckpointVersion(dir, p); ok {
			l.noteCheckpoint(v)
		}
	}
	if seed >= 0 && len(paths) == 0 {
		// Nothing after the seed. Either the table is unchanged or the log
		// was rewound under us (DROP + re-CREATE at the same prefix) and the
		// seeded listing skipped the new, lower-numbered entries. One HEAD
		// on the seed entry distinguishes the two.
		ok, err := l.store.Exists(cred, logPath(l.prefix, seed))
		if err != nil {
			return -1, err
		}
		if !ok {
			l.latest, l.travel, l.tOrder, l.ckpts = nil, nil, nil, nil
			return l.tailVersionLocked(cred)
		}
	}
	return tail, nil
}

// replayInto applies log entries [from, to] onto st. Every entry read is one
// storage GET; the count feeds the snapshot.entries.replayed metric.
func (l *Log) replayInto(cred *storage.Credential, st *logState, from, to int64) error {
	for v := from; v <= to; v++ {
		data, err := l.store.Get(cred, logPath(l.prefix, v))
		if err != nil {
			return err
		}
		actions, err := decodeActions(data)
		if err != nil {
			return fmt.Errorf("delta: corrupt commit %d: %w", v, err)
		}
		st.apply(actions)
		st.version = v
		l.mReplayed.Inc()
	}
	return nil
}

func (l *Log) travelGet(version int64) (*Snapshot, bool) {
	s, ok := l.travel[version]
	return s, ok
}

func (l *Log) travelPut(version int64, s *Snapshot) {
	if l.travel == nil {
		l.travel = map[int64]*Snapshot{}
	}
	if _, ok := l.travel[version]; ok {
		return
	}
	for len(l.travel) >= timeTravelCacheSize && len(l.tOrder) > 0 {
		delete(l.travel, l.tOrder[0])
		l.tOrder = l.tOrder[1:]
	}
	l.travel[version] = s
	l.tOrder = append(l.tOrder, version)
}

// Snapshot reconstructs table state at a version (-1 = latest).
//
// The common path is cache-driven: one seeded LIST finds the log tail, the
// cached latest state advances by replaying only entries newer than it (zero
// when the table hasn't changed), and time-travel versions are served from a
// bounded LRU. A cold handle (no cached state) seeds its replay from the
// newest checkpoint at or below the target version, so cold cost is one
// checkpoint GET plus the log tail rather than a genesis replay. The LIST
// runs the caller's full credential check on every call, so a snapshot
// cached under one principal never bypasses the access decision for another.
// GETs avoided by the cache or a checkpoint are credited to the
// storage.get_saved metric.
func (l *Log) Snapshot(cred *storage.Credential, version int64) (*Snapshot, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked(cred, version)
}

func (l *Log) snapshotLocked(cred *storage.Credential, version int64) (*Snapshot, error) {
	tail, err := l.tailVersionLocked(cred)
	if err != nil {
		return nil, err
	}
	if tail < 0 || (version >= 0 && version > tail) {
		return nil, fmt.Errorf("%w: %d (latest %d)", ErrVersionNotFound, version, tail)
	}
	// DROP + re-CREATE at the same prefix rewinds the log: discard state
	// replayed from the previous incarnation.
	if l.latest != nil && l.latest.version > tail {
		l.latest = nil
		l.travel = nil
		l.tOrder = nil
		l.ckpts = nil
	}
	target := tail
	if version >= 0 {
		target = version
	}
	if version < 0 || version == tail {
		st := l.latest
		from := int64(0)
		if st != nil {
			from = st.version + 1
			l.mHits.Inc()
			l.store.CreditSavedGets(from)
		} else {
			st = l.seedState(cred, target)
			from = st.version + 1
			l.mMisses.Inc()
		}
		if from <= target {
			st = st.clone()
			if err := l.replayInto(cred, st, from, target); err != nil {
				return nil, err
			}
			l.latest = st
		}
		return st.snapshot(l.prefix), nil
	}
	if s, ok := l.travelGet(version); ok {
		l.mHits.Inc()
		l.store.CreditSavedGets(version + 1)
		return s, nil
	}
	l.mMisses.Inc()
	st := l.seedState(cred, version)
	if err := l.replayInto(cred, st, st.version+1, version); err != nil {
		return nil, err
	}
	snap := st.snapshot(l.prefix)
	l.travelPut(version, snap)
	return snap, nil
}

// seedState returns the replay starting point for a cold reconstruction of
// maxVersion: the state loaded from the newest known checkpoint at or below
// it, or an empty genesis state when no usable checkpoint exists. A corrupt
// or missing checkpoint silently degrades to genesis replay — checkpoints
// are an optimization, never required for correctness.
func (l *Log) seedState(cred *storage.Credential, maxVersion int64) *logState {
	cv, ok := l.nearestCheckpoint(maxVersion)
	if !ok {
		return newLogState()
	}
	st, err := l.readCheckpoint(cred, cv)
	if err != nil {
		return newLogState()
	}
	l.mCkptHits.Inc()
	l.mFromCkpt.Inc()
	// One checkpoint GET replaced replaying entries 0..cv.
	l.store.CreditSavedGets(cv)
	return st
}

// Append commits new data files containing the given batches.
func (l *Log) Append(cred *storage.Credential, batches []*types.Batch) (int64, error) {
	return l.commit(cred, batches, false, "WRITE")
}

// Overwrite replaces the table's entire contents with the given batches
// (used by materialized-view refresh and INSERT OVERWRITE semantics). The
// replaced data files are tombstoned, not deleted — time travel still reads
// them until VACUUM sweeps.
func (l *Log) Overwrite(cred *storage.Credential, batches []*types.Batch) (int64, error) {
	return l.commit(cred, batches, true, "OVERWRITE")
}

// writeDataFiles encodes batches into data objects for a commit targeting
// version and returns their Add actions. Files written by a commit attempt
// that later loses its race are re-written by the retry and become orphans;
// VACUUM collects them (their embedded version is at or below the winning
// tail, so the sweep can prove they are not in-flight).
func (l *Log) writeDataFiles(cred *storage.Credential, version int64, schema *types.Schema, batches []*types.Batch) ([]Action, error) {
	var actions []Action
	for _, b := range batches {
		if b.NumRows() == 0 {
			continue
		}
		if !b.Schema.Equal(schema) {
			return nil, fmt.Errorf("delta: batch schema %s does not match table schema %s", b.Schema, schema)
		}
		data, err := arrowipc.EncodeBatch(b)
		if err != nil {
			return nil, err
		}
		// Every writer holds its own handle, so two writers racing for the
		// same version draw the same names from their sequences: write only
		// to a fresh name, or one would overwrite the other's data.
		path := dataPath(l.prefix, version, l.fileSeq.Add(1))
		for {
			err := l.store.PutIfAbsent(cred, path, data)
			if err == nil {
				break
			}
			if !errors.Is(err, storage.ErrAlreadyExists) {
				return nil, err
			}
			path = dataPath(l.prefix, version, l.fileSeq.Add(1))
		}
		actions = append(actions, Action{Add: &AddFile{
			Path: path, NumRecords: int64(b.NumRows()), SizeBytes: int64(len(data)),
			Stats: ComputeStats(b),
		}})
	}
	return actions, nil
}

func (l *Log) commit(cred *storage.Credential, batches []*types.Batch, overwrite bool, operation string) (int64, error) {
	const maxRetries = 16
	for attempt := 0; attempt < maxRetries; attempt++ {
		snap, err := l.Snapshot(cred, -1)
		if err != nil {
			return 0, err
		}
		actions := []Action{{CommitInfo: &CommitInfo{TimestampMicros: l.clock().UnixMicro(), Operation: operation}}}
		if overwrite {
			for _, f := range snap.Files {
				f := f
				actions = append(actions, Action{Remove: &Remove{Path: f.Path}})
			}
		}
		adds, err := l.writeDataFiles(cred, snap.Version+1, snap.Schema, batches)
		if err != nil {
			return 0, err
		}
		actions = append(actions, adds...)
		payload, err := encodeActions(actions)
		if err != nil {
			return 0, err
		}
		next := snap.Version + 1
		err = l.store.PutIfAbsent(cred, logPath(l.prefix, next), payload)
		if err == nil {
			l.maybeCheckpoint(cred, next)
			return next, nil
		}
		if !errors.Is(err, storage.ErrAlreadyExists) {
			return 0, err
		}
		// Lost the race: re-read and retry.
		l.mRetries.Inc()
	}
	return 0, ErrConcurrentCommit
}

// RemoveFiles commits Remove actions unregistering the given data files
// (retention truncation). Paths not live in the snapshot at commit time are
// skipped; if nothing remains to remove, no commit is written and the
// current version is returned. After the commit lands the data objects are
// deleted from storage — a crash in between leaves unreferenced garbage,
// never a dangling log reference.
func (l *Log) RemoveFiles(cred *storage.Credential, paths []string, operation string) (int64, error) {
	want := make(map[string]bool, len(paths))
	for _, p := range paths {
		want[p] = true
	}
	const maxRetries = 16
	for attempt := 0; attempt < maxRetries; attempt++ {
		snap, err := l.Snapshot(cred, -1)
		if err != nil {
			return 0, err
		}
		actions := []Action{{CommitInfo: &CommitInfo{TimestampMicros: l.clock().UnixMicro(), Operation: operation}}}
		var removed []string
		for _, f := range snap.Files {
			if want[f.Path] {
				actions = append(actions, Action{Remove: &Remove{Path: f.Path}})
				removed = append(removed, f.Path)
			}
		}
		if len(removed) == 0 {
			return snap.Version, nil
		}
		payload, err := encodeActions(actions)
		if err != nil {
			return 0, err
		}
		next := snap.Version + 1
		err = l.store.PutIfAbsent(cred, logPath(l.prefix, next), payload)
		if err == nil {
			for _, p := range removed {
				_ = l.store.Delete(cred, p) // best-effort garbage collection
			}
			l.maybeCheckpoint(cred, next)
			return next, nil
		}
		if !errors.Is(err, storage.ErrAlreadyExists) {
			return 0, err
		}
		// Lost the race: re-read and retry.
		l.mRetries.Inc()
	}
	return 0, ErrConcurrentCommit
}

// HistoryEntry describes one commit for DESCRIBE HISTORY.
type HistoryEntry struct {
	Version   int64
	Timestamp time.Time
	Operation string
	NumFiles  int // files added in this commit
}

// History returns the commit log, newest first. The tail is discovered via
// the same seeded LIST Snapshot uses, so repeated history calls on a warm
// handle cost O(new entries) listing work.
func (l *Log) History(cred *storage.Credential) ([]HistoryEntry, error) {
	l.mu.Lock()
	tail, err := l.tailVersionLocked(cred)
	l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	var out []HistoryEntry
	for v := int64(0); v <= tail; v++ {
		data, err := l.store.Get(cred, logPath(l.prefix, v))
		if err != nil {
			return nil, err
		}
		actions, err := decodeActions(data)
		if err != nil {
			return nil, err
		}
		entry := HistoryEntry{Version: v, Operation: "UNKNOWN"}
		for _, a := range actions {
			switch {
			case a.CommitInfo != nil:
				entry.Timestamp = time.UnixMicro(a.CommitInfo.TimestampMicros).UTC()
				entry.Operation = a.CommitInfo.Operation
			case a.Add != nil:
				entry.NumFiles++
			}
		}
		out = append(out, entry)
	}
	// Newest first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out, nil
}

// Snapshot is an immutable view of the table at one version.
type Snapshot struct {
	Version int64
	Schema  *types.Schema
	Files   []AddFile
	// Tombstones lists data files removed at or before this version whose
	// objects have not been vacuumed yet (sorted). VACUUM deletes them.
	Tombstones []string
	prefix     string
}

// NumRecords returns the total live row count across files: physical rows
// minus rows masked by deletion vectors.
func (s *Snapshot) NumRecords() int64 {
	var n int64
	for _, f := range s.Files {
		n += f.LiveRecords()
	}
	return n
}

// Read streams the snapshot's data files as batches through fn, with rows
// masked by each file's deletion vector already removed. Returning a non-nil
// error from fn stops the scan.
func (s *Snapshot) Read(store *storage.Store, cred *storage.Credential, fn func(*types.Batch) error) error {
	for _, f := range s.Files {
		data, err := store.Get(cred, f.Path)
		if err != nil {
			return fmt.Errorf("delta: reading %s: %w", f.Path, err)
		}
		b, err := arrowipc.DecodeBatch(data)
		if err != nil {
			return fmt.Errorf("delta: decoding %s: %w", f.Path, err)
		}
		if f.DV.Cardinality() > 0 {
			b = b.Gather(f.DV.KeepIndexes(b.NumRows(), nil))
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// ReadAll materializes the snapshot into one batch.
func (s *Snapshot) ReadAll(store *storage.Store, cred *storage.Credential) (*types.Batch, error) {
	var batches []*types.Batch
	if err := s.Read(store, cred, func(b *types.Batch) error {
		batches = append(batches, b)
		return nil
	}); err != nil {
		return nil, err
	}
	return arrowipc.ConcatBatches(s.Schema, batches)
}

func schemaToMeta(s *types.Schema) *MetaData {
	m := &MetaData{SchemaFields: make([]SchemaField, len(s.Fields))}
	for i, f := range s.Fields {
		m.SchemaFields[i] = SchemaField{Name: f.Name, Kind: uint8(f.Kind), Nullable: f.Nullable, Comment: f.Comment}
	}
	return m
}

func metaToSchema(m *MetaData) *types.Schema {
	s := &types.Schema{Fields: make([]types.Field, len(m.SchemaFields))}
	for i, f := range m.SchemaFields {
		s.Fields[i] = types.Field{Name: f.Name, Kind: types.Kind(f.Kind), Nullable: f.Nullable, Comment: f.Comment}
	}
	return s
}

func encodeActions(actions []Action) ([]byte, error) {
	var out []byte
	for _, a := range actions {
		line, err := json.Marshal(a)
		if err != nil {
			return nil, err
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out, nil
}

func decodeActions(data []byte) ([]Action, error) {
	var actions []Action
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var a Action
		if err := dec.Decode(&a); err != nil {
			return nil, err
		}
		actions = append(actions, a)
	}
	return actions, nil
}

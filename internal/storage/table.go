// Package storage implements the versioned table store underneath the
// engine: copy-on-write table versions indexed by HLC commit timestamp,
// change-set logs with periodic snapshots for time travel (§5.3), change
// intervals for incremental refreshes (§5.5), zero-copy cloning (§3.4) and
// data-equivalent maintenance versions that incremental readers skip
// (§5.5.2).
package storage

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"dyntables/internal/delta"
	"dyntables/internal/hlc"
	"dyntables/internal/types"
)

// DefaultSnapshotInterval is how many versions may accumulate between full
// snapshots; time travel replays at most this many change sets.
const DefaultSnapshotInterval = 32

// rowsCacheSize bounds the per-table memo of materialized non-tip
// versions. Concurrent refreshes repeatedly materialize the same handful
// of historical versions (a delta's interval start, a window recompute's
// boundary); memoizing the last few avoids replaying the change chain
// from the nearest snapshot on every call.
const rowsCacheSize = 4

// Version is one committed version of a table. Versions are immutable once
// committed.
type Version struct {
	// Seq is the 1-based position in the table's version chain.
	Seq int64
	// Commit is the HLC timestamp of the committing transaction; versions
	// are totally ordered by it.
	Commit hlc.Timestamp
	// Changes transforms the previous version into this one. Empty for
	// snapshots taken at creation and for data-equivalent versions.
	Changes delta.ChangeSet
	// Overwrite marks an INSERT OVERWRITE: the version's contents replace
	// everything before it. Snapshot holds the full contents.
	Overwrite bool
	// DataEquivalent marks background maintenance (reclustering,
	// defragmentation) that rewrote storage without changing logical
	// contents; incremental readers skip these versions (§5.5.2).
	DataEquivalent bool
	// Snapshot, when non-nil, is the fully materialized contents at this
	// version. Present on overwrites and on periodic snapshot versions.
	Snapshot map[string]types.Row
	// RowCount is the number of live rows at this version.
	RowCount int
}

var tableIDs atomic.Int64

// CommitSink observes committed versions, in commit order per table. The
// durability layer registers one to write-ahead-log every commit. The
// schema at commit time rides along so replay can reproduce schema
// evolution (REPLACE TABLE, DT output changes). Sinks are invoked with
// the table lock held and must not call back into the table.
type CommitSink interface {
	TableCommitted(t *Table, v *Version, schema types.Schema)
}

// Table is a versioned collection of rows keyed by row ID. All methods are
// safe for concurrent use.
type Table struct {
	mu sync.RWMutex

	id     int64
	schema types.Schema

	versions []*Version // ordered by Seq (and Commit)

	// base counts versions folded away by compaction: versions[0] carries
	// Seq base+1, and sequences 1..base are no longer readable. Zero on
	// an uncompacted table.
	base int64

	// pins holds reference counts of version sequences that compaction
	// must keep readable (open cursors, in-flight refresh intervals).
	pins map[int64]int

	// rowSeq allocates row IDs for plain inserts.
	rowSeq atomic.Int64

	snapshotInterval int
	sinceSnapshot    int

	// sink, when set, observes every committed version (WAL emission).
	sink CommitSink

	// tip caches the materialized latest contents.
	tip map[string]types.Row
	// rowsCache memoizes recently materialized non-tip versions by seq;
	// rowsCacheLRU orders the cached seqs oldest-use first for eviction.
	// Versions are immutable once committed, so entries never go stale.
	rowsCache    map[int64]map[string]types.Row
	rowsCacheLRU []int64

	// batchTip caches the columnar batch of the latest version (seq
	// batchTipSeq); batchCache/batchLRU memoize recent non-tip batches.
	// Batches are immutable and shared across concurrent readers, so N
	// sibling DTs scanning the same source version share one
	// materialization.
	batchTip    *types.Batch
	batchTipSeq int64
	batchCache  map[int64]*types.Batch
	batchLRU    []int64
}

// NewTable creates an empty table with the given schema. The table begins
// with a single empty version committed at the supplied timestamp so that
// reads as of any later time resolve to a defined version.
func NewTable(schema types.Schema, createdAt hlc.Timestamp) *Table {
	t := &Table{
		id:               tableIDs.Add(1),
		schema:           schema,
		snapshotInterval: DefaultSnapshotInterval,
	}
	t.versions = []*Version{{
		Seq:      1,
		Commit:   createdAt,
		Snapshot: map[string]types.Row{},
	}}
	t.tip = map[string]types.Row{}
	return t
}

// ID returns the table's unique storage identifier.
func (t *Table) ID() int64 { return t.id }

// SetCommitSink registers the commit observer (at most one; nil clears).
func (t *Table) SetCommitSink(s CommitSink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = s
}

// TableState is the serializable form of a table: the complete version
// chain plus the snapshot-cadence counters, enough to reconstruct a table
// whose Rows(seq) match the original at every version.
type TableState struct {
	Schema           types.Schema
	SnapshotInterval int
	SinceSnapshot    int
	RowSeq           int64
	Versions         []*Version
}

// State exports the table's full state for checkpointing. Version structs
// are shared, not copied — they are immutable once committed.
func (t *Table) State() TableState {
	t.mu.RLock()
	defer t.mu.RUnlock()
	versions := make([]*Version, len(t.versions))
	copy(versions, t.versions)
	return TableState{
		Schema:           t.schema,
		SnapshotInterval: t.snapshotInterval,
		SinceSnapshot:    t.sinceSnapshot,
		RowSeq:           t.rowSeq.Load(),
		Versions:         versions,
	}
}

// RestoreTable reconstructs a table from checkpointed state under a fresh
// process-local ID. Replaying WAL commits against the restored table
// reproduces the original chain exactly, because the snapshot-cadence
// counters are part of the state.
func RestoreTable(st TableState) (*Table, error) {
	if len(st.Versions) == 0 {
		return nil, fmt.Errorf("storage: cannot restore table with no versions")
	}
	if st.Versions[0].Snapshot == nil {
		return nil, fmt.Errorf("storage: restored chain must begin with a snapshot version")
	}
	t := &Table{
		id:               tableIDs.Add(1),
		schema:           st.Schema,
		snapshotInterval: st.SnapshotInterval,
		sinceSnapshot:    st.SinceSnapshot,
		versions:         append([]*Version(nil), st.Versions...),
		base:             st.Versions[0].Seq - 1,
	}
	if t.snapshotInterval <= 0 {
		t.snapshotInterval = DefaultSnapshotInterval
	}
	t.rowSeq.Store(st.RowSeq)
	return t, nil
}

// Schema returns the table schema.
func (t *Table) Schema() types.Schema {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.schema
}

// SetSchema replaces the schema; used by REPLACE TABLE DDL. Contents are
// not converted — callers overwrite contents in the same operation.
func (t *Table) SetSchema(s types.Schema) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.schema = s
}

// NextRowID allocates a fresh row ID with the table's plaintext prefix
// (§5.5.2 notes DT row IDs use plaintext prefixes; base tables share the
// scheme).
func (t *Table) NextRowID() string {
	return "t" + strconv.FormatInt(t.id, 10) + ":" + strconv.FormatInt(t.rowSeq.Add(1), 10)
}

// LatestVersion returns the most recent version.
func (t *Table) LatestVersion() *Version {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.versions[len(t.versions)-1]
}

// VersionBySeq returns the version with the given sequence number.
func (t *Table) VersionBySeq(seq int64) (*Version, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.versionBySeqLocked(seq)
}

func (t *Table) versionBySeqLocked(seq int64) (*Version, error) {
	if seq >= 1 && seq <= t.base {
		return nil, &ErrCompacted{TableID: t.id, Seq: seq, FirstLive: t.base + 1}
	}
	if seq < 1 || seq > t.base+int64(len(t.versions)) {
		return nil, fmt.Errorf("storage: table %d has no version %d", t.id, seq)
	}
	return t.versions[seq-1-t.base], nil
}

// VersionAsOf returns the latest version whose commit timestamp is <= ts,
// implementing time travel. It errors when ts precedes the table's first
// version.
func (t *Table) VersionAsOf(ts hlc.Timestamp) (*Version, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx := sort.Search(len(t.versions), func(i int) bool {
		return ts.Less(t.versions[i].Commit)
	})
	if idx == 0 {
		return nil, fmt.Errorf("storage: table %d has no version at or before %s", t.id, ts)
	}
	return t.versions[idx-1], nil
}

// VersionByCommit returns the version committed exactly at ts, used by the
// §6.1 validation that an upstream DT has a version for the exact refresh
// timestamp.
func (t *Table) VersionByCommit(ts hlc.Timestamp) (*Version, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx := sort.Search(len(t.versions), func(i int) bool {
		return ts.LessEq(t.versions[i].Commit)
	})
	if idx < len(t.versions) && t.versions[idx].Commit == ts {
		return t.versions[idx], true
	}
	return nil, false
}

// Rows materializes the full contents at the given version sequence.
// The returned map must not be mutated.
func (t *Table) Rows(seq int64) (map[string]types.Row, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rowsLocked(seq)
}

func (t *Table) rowsLocked(seq int64) (map[string]types.Row, error) {
	if seq == t.base+int64(len(t.versions)) && t.tip != nil {
		return t.tip, nil
	}
	if _, err := t.versionBySeqLocked(seq); err != nil {
		return nil, err
	}
	if rows, ok := t.rowsCache[seq]; ok {
		t.touchCachedRows(seq)
		return rows, nil
	}
	// Find the nearest snapshot at or before seq (indexes below are into
	// the retained slice; retained index i holds sequence base+i+1).
	snapSeq := int64(0)
	for i := seq - 1 - t.base; i >= 0; i-- {
		if t.versions[i].Snapshot != nil {
			snapSeq = t.base + i + 1
			break
		}
	}
	if snapSeq == 0 {
		return nil, fmt.Errorf("storage: table %d has no snapshot at or before version %d", t.id, seq)
	}
	rows := t.versions[snapSeq-1-t.base].Snapshot
	if snapSeq == seq {
		return rows, nil
	}
	out := make(map[string]types.Row, len(rows))
	for id, r := range rows {
		out[id] = r
	}
	for i := snapSeq; i < seq; i++ {
		applyChanges(out, t.versions[i-t.base].Changes)
	}
	if seq == t.base+int64(len(t.versions)) {
		t.tip = out
	} else {
		t.cacheRows(seq, out)
	}
	return out, nil
}

// Batch materializes the contents at the given version sequence as a
// shared columnar batch sorted by row ID. Batches are cached per version
// (tip plus a small LRU), so concurrent readers of the same version —
// parallel refresh workers evaluating sibling DTs over one source
// version — share a single materialization. The returned batch and
// everything reachable from it must not be mutated.
func (t *Table) Batch(seq int64) (*types.Batch, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.batchTip != nil && seq == t.batchTipSeq {
		return t.batchTip, nil
	}
	if b, ok := t.batchCache[seq]; ok {
		t.touchCachedBatch(seq)
		return b, nil
	}
	rows, err := t.rowsLocked(seq)
	if err != nil {
		return nil, err
	}
	b := types.BatchFromRowMap(t.schema, rows)
	if seq == t.base+int64(len(t.versions)) {
		// Demote the outgoing tip batch like cacheRows does for row maps.
		if t.batchTip != nil {
			t.cacheBatch(t.batchTipSeq, t.batchTip)
		}
		t.batchTip, t.batchTipSeq = b, seq
	} else {
		t.cacheBatch(seq, b)
	}
	return b, nil
}

// cacheBatch memoizes a non-tip batch with the same LRU policy as
// cacheRows. Callers hold t.mu.
func (t *Table) cacheBatch(seq int64, b *types.Batch) {
	if _, ok := t.batchCache[seq]; ok {
		t.touchCachedBatch(seq)
		return
	}
	if t.batchCache == nil {
		t.batchCache = make(map[int64]*types.Batch, rowsCacheSize)
	}
	t.batchCache[seq] = b
	t.batchLRU = append(t.batchLRU, seq)
	if len(t.batchLRU) > rowsCacheSize {
		evict := t.batchLRU[0]
		t.batchLRU = t.batchLRU[1:]
		delete(t.batchCache, evict)
	}
}

// touchCachedBatch marks a cached batch seq as most recently used.
func (t *Table) touchCachedBatch(seq int64) {
	for i, s := range t.batchLRU {
		if s == seq {
			copy(t.batchLRU[i:], t.batchLRU[i+1:])
			t.batchLRU[len(t.batchLRU)-1] = seq
			return
		}
	}
}

// cacheRows memoizes a materialized version, evicting the least recently
// used entry beyond rowsCacheSize. Callers hold t.mu.
func (t *Table) cacheRows(seq int64, rows map[string]types.Row) {
	if _, ok := t.rowsCache[seq]; ok {
		t.touchCachedRows(seq)
		return
	}
	if t.rowsCache == nil {
		t.rowsCache = make(map[int64]map[string]types.Row, rowsCacheSize)
	}
	t.rowsCache[seq] = rows
	t.rowsCacheLRU = append(t.rowsCacheLRU, seq)
	if len(t.rowsCacheLRU) > rowsCacheSize {
		evict := t.rowsCacheLRU[0]
		t.rowsCacheLRU = t.rowsCacheLRU[1:]
		delete(t.rowsCache, evict)
	}
}

// touchCachedRows marks a cached seq as most recently used.
func (t *Table) touchCachedRows(seq int64) {
	for i, s := range t.rowsCacheLRU {
		if s == seq {
			copy(t.rowsCacheLRU[i:], t.rowsCacheLRU[i+1:])
			t.rowsCacheLRU[len(t.rowsCacheLRU)-1] = seq
			return
		}
	}
}

func applyChanges(rows map[string]types.Row, cs delta.ChangeSet) {
	for _, c := range cs.Changes {
		if c.Action == delta.Delete {
			delete(rows, c.RowID)
		}
	}
	for _, c := range cs.Changes {
		if c.Action == delta.Insert {
			rows[c.RowID] = c.Row
		}
	}
}

// RowCount returns the number of live rows at the latest version.
func (t *Table) RowCount() int {
	return t.LatestVersion().RowCount
}

// Apply commits a change set as a new version with the given commit
// timestamp and returns the new version. It validates the §6.1 invariant
// that no change set deletes a row that does not exist.
func (t *Table) Apply(cs delta.ChangeSet, commit hlc.Timestamp) (*Version, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := t.versions[len(t.versions)-1]
	if !last.Commit.Less(commit) {
		return nil, fmt.Errorf("storage: commit %s does not advance past %s", commit, last.Commit)
	}
	tip, err := t.rowsLocked(last.Seq)
	if err != nil {
		return nil, err
	}
	for _, c := range cs.Changes {
		if c.Action == delta.Delete {
			if _, ok := tip[c.RowID]; !ok {
				return nil, fmt.Errorf("storage: change set deletes nonexistent row %s", c.RowID)
			}
		}
	}
	newTip := make(map[string]types.Row, len(tip)+len(cs.Changes))
	for id, r := range tip {
		newTip[id] = r
	}
	applyChanges(newTip, cs)

	v := &Version{
		Seq:      last.Seq + 1,
		Commit:   commit,
		Changes:  cs,
		RowCount: len(newTip),
	}
	t.sinceSnapshot++
	if t.sinceSnapshot >= t.snapshotInterval {
		v.Snapshot = newTip
		t.sinceSnapshot = 0
	}
	t.versions = append(t.versions, v)
	// The outgoing tip is the incoming refresh interval's start version;
	// keep it warm for the incremental readers about to ask for it.
	if t.tip != nil {
		t.cacheRows(last.Seq, t.tip)
	}
	t.tip = newTip
	if t.sink != nil {
		t.sink.TableCommitted(t, v, t.schema)
	}
	return v, nil
}

// Overwrite commits a full replacement of the table's contents (INSERT
// OVERWRITE, used by FULL refreshes and reinitializations, §5.4).
func (t *Table) Overwrite(rows map[string]types.Row, commit hlc.Timestamp) (*Version, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := t.versions[len(t.versions)-1]
	if !last.Commit.Less(commit) {
		return nil, fmt.Errorf("storage: commit %s does not advance past %s", commit, last.Commit)
	}
	snap := make(map[string]types.Row, len(rows))
	for id, r := range rows {
		snap[id] = r
	}
	v := &Version{
		Seq:       last.Seq + 1,
		Commit:    commit,
		Overwrite: true,
		Snapshot:  snap,
		RowCount:  len(snap),
	}
	t.versions = append(t.versions, v)
	t.tip = snap
	t.sinceSnapshot = 0
	if t.sink != nil {
		t.sink.TableCommitted(t, v, t.schema)
	}
	return v, nil
}

// AppendDataEquivalent commits a version that does not change logical
// contents (background reclustering). Incremental readers skip it.
func (t *Table) AppendDataEquivalent(commit hlc.Timestamp) (*Version, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := t.versions[len(t.versions)-1]
	if !last.Commit.Less(commit) {
		return nil, fmt.Errorf("storage: commit %s does not advance past %s", commit, last.Commit)
	}
	v := &Version{
		Seq:            last.Seq + 1,
		Commit:         commit,
		DataEquivalent: true,
		RowCount:       last.RowCount,
	}
	t.versions = append(t.versions, v)
	t.sinceSnapshot++
	if t.sink != nil {
		t.sink.TableCommitted(t, v, t.schema)
	}
	return v, nil
}

// ErrOverwritten signals that a change interval crosses an INSERT OVERWRITE
// or table replacement, so a purely incremental read is unsound and the
// caller must REINITIALIZE (§3.3.2).
type ErrOverwritten struct {
	TableID int64
	Seq     int64
}

// Error implements error.
func (e *ErrOverwritten) Error() string {
	return fmt.Sprintf("storage: table %d version %d overwrote contents; change interval is invalid", e.TableID, e.Seq)
}

// Changes returns the consolidated change set transforming version fromSeq
// into version toSeq. Data-equivalent versions contribute nothing. When the
// interval crosses an overwrite, Changes returns *ErrOverwritten and the
// caller falls back to reinitialization.
func (t *Table) Changes(fromSeq, toSeq int64) (delta.ChangeSet, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if fromSeq > toSeq {
		return delta.ChangeSet{}, fmt.Errorf("storage: invalid change interval [%d,%d]", fromSeq, toSeq)
	}
	if fromSeq >= 1 && fromSeq <= t.base {
		// The interval's start was folded away; the per-version deltas no
		// longer exist. Report it like an overwrite so incremental readers
		// fall back to reinitialization instead of failing permanently.
		return delta.ChangeSet{}, &ErrOverwritten{TableID: t.id, Seq: t.base + 1}
	}
	if fromSeq < 1 || toSeq > t.base+int64(len(t.versions)) {
		return delta.ChangeSet{}, fmt.Errorf("storage: change interval [%d,%d] out of range", fromSeq, toSeq)
	}
	var out delta.ChangeSet
	for i := fromSeq; i < toSeq; i++ {
		v := t.versions[i-t.base]
		if v.Overwrite {
			return delta.ChangeSet{}, &ErrOverwritten{TableID: t.id, Seq: v.Seq}
		}
		if v.DataEquivalent {
			continue
		}
		out.Append(v.Changes)
	}
	if fromSeq != toSeq {
		out = out.Consolidate()
	}
	return out, nil
}

// ChangedSince reports whether any version in (fromSeq, toSeq] changed
// logical contents; data-equivalent versions do not count. Used to decide
// NO_DATA refreshes (§3.3.2) without materializing change sets.
func (t *Table) ChangedSince(fromSeq, toSeq int64) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if toSeq > t.base+int64(len(t.versions)) {
		toSeq = t.base + int64(len(t.versions))
	}
	if fromSeq < t.base {
		// Versions at or below the compaction horizon were folded away;
		// report them as changed (the fold is represented as an overwrite).
		fromSeq = t.base
	}
	for i := fromSeq; i < toSeq; i++ {
		v := t.versions[i-t.base]
		if v.DataEquivalent {
			continue
		}
		if v.Overwrite || v.Changes.Len() > 0 {
			return true
		}
	}
	return false
}

// ChangeVolume counts the change rows recorded across the versions in
// (fromSeq, toSeq] without materializing change sets — the adaptive
// refresh-mode chooser's incremental-cost signal. Data-equivalent
// versions contribute nothing; an overwrite contributes its full row
// count, since an incremental read across it is unsound and forces a
// reinitialization anyway.
func (t *Table) ChangeVolume(fromSeq, toSeq int64) int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if fromSeq < t.base {
		fromSeq = t.base
	}
	if toSeq > t.base+int64(len(t.versions)) {
		toSeq = t.base + int64(len(t.versions))
	}
	var total int64
	for i := fromSeq; i < toSeq; i++ {
		v := t.versions[i-t.base]
		switch {
		case v.DataEquivalent:
		case v.Overwrite:
			total += int64(v.RowCount)
		default:
			total += int64(v.Changes.Len())
		}
	}
	return total
}

// Footprint is a table's in-memory accounting: how much the version
// chain holds beyond the live tip. These are the signals a compaction
// pass gates on — chain rows and interior snapshots are what trimming
// old versions would reclaim.
type Footprint struct {
	// Versions is the number of live versions in the chain.
	Versions int
	// LiveRows is the row count at the latest version.
	LiveRows int64
	// ChainRows counts the change rows pending across all versions'
	// change sets (the per-version deltas time travel replays).
	ChainRows int64
	// SnapshotRows counts rows pinned by materialized snapshots,
	// including the tip's.
	SnapshotRows int64
	// Bytes estimates the total in-memory size of chain change rows and
	// snapshot rows (types.Row.ApproxBytes; an accounting estimate).
	Bytes int64
	// CompactedThrough is the highest version sequence folded away by
	// compaction (0 when the chain is uncompacted). Versions reports live
	// versions only, so under steady churn with compaction enabled it —
	// and ChainRows/Bytes — plateau instead of growing with history.
	CompactedThrough int64
}

// FootprintStats walks the version chain and reports the table's current
// footprint. The walk is O(total retained rows) and takes the read lock,
// so it is meant for scrape-frequency monitoring, not hot paths.
func (t *Table) FootprintStats() Footprint {
	t.mu.RLock()
	defer t.mu.RUnlock()
	fp := Footprint{Versions: len(t.versions), CompactedThrough: t.base}
	if n := len(t.versions); n > 0 {
		fp.LiveRows = int64(t.versions[n-1].RowCount)
	}
	for _, v := range t.versions {
		for _, c := range v.Changes.Changes {
			fp.ChainRows++
			fp.Bytes += c.Row.ApproxBytes() + int64(len(c.RowID))
		}
		for id, row := range v.Snapshot {
			fp.SnapshotRows++
			fp.Bytes += row.ApproxBytes() + int64(len(id))
		}
	}
	return fp
}

// Clone returns a zero-copy clone: a new table whose version chain shares
// every committed version with the original. Subsequent writes to either
// table diverge (§3.4). The clone's first own version is stamped at the
// clone time.
func (t *Table) Clone(at hlc.Timestamp) (*Table, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	src, err := func() (*Version, error) {
		idx := sort.Search(len(t.versions), func(i int) bool {
			return at.Less(t.versions[i].Commit)
		})
		if idx == 0 {
			return nil, fmt.Errorf("storage: table %d has no version at or before %s", t.id, at)
		}
		return t.versions[idx-1], nil
	}()
	if err != nil {
		return nil, err
	}
	clone := &Table{
		id:               tableIDs.Add(1),
		schema:           t.schema,
		snapshotInterval: t.snapshotInterval,
		base:             t.base,
	}
	// Share the version chain prefix (metadata-only copy).
	clone.versions = make([]*Version, src.Seq-t.base)
	copy(clone.versions, t.versions[:src.Seq-t.base])
	clone.rowSeq.Store(t.rowSeq.Load())
	return clone, nil
}

// VersionCount returns the sequence number of the latest version: the
// total number of versions ever committed, including any folded away by
// compaction (so version sequences derived from it stay stable).
func (t *Table) VersionCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.base) + len(t.versions)
}

// LiveVersions returns the number of versions still retained in the
// chain (the footprint compaction trims).
func (t *Table) LiveVersions() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.versions)
}

// CompactedThrough returns the highest folded sequence number: versions
// 1..CompactedThrough are no longer readable. Zero on an uncompacted
// table.
func (t *Table) CompactedThrough() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.base
}

// ErrCompacted signals a read of a version sequence that compaction has
// folded away.
type ErrCompacted struct {
	// TableID is the storage table; Seq the requested sequence; FirstLive
	// the oldest sequence still readable.
	TableID, Seq, FirstLive int64
}

// Error implements error.
func (e *ErrCompacted) Error() string {
	return fmt.Sprintf("storage: table %d version %d was compacted away (oldest readable version is %d)",
		e.TableID, e.Seq, e.FirstLive)
}

// Pin marks a version sequence as in use (an open cursor, an in-flight
// refresh interval): compaction clamps its horizon to the oldest pinned
// sequence, so a pinned version stays readable and byte-stable. Pins are
// reference-counted; each Pin must be paired with an Unpin.
func (t *Table) Pin(seq int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pins == nil {
		t.pins = make(map[int64]int)
	}
	t.pins[seq]++
}

// Unpin releases a Pin.
func (t *Table) Unpin(seq int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.pins[seq] - 1
	if n <= 0 {
		delete(t.pins, seq)
	} else {
		t.pins[seq] = n
	}
}

// PinnedFloor returns the oldest pinned sequence, or 0 when nothing is
// pinned.
func (t *Table) PinnedFloor() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.pinnedFloorLocked()
}

func (t *Table) pinnedFloorLocked() int64 {
	var min int64
	for seq := range t.pins {
		if min == 0 || seq < min {
			min = seq
		}
	}
	return min
}

// Compact folds the version chain below horizon: change sets of versions
// with Seq < horizon are folded into a single materialized snapshot at
// horizon, and those versions become unreadable (Rows returns
// *ErrCompacted; change intervals starting below the horizon report
// *ErrOverwritten so incremental readers reinitialize). The horizon is
// clamped to the oldest pinned sequence and to the latest version, so a
// pinned snapshot — an open cursor's version — always stays byte-stable.
// It returns the effective horizon after clamping (the new oldest
// readable sequence) and the number of versions folded away; a zero fold
// count means the chain was already compact at that horizon.
func (t *Table) Compact(horizon int64) (int64, int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	latest := t.base + int64(len(t.versions))
	h := horizon
	if h > latest {
		h = latest
	}
	if p := t.pinnedFloorLocked(); p > 0 && h > p {
		h = p
	}
	if h <= t.base+1 {
		return t.base + 1, 0, nil
	}
	rows, err := t.rowsLocked(h)
	if err != nil {
		return 0, 0, err
	}
	orig, err := t.versionBySeqLocked(h)
	if err != nil {
		return 0, 0, err
	}
	// The folded version is a fresh struct — version structs are shared
	// with clones and exported checkpoints and must never be mutated.
	// Overwrite is semantically accurate (it replaces everything before
	// it) and keeps ChangedSince/ChangeVolume conservative across the
	// fold.
	folded := &Version{
		Seq:       h,
		Commit:    orig.Commit,
		Overwrite: true,
		Snapshot:  rows,
		RowCount:  len(rows),
	}
	kept := t.versions[h-t.base:]
	dropped := h - 1 - t.base
	newVersions := make([]*Version, 0, 1+len(kept))
	newVersions = append(newVersions, folded)
	newVersions = append(newVersions, kept...)
	t.versions = newVersions
	t.base = h - 1
	// Drop caches below the new horizon; entries at or above it stay
	// valid (contents per sequence are unchanged).
	for seq := range t.rowsCache {
		if seq < h {
			delete(t.rowsCache, seq)
			for i, s := range t.rowsCacheLRU {
				if s == seq {
					t.rowsCacheLRU = append(t.rowsCacheLRU[:i], t.rowsCacheLRU[i+1:]...)
					break
				}
			}
		}
	}
	// The tip batch goes stale once newer versions commit; below the
	// horizon it is unreadable and would pin rows deleted since.
	if t.batchTip != nil && t.batchTipSeq < h {
		t.batchTip = nil
	}
	for seq := range t.batchCache {
		if seq < h {
			delete(t.batchCache, seq)
			for i, s := range t.batchLRU {
				if s == seq {
					t.batchLRU = append(t.batchLRU[:i], t.batchLRU[i+1:]...)
					break
				}
			}
		}
	}
	return h, dropped, nil
}

// SetSnapshotInterval overrides the snapshot cadence (testing knob).
func (t *Table) SetSnapshotInterval(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n > 0 {
		t.snapshotInterval = n
	}
}

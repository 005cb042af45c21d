package flsm

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"pebblesdb/internal/base"
	"pebblesdb/internal/cache"
	"pebblesdb/internal/guard"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/manifest"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/sstable"
	"pebblesdb/internal/tablecache"
	"pebblesdb/internal/treebase"
	"pebblesdb/internal/vfs"
)

// Tree is the FLSM store structure: the paper's primary contribution.
// All methods are safe for concurrent use.
type Tree struct {
	cfg    *base.Config
	fs     vfs.FS
	dir    string
	vs     *manifest.VersionSet
	tc     *tablecache.TableCache
	snap   treebase.Host
	picker guard.Picker

	mu sync.Mutex
	// cur is the current immutable version.
	cur *version
	// uncommitted holds guard keys selected from inserted keys but not yet
	// partitioned on storage (§3.3). uncommitted[l] is sorted.
	uncommitted [][][]byte
	// inflight is the unit-granularity claim state of the parallel
	// compaction scheduler (see compaction.go): which guard groups are
	// owned as inputs, which levels are being written into and at what
	// shared partition, and how many units are running.
	inflight inflight
	// unitID numbers compaction units for the event stream, so concurrent
	// begin/end pairs can be correlated.
	unitID atomic.Uint64
	// claimStallStart, when non-zero, marks the moment a worker first
	// found pending-but-unclaimable work; the next successful claim folds
	// the elapsed time into metrics.ClaimStallNanos.
	claimStallStart time.Time
	// seekCounts tracks consecutive seeks per guard; seekPending holds
	// guards whose budget is exhausted (§4.2 seek-based compaction).
	seekCounts  map[guardID]int
	seekPending map[guardID]bool

	// logMu/logCond order manifest appends by install ticket: with
	// concurrent compaction units, the edit that deletes a file must reach
	// the manifest after the edit that added it, or recovery replay fails.
	// installTicket (under mu) is the next ticket handed out at install;
	// installTurn (under logMu) is the next ticket allowed to append.
	logMu         sync.Mutex
	logCond       *sync.Cond
	installTicket uint64
	installTurn   uint64

	pendingMu sync.Mutex
	pending   map[base.FileNum]bool

	metrics treebase.Metrics
}

// guardID identifies a guard for seek accounting; Key=="" is the sentinel.
type guardID struct {
	Level int
	Key   string
}

// Open creates or recovers an FLSM tree in dir.
func Open(cfg *base.Config, fs vfs.FS, dir string, snap treebase.Host) (*Tree, error) {
	t := &Tree{
		cfg:  cfg,
		fs:   fs,
		dir:  dir,
		snap: snap,
		picker: guard.Picker{
			TopLevelBits: cfg.TopLevelBits,
			BitDecrement: cfg.BitDecrement,
			NumLevels:    cfg.NumLevels,
			Seed:         cfg.GuardHashSeed,
		},
		cur:         newVersion(cfg.NumLevels),
		uncommitted: make([][][]byte, cfg.NumLevels),
		seekCounts:  make(map[guardID]int),
		seekPending: make(map[guardID]bool),
		pending:     make(map[base.FileNum]bool),
	}
	t.inflight.init(cfg.NumLevels)
	t.metrics.PeakLevelUnits = make([]int, cfg.NumLevels)
	t.logCond = sync.NewCond(&t.logMu)
	blockCache := cache.New(cfg.BlockCacheSize, nil)
	t.tc = tablecache.New(fs, dir, cfg.TableCacheSize, blockCache)

	if manifest.Exists(fs, dir) {
		vs, err := manifest.Load(fs, dir, func(e *manifest.VersionEdit) error {
			nv, err := t.cur.apply(e, cfg.NumLevels)
			if err != nil {
				return err
			}
			t.cur = nv
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.vs = vs
		if err := vs.StartAppending(t.snapshotEditLocked()); err != nil {
			return nil, err
		}
	} else {
		vs, err := manifest.Create(fs, dir)
		if err != nil {
			return nil, err
		}
		t.vs = vs
	}
	t.vs.Listener = cfg.EventListener
	return t, nil
}

func (t *Tree) snapshotEditLocked() *manifest.VersionEdit {
	e := &manifest.VersionEdit{}
	for _, f := range t.cur.l0 {
		e.NewFiles = append(e.NewFiles, manifest.NewFileEntry{Level: 0, Meta: *f})
	}
	for l := 1; l < t.cfg.NumLevels; l++ {
		gl := &t.cur.levels[l]
		for i := range gl.guards {
			e.NewGuards = append(e.NewGuards, manifest.GuardEntry{Level: l, Key: gl.guards[i].Key})
		}
		for _, f := range gl.sentinel {
			e.NewFiles = append(e.NewFiles, manifest.NewFileEntry{Level: l, Meta: *f})
		}
		for i := range gl.guards {
			for _, f := range gl.guards[i].Files {
				e.NewFiles = append(e.NewFiles, manifest.NewFileEntry{Level: l, Meta: *f})
			}
		}
	}
	return e
}

// NewFileNum allocates a file number (also used by the engine for WALs).
func (t *Tree) NewFileNum() base.FileNum { return t.vs.NewFileNum() }

// RecoveryLogNum returns the WAL number recovery must replay from.
func (t *Tree) RecoveryLogNum() base.FileNum { return t.vs.LogNum() }

// PersistedLastSeq returns the sequence watermark from the manifest.
func (t *Tree) PersistedLastSeq() base.SeqNum { return t.vs.LastSeq() }

// WantGuard reports whether ukey would be selected as a guard at any
// level. It is a pure hash check — no locks — so the engine's commit
// pipeline can filter keys before paying Ingest's copy and mutex costs.
func (t *Tree) WantGuard(ukey []byte) bool {
	_, ok := t.picker.GuardLevel(ukey)
	return ok
}

// Ingest hashes every inserted key and records new uncommitted guards
// (§3.2: guards are selected probabilistically from inserted keys; §4.4:
// via the key's hash). A key selected at level l is an uncommitted guard
// for l and every deeper level.
func (t *Tree) Ingest(ukey []byte) {
	level, ok := t.picker.GuardLevel(ukey)
	if !ok {
		return
	}
	t.mu.Lock()
	for l := level; l < t.cfg.NumLevels; l++ {
		if t.cur.levels[l].hasGuard(ukey) {
			continue
		}
		t.uncommitted[l] = guard.InsertKey(t.uncommitted[l], ukey)
	}
	t.mu.Unlock()
}

// AddPending registers an in-flight output file.
func (t *Tree) AddPending(fn base.FileNum) {
	t.pendingMu.Lock()
	t.pending[fn] = true
	t.pendingMu.Unlock()
}

// RemovePending unregisters an in-flight output file.
func (t *Tree) RemovePending(fn base.FileNum) {
	t.pendingMu.Lock()
	delete(t.pending, fn)
	t.pendingMu.Unlock()
}

func (t *Tree) currentVersion() *version {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

func (t *Tree) writerOptions() sstable.WriterOptions {
	return sstable.WriterOptions{
		BlockSize:            t.cfg.BlockSize,
		BlockRestartInterval: t.cfg.BlockRestartInterval,
		BloomBitsPerKey:      t.cfg.BloomBitsPerKey,
		PrefixBloomLength:    t.cfg.PrefixBloomLength,
		Compression:          t.cfg.Compression,
	}
}

// Flush writes memtable contents — point entries plus range tombstones —
// as a level-0 sstable. L0 has no guards (§3.1: "Level 0 does not have
// guards, and collects together recently written sstables").
func (t *Tree) Flush(it iterator.Iterator, rangeDels []rangedel.Tombstone, logNum base.FileNum, lastSeq base.SeqNum) error {
	ob := treebase.NewOutputBuilder(t.fs, t.dir, t.writerOptions(), t.vs, t)
	for it.First(); it.Valid(); it.Next() {
		if err := ob.Add(it.Key(), it.Value()); err != nil {
			ob.Abandon()
			return err
		}
	}
	if err := it.Error(); err != nil {
		ob.Abandon()
		return err
	}
	if err := ob.AddRangeDels(rangeDels); err != nil {
		ob.Abandon()
		return err
	}
	metas, err := ob.Finish()
	if err != nil {
		ob.Abandon()
		return err
	}
	edit := &manifest.VersionEdit{}
	edit.SetLogNum(logNum)
	edit.SetLastSeq(lastSeq)
	var flushed int64
	for _, m := range metas {
		edit.NewFiles = append(edit.NewFiles, manifest.NewFileEntry{Level: 0, Meta: *m})
		flushed += int64(m.Size)
	}
	installed, err := t.logAndInstall(edit)
	if err != nil {
		if installed {
			// The tables are already referenced by the live in-memory
			// version, so deleting them would break reads. Keep them: a
			// later successful manifest rotation snapshots the full state,
			// making them durable, and a retried flush merely re-adds the
			// same keys at the same sequence numbers.
			ob.ReleasePending()
		} else {
			ob.Abandon()
		}
		return err
	}
	ob.ReleasePending()
	t.mu.Lock()
	t.metrics.BytesFlushed += flushed
	t.metrics.Compression.Merge(ob.CompressionStats())
	t.mu.Unlock()
	return nil
}

// logAndInstall installs the version resulting from edit, prunes committed
// guards from the uncommitted sets, and persists the edit. installed
// reports whether the in-memory version switch happened: when true the
// edit's new files are referenced by live reads even if persistence failed,
// so the caller must NOT delete them (a later successful manifest rotation
// snapshots the installed state and makes them durable).
//
// Concurrent compaction units install concurrently, so the manifest append
// must happen in install order — an edit deleting file f has to land after
// the edit that added f, or recovery replay rejects it. Each install takes
// a ticket under t.mu (the same critical section that switches t.cur) and
// waits its turn before appending; the turn advances even when the append
// fails, so one degraded unit cannot wedge its peers.
func (t *Tree) logAndInstall(edit *manifest.VersionEdit) (installed bool, err error) {
	t.mu.Lock()
	nv, err := t.cur.apply(edit, t.cfg.NumLevels)
	if err != nil {
		t.mu.Unlock()
		return false, err
	}
	t.cur = nv
	for _, g := range edit.NewGuards {
		t.uncommitted[g.Level] = removeKey(t.uncommitted[g.Level], g.Key)
	}
	ticket := t.installTicket
	t.installTicket++
	t.mu.Unlock()

	t.logMu.Lock()
	for t.installTurn != ticket {
		t.logCond.Wait()
	}
	t.logMu.Unlock()
	err = t.vs.LogAndApply(edit, func() *manifest.VersionEdit {
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.snapshotEditLocked()
	})
	t.logMu.Lock()
	t.installTurn++
	t.logCond.Broadcast()
	t.logMu.Unlock()
	return true, err
}

func removeKey(keys [][]byte, key []byte) [][]byte {
	for i, k := range keys {
		if string(k) == string(key) {
			return append(keys[:i], keys[i+1:]...)
		}
	}
	return keys
}

// Get implements the FLSM read path (§3.4): per level, binary-search the
// single guard that can hold the key, then examine every sstable in that
// guard that passes the bloom filter, returning the match with the highest
// sequence number at or below the read snapshot. Range tombstones are
// folded in as the search descends: every probed source also reports the
// newest visible tombstone covering the key, and because data only moves
// down the tree, once any visible entry — point or covering tombstone — is
// found, everything deeper is older, so the comparison at that moment
// decides the read. A covered key therefore returns not-found without
// descending further and without allocating. latest, when non-nil,
// overrides seq with its value loaded *after* the version is pinned — the
// engine's collapse-safe ordering for latest-state reads (see
// engine.Tree.Get). s, when non-nil, supplies the reusable per-call working
// set (a steady-state Get allocates nothing in this layer); nil acquires
// one from the shared pool. The returned value aliases an immutable block
// payload or cache entry.
func (t *Tree) Get(ukey []byte, seq base.SeqNum, latest *atomic.Uint64, s *sstable.GetScratch) (value []byte, found bool, err error) {
	if s == nil {
		s = sstable.AcquireGetScratch()
		defer sstable.ReleaseGetScratch(s)
	}
	v := t.currentVersion()
	if latest != nil {
		seq = base.SeqNum(latest.Load())
	}
	s.SearchKey = base.MakeSearchKey(s.SearchKey[:0], ukey, seq)

	// Level 0: newest file first; flush order guarantees newer files hold
	// newer versions, so the first visible hit wins.
	var cov base.SeqNum
	for _, f := range v.l0 {
		val, fseq, kind, c, ok, gerr := t.probeFile(f, ukey, seq, s)
		if gerr != nil {
			return nil, false, gerr
		}
		if c > cov {
			cov = c
		}
		if ok {
			if cov > fseq {
				return nil, false, nil
			}
			return val, kind == base.KindSet, nil
		}
		if cov > 0 {
			// Older files and deeper levels hold only lower sequence
			// numbers: the tombstone wins over anything still unseen.
			return nil, false, nil
		}
	}
	for l := 1; l < t.cfg.NumLevels; l++ {
		gl := &v.levels[l]
		var files []*base.FileMetadata
		idx := guard.FindGuard(gl.guards, ukey)
		if idx < 0 {
			files = gl.sentinel
		} else {
			files = gl.guards[idx].Files
		}
		if len(files) == 0 {
			continue // empty guards are skipped (§3.3)
		}
		val, kind, bestSeq, gcov, ok, gerr := t.examineGuard(files, ukey, seq, s)
		if gerr != nil {
			return nil, false, gerr
		}
		if gcov > cov {
			cov = gcov
		}
		if ok {
			if cov > bestSeq {
				return nil, false, nil
			}
			return val, kind == base.KindSet, nil
		}
		if cov > 0 {
			return nil, false, nil
		}
	}
	return nil, false, nil
}

// examineGuard probes every candidate sstable within one guard and returns
// the newest visible point entry plus the newest visible covering range
// tombstone across the guard's files (files within a guard overlap in both
// keys and sequence ranges, so all must be consulted before deciding).
// Values returned by the probes alias immutable block payloads, so tracking
// the best candidate across files requires no copies — materialization is
// deferred until the winner is known.
func (t *Tree) examineGuard(files []*base.FileMetadata, ukey []byte, seq base.SeqNum, s *sstable.GetScratch) (val []byte, kind base.Kind, bestSeq, cov base.SeqNum, ok bool, err error) {
	for _, f := range files {
		v, fseq, k, c, hit, gerr := t.probeFile(f, ukey, seq, s)
		if gerr != nil {
			return nil, 0, 0, 0, false, gerr
		}
		if c > cov {
			cov = c
		}
		if !hit {
			continue
		}
		if !ok || fseq > bestSeq {
			val, kind, bestSeq, ok = v, k, fseq, true
		}
	}
	return val, kind, bestSeq, cov, ok, nil
}

// probeFile checks one sstable for the newest visible point entry of ukey
// and the newest visible range tombstone covering it, in a single table-
// cache round-trip. File bounds include tombstone spans, so the range
// check cannot reject a file whose tombstones cover ukey; the resident
// tombstone list answers with one binary search, no block IO.
func (t *Tree) probeFile(f *base.FileMetadata, ukey []byte, seq base.SeqNum, s *sstable.GetScratch) (val []byte, fseq base.SeqNum, kind base.Kind, cov base.SeqNum, ok bool, err error) {
	if !userKeyInRange(ukey, f) {
		return nil, 0, 0, 0, false, nil
	}
	r, ferr := t.tc.Find(f.FileNum, f.Size)
	if ferr != nil {
		return nil, 0, 0, 0, false, ferr
	}
	if f.RangeDelSpanContains(ukey) {
		cov = r.RangeDels().CoverSeq(ukey, seq)
	}
	if !r.MayContain(ukey) {
		s.Stats.BloomNegatives++
		r.Unref()
		return nil, 0, 0, cov, false, nil
	}
	v, fseq, k, hit, gerr := r.GetScratched(s.SearchKey, s)
	r.Unref()
	return v, fseq, k, cov, hit, gerr
}

// userKeyInRange sits on the Get hot path for every candidate file.
// bytes.Compare guarantees the range check stays allocation-free; the
// previous string-conversion comparison only avoided allocating because
// the compiler happens to optimize that pattern (BenchmarkTreeGet holds
// both at 10 allocs/op on go1.24, so this is belt-and-suspenders, not a
// measured win).
func userKeyInRange(ukey []byte, f *base.FileMetadata) bool {
	return bytes.Compare(ukey, f.SmallestUserKey()) >= 0 &&
		bytes.Compare(ukey, f.LargestUserKey()) <= 0
}

// NewIters returns one iterator per L0 table plus a guard-aware iterator
// per populated level, along with every range tombstone held by tables
// overlapping the bounds (file bounds include tombstone spans, so pruning
// cannot lose a tombstone that could mask an in-bounds key). The engine
// merges the tombstones with the memtables' into one visibility mask.
// Guards and tables whose key ranges fall outside bounds are pruned before
// any table is opened; when the request carries a prefix, L0 tables whose
// prefix bloom filter rules the prefix out are skipped too (tombstone
// collection is a separate pass, so a skipped table's range deletions are
// still honored). The call costs O(levels × log guards + L0 tables +
// tombstone tables): guard levels are read in place from the immutable
// version and tombstones come from its tombstone-table list. Iterators are
// appended to dst, which pooled callers recycle across NewIters calls.
func (t *Tree) NewIters(req treebase.IterRequest, dst []iterator.Iterator) ([]iterator.Iterator, []rangedel.Tombstone, error) {
	bounds := req.Bounds
	v := t.currentVersion()
	iters := dst
	for _, f := range v.l0 {
		if !bounds.Overlaps(f) {
			continue
		}
		r, err := t.tc.Find(f.FileNum, f.Size)
		if err != nil {
			for _, it := range iters {
				it.Close()
			}
			return nil, nil, err
		}
		if req.Prefix != nil && !r.MayContainPrefix(req.Prefix) {
			r.Unref()
			req.CountPrefixSkip()
			continue
		}
		req.CountOpen()
		iters = append(iters, treebase.GetTableIter(r))
	}
	for l := 1; l < t.cfg.NumLevels; l++ {
		gl := &v.levels[l]
		if gl.fileCount() == 0 {
			continue
		}
		parallel := t.cfg.ParallelSeeks && l == t.cfg.NumLevels-1
		iters = append(iters, newGuardLevelIter(t, l, gl, parallel, req))
	}
	rds, err := treebase.CollectRangeDels(t.tc, v.rangeDelFiles, bounds)
	if err != nil {
		for _, it := range iters {
			it.Close()
		}
		return nil, nil, err
	}
	return iters, rds, nil
}

// recordSeek charges a guard's seek budget; exhaustion schedules the guard
// for compaction (§4.2, default threshold 10 consecutive seeks).
func (t *Tree) recordSeek(level int, gkey []byte, numFiles int) {
	if t.cfg.SeekCompactionThreshold <= 0 || numFiles <= 1 || level >= t.cfg.NumLevels {
		return
	}
	id := guardID{Level: level, Key: string(gkey)}
	t.mu.Lock()
	n, ok := t.seekCounts[id]
	if !ok {
		n = t.cfg.SeekCompactionThreshold
	}
	n--
	if n <= 0 {
		t.seekPending[id] = true
		n = t.cfg.SeekCompactionThreshold
	}
	t.seekCounts[id] = n
	t.mu.Unlock()
}

// L0Count returns the number of level-0 files.
func (t *Tree) L0Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.cur.l0)
}

// ProtectedFiles returns live plus in-flight table files. The pending set
// is read before the version: files move pending -> version, so this order
// guarantees a file cannot slip between the two snapshots and be swept
// while live.
func (t *Tree) ProtectedFiles() map[base.FileNum]bool {
	out := make(map[base.FileNum]bool)
	t.pendingMu.Lock()
	for fn := range t.pending {
		out[fn] = true
	}
	t.pendingMu.Unlock()
	t.mu.Lock()
	for _, f := range t.cur.l0 {
		out[f.FileNum] = true
	}
	for l := 1; l < t.cfg.NumLevels; l++ {
		gl := &t.cur.levels[l]
		for _, f := range gl.sentinel {
			out[f.FileNum] = true
		}
		for i := range gl.guards {
			for _, f := range gl.guards[i].Files {
				out[f.FileNum] = true
			}
		}
	}
	t.mu.Unlock()
	return out
}

// EvictTable drops a deleted table from the caches.
func (t *Tree) EvictTable(fn base.FileNum) { t.tc.Evict(fn) }

// ManifestFileNum exposes the live manifest number for the sweeper.
func (t *Tree) ManifestFileNum() base.FileNum { return t.vs.ManifestFileNum() }

// LogNum exposes the recovery WAL watermark for the sweeper.
func (t *Tree) LogNum() base.FileNum { return t.vs.LogNum() }

// Metrics reports tree statistics, including guard occupancy.
func (t *Tree) Metrics() treebase.Metrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.metrics
	m.PeakLevelUnits = append([]int(nil), t.metrics.PeakLevelUnits...)
	m.UnitsInflight = int64(t.inflight.units)
	m.LevelFiles = make([]int, t.cfg.NumLevels)
	m.LevelBytes = make([]int64, t.cfg.NumLevels)
	m.GuardsPerLevel = make([]int, t.cfg.NumLevels)
	for _, f := range t.cur.l0 {
		m.LevelFiles[0]++
		m.LevelBytes[0] += int64(f.Size)
		m.TableFileSizes = append(m.TableFileSizes, f.Size)
	}
	for l := 1; l < t.cfg.NumLevels; l++ {
		gl := &t.cur.levels[l]
		m.LevelFiles[l] = gl.fileCount()
		m.LevelBytes[l] = gl.totalBytes()
		m.GuardsPerLevel[l] = len(gl.guards)
		for _, f := range gl.sentinel {
			m.TableFileSizes = append(m.TableFileSizes, f.Size)
		}
		for i := range gl.guards {
			if len(gl.guards[i].Files) == 0 {
				m.EmptyGuards++
			}
			for _, f := range gl.guards[i].Files {
				m.TableFileSizes = append(m.TableFileSizes, f.Size)
			}
		}
	}
	return m
}

// CacheMetrics reports table-cache statistics (Table 5.4).
func (t *Tree) CacheMetrics() tablecache.Metrics { return t.tc.Metrics() }

// GuardKeys returns the committed guard keys of a level (tests, dumps).
func (t *Tree) GuardKeys(level int) [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	if level < 1 || level >= t.cfg.NumLevels {
		return nil
	}
	return t.cur.levels[level].guardKeys()
}

// Dump writes a Figure 3.1-style layout description.
func (t *Tree) Dump(w io.Writer) {
	v := t.currentVersion()
	fmt.Fprintf(w, "FLSM tree %s\n", t.dir)
	fmt.Fprintf(w, "  level 0 (no guards): %d sstables\n", len(v.l0))
	for _, f := range v.l0 {
		fmt.Fprintf(w, "    %s\n", f)
	}
	for l := 1; l < t.cfg.NumLevels; l++ {
		gl := &v.levels[l]
		if gl.fileCount() == 0 && len(gl.guards) == 0 {
			continue
		}
		fmt.Fprintf(w, "  level %d: %d guards, %d sstables, %d bytes\n",
			l, len(gl.guards), gl.fileCount(), gl.totalBytes())
		if len(gl.sentinel) > 0 {
			fmt.Fprintf(w, "    sentinel:\n")
			for _, f := range gl.sentinel {
				fmt.Fprintf(w, "      %s\n", f)
			}
		}
		for i := range gl.guards {
			g := &gl.guards[i]
			fmt.Fprintf(w, "    guard %q: %d sstables\n", g.Key, len(g.Files))
			for _, f := range g.Files {
				fmt.Fprintf(w, "      %s\n", f)
			}
		}
	}
}

// Close releases cached readers and the manifest.
func (t *Tree) Close() error {
	t.tc.Close()
	return t.vs.Close()
}

package leveled

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"pebblesdb/internal/base"
	"pebblesdb/internal/cache"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/manifest"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/sstable"
	"pebblesdb/internal/tablecache"
	"pebblesdb/internal/treebase"
	"pebblesdb/internal/vfs"
)

// Tree is the leveled LSM baseline. All methods are safe for concurrent
// use.
type Tree struct {
	cfg  *base.Config
	fs   vfs.FS
	dir  string
	vs   *manifest.VersionSet
	tc   *tablecache.TableCache
	snap treebase.Host

	mu         sync.Mutex
	cur        *version
	compactPtr [][]byte // per-level round-robin cursor (user key)
	// claimed marks files owned by running compaction units (inputs and
	// targets); l0Busy marks the exclusive L0->L1 unit. Units with disjoint
	// claimed sets run concurrently, even on the same level pair.
	claimed         map[base.FileNum]bool
	l0Busy          bool
	inflightUnits   int
	levelUnits      []int
	claimStallStart time.Time
	// unitID numbers compaction units for the event stream, so concurrent
	// begin/end pairs can be correlated.
	unitID      atomic.Uint64
	seekPending map[base.FileNum]int // fileNum -> level, seek-triggered candidates
	pendingMu   sync.Mutex
	pending     map[base.FileNum]bool

	// logMu/logCond order manifest appends by install ticket: an edit
	// deleting file f must be appended after the edit that added f, or
	// recovery replay fails. Tickets are assigned in the same critical
	// section that installs the in-memory version.
	logMu         sync.Mutex
	logCond       *sync.Cond
	installTicket uint64
	installTurn   uint64

	metrics treebase.Metrics
}

// Open creates or recovers a leveled tree in dir.
func Open(cfg *base.Config, fs vfs.FS, dir string, snap treebase.Host) (*Tree, error) {
	t := &Tree{
		cfg:         cfg,
		fs:          fs,
		dir:         dir,
		snap:        snap,
		cur:         newVersion(cfg.NumLevels),
		compactPtr:  make([][]byte, cfg.NumLevels),
		claimed:     make(map[base.FileNum]bool),
		levelUnits:  make([]int, cfg.NumLevels),
		seekPending: make(map[base.FileNum]int),
		pending:     make(map[base.FileNum]bool),
	}
	t.logCond = sync.NewCond(&t.logMu)
	t.metrics.PeakLevelUnits = make([]int, cfg.NumLevels)
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

// snapshotEditLocked describes the full current state as one edit.
func (t *Tree) snapshotEditLocked() *manifest.VersionEdit {
	e := &manifest.VersionEdit{}
	for l, files := range t.cur.files {
		for _, f := range files {
			e.NewFiles = append(e.NewFiles, manifest.NewFileEntry{Level: l, Meta: *f})
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

// WantGuard reports whether the engine should route ukey to Ingest; the
// leveled tree has no guards, so never.
func (t *Tree) WantGuard(ukey []byte) bool { return false }

// Ingest is the per-key write hook; the leveled tree has no guards, so it
// is a no-op.
func (t *Tree) Ingest(ukey []byte) {}

// AddPending registers an in-flight output file (treebase.PendingRegistry).
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

// Flush writes the memtable contents — point entries plus range tombstones
// — as a level-0 sstable and logs an edit recording the new WAL number and
// sequence watermark.
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
			// The tables are referenced by the live in-memory version; keep
			// them for a later manifest rotation to persist. A retried flush
			// re-adds the same keys at the same sequence numbers.
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

// logAndInstall installs the version resulting from edit and persists the
// edit. Install-then-log keeps the rotation snapshot (which reads t.cur)
// consistent with the edit it replaces. installed reports whether the
// in-memory switch happened: when true the edit's new files are referenced
// by live reads even if persistence failed, so the caller must NOT delete
// them — a later successful manifest rotation snapshots the installed state
// and makes them durable.
// With concurrent units the append order must match the install order
// (delete-after-add is the one non-commuting edit pair), so each install
// takes a ticket under mu and appends strictly in ticket order.
func (t *Tree) logAndInstall(edit *manifest.VersionEdit) (installed bool, err error) {
	t.mu.Lock()
	nv, err := t.cur.apply(edit, t.cfg.NumLevels)
	if err != nil {
		t.mu.Unlock()
		return false, err
	}
	t.cur = nv
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

// Get returns the newest visible value of ukey at seq. found=false means
// the key is absent or deleted at that snapshot. latest, when non-nil,
// overrides seq with its value loaded *after* the version is pinned — the
// engine's collapse-safe ordering for latest-state reads (see
// engine.Tree.Get). s, when non-nil, supplies the reusable per-call working
// set (a steady-state Get allocates nothing in this layer); nil acquires
// one from the shared pool. The returned value aliases an immutable block
// payload or cache entry — copy it to retain it past the caller's own
// scratch lifetime rules (the engine copies into the caller's destination
// buffer).
func (t *Tree) Get(ukey []byte, seq base.SeqNum, latest *atomic.Uint64, s *sstable.GetScratch) (value []byte, found bool, err error) {
	if s == nil {
		s = sstable.AcquireGetScratch()
		defer sstable.ReleaseGetScratch(s)
	}
	value, found, firstMiss, firstMissLevel, err := t.get(ukey, seq, latest, s)
	// A Get that examines more than one file charges the first file's seek
	// budget (LevelDB's seek-triggered compaction).
	if firstMiss != nil {
		t.chargeSeek(firstMiss, firstMissLevel)
	}
	return value, found, err
}

func (t *Tree) get(ukey []byte, seq base.SeqNum, latest *atomic.Uint64, s *sstable.GetScratch) (value []byte, found bool, firstMiss *base.FileMetadata, firstMissLevel int, err error) {
	v := t.currentVersion()
	if latest != nil {
		seq = base.SeqNum(latest.Load())
	}
	s.SearchKey = base.MakeSearchKey(s.SearchKey[:0], ukey, seq)

	// Level 0: newest file first; a hit (value or tombstone) ends the
	// search. Range tombstones fold in as the search descends (cov): data
	// only moves down, so once any visible entry — point or covering
	// tombstone — is seen, everything deeper is older and the comparison
	// decides the read.
	var cov base.SeqNum
	for _, f := range v.files[0] {
		if !userKeyInRange(ukey, f) {
			continue
		}
		val, fseq, kind, c, hit, probed, gerr := t.probeFile(f, ukey, seq, s)
		if gerr != nil {
			return nil, false, firstMiss, firstMissLevel, gerr
		}
		if c > cov {
			cov = c
		}
		if hit {
			if cov > fseq {
				return nil, false, firstMiss, firstMissLevel, nil
			}
			return val, kind == base.KindSet, firstMiss, firstMissLevel, nil
		}
		if probed && firstMiss == nil {
			firstMiss, firstMissLevel = f, 0
		}
		if cov > 0 {
			return nil, false, firstMiss, firstMissLevel, nil
		}
	}
	for l := 1; l < t.cfg.NumLevels; l++ {
		i := findFile(v.files[l], ukey)
		if i < 0 {
			continue
		}
		val, fseq, kind, c, hit, probed, gerr := t.probeFile(v.files[l][i], ukey, seq, s)
		if gerr != nil {
			return nil, false, firstMiss, firstMissLevel, gerr
		}
		if c > cov {
			cov = c
		}
		if hit {
			if cov > fseq {
				return nil, false, firstMiss, firstMissLevel, nil
			}
			return val, kind == base.KindSet, firstMiss, firstMissLevel, nil
		}
		if probed && firstMiss == nil {
			firstMiss, firstMissLevel = v.files[l][i], l
		}
		if cov > 0 {
			return nil, false, firstMiss, firstMissLevel, nil
		}
	}
	return nil, false, firstMiss, firstMissLevel, nil
}

// probeFile checks one sstable for the newest visible point entry of ukey
// and the newest visible range tombstone covering it (cov), in a single
// table-cache round-trip. File bounds include tombstone spans, so range
// pruning cannot reject a file whose tombstones cover ukey; the resident
// tombstone list answers with one binary search, no block IO. probed
// reports whether the table's blocks were actually searched (the bloom
// filter passed or was absent) — the input to seek-charge accounting.
func (t *Tree) probeFile(f *base.FileMetadata, ukey []byte, seq base.SeqNum, s *sstable.GetScratch) (value []byte, fseq base.SeqNum, kind base.Kind, cov base.SeqNum, hit, probed bool, err error) {
	r, err := t.tc.Find(f.FileNum, f.Size)
	if err != nil {
		return nil, 0, 0, 0, false, false, err
	}
	if f.RangeDelSpanContains(ukey) {
		cov = r.RangeDels().CoverSeq(ukey, seq)
	}
	if !r.MayContain(ukey) {
		s.Stats.BloomNegatives++
		r.Unref()
		return nil, 0, 0, cov, false, false, nil
	}
	value, fseq, kind, hit, err = r.GetScratched(s.SearchKey, s)
	r.Unref()
	return value, fseq, kind, cov, hit, true, err
}

// userKeyInRange sits on the Get hot path for every candidate file.
// bytes.Compare guarantees the range check stays allocation-free instead
// of relying on the compiler's string-comparison conversion optimization.
func userKeyInRange(ukey []byte, f *base.FileMetadata) bool {
	return bytes.Compare(ukey, f.SmallestUserKey()) >= 0 &&
		bytes.Compare(ukey, f.LargestUserKey()) <= 0
}

// chargeSeek decrements a file's seek budget, scheduling a seek-triggered
// compaction when exhausted (§4.2's baseline analogue, from LevelDB).
// Level 0 is exempt: L0 files overlap each other, so compacting one L0
// file down alone could bury a key's newest version under an older one
// still sitting in another L0 file; the L0 count trigger handles L0.
func (t *Tree) chargeSeek(f *base.FileMetadata, level int) {
	if t.cfg.SeekCompactionThreshold <= 0 || level == 0 || level >= t.cfg.NumLevels-1 {
		return
	}
	t.mu.Lock()
	f.AllowedSeeks--
	if f.AllowedSeeks <= 0 {
		if _, dup := t.seekPending[f.FileNum]; !dup {
			t.seekPending[f.FileNum] = level
		}
		f.AllowedSeeks = allowedSeeks(f.Size)
	}
	t.mu.Unlock()
}

// NewIters returns one iterator per L0 table plus one concatenating
// iterator per deeper level, along with every range tombstone held by
// tables overlapping the bounds (file bounds include tombstone spans, so
// pruning cannot lose a masking tombstone). Tables whose key ranges fall
// outside bounds are pruned before any table is opened: deeper levels are
// sorted and disjoint, so their in-bounds files are a binary-searched
// subslice. When the request carries a prefix, L0 tables whose prefix
// bloom filter rules the prefix out are skipped (their tombstones are
// still collected, from the version's tombstone-table list). The call
// costs O(levels × log files + L0 tables + tombstone tables). Iterators
// are appended to dst, which pooled callers recycle across NewIters calls.
func (t *Tree) NewIters(req treebase.IterRequest, dst []iterator.Iterator) ([]iterator.Iterator, []rangedel.Tombstone, error) {
	bounds := req.Bounds
	v := t.currentVersion()
	iters := dst
	for _, f := range v.files[0] {
		if !bounds.Overlaps(f) {
			continue
		}
		r, err := t.tc.Find(f.FileNum, f.Size)
		if err != nil {
			return closeAll(iters, err)
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
		if files := inBounds(v.files[l], bounds); len(files) > 0 {
			iters = append(iters, newLevelIter(t.tc, files, req))
		}
	}
	rds, err := treebase.CollectRangeDels(t.tc, v.rangeDelFiles, bounds)
	if err != nil {
		return closeAll(iters, err)
	}
	return iters, rds, nil
}

func closeAll(iters []iterator.Iterator, err error) ([]iterator.Iterator, []rangedel.Tombstone, error) {
	for _, it := range iters {
		it.Close()
	}
	return nil, nil, err
}

// L0Count returns the current number of level-0 files (write stalls).
func (t *Tree) L0Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.cur.files[0])
}

// ProtectedFiles returns every table file the sweeper must keep: files in
// the live version plus in-flight outputs. The pending set is read first:
// files move pending -> version, so reading the version second guarantees
// a file cannot slip between the two snapshots.
func (t *Tree) ProtectedFiles() map[base.FileNum]bool {
	out := make(map[base.FileNum]bool)
	t.pendingMu.Lock()
	for fn := range t.pending {
		out[fn] = true
	}
	t.pendingMu.Unlock()
	t.mu.Lock()
	for _, files := range t.cur.files {
		for _, f := range files {
			out[f.FileNum] = true
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

// Metrics reports tree statistics.
func (t *Tree) Metrics() treebase.Metrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.metrics
	m.PeakLevelUnits = append([]int(nil), t.metrics.PeakLevelUnits...)
	m.UnitsInflight = int64(t.inflightUnits)
	m.LevelFiles = make([]int, t.cfg.NumLevels)
	m.LevelBytes = make([]int64, t.cfg.NumLevels)
	for l, files := range t.cur.files {
		m.LevelFiles[l] = len(files)
		m.LevelBytes[l] = t.cur.levelBytes(l)
		for _, f := range files {
			m.TableFileSizes = append(m.TableFileSizes, f.Size)
		}
	}
	return m
}

// CacheMetrics reports table-cache statistics (Table 5.4).
func (t *Tree) CacheMetrics() tablecache.Metrics { return t.tc.Metrics() }

// Dump writes a human-readable layout description.
func (t *Tree) Dump(w io.Writer) {
	v := t.currentVersion()
	fmt.Fprintf(w, "leveled tree %s\n", t.dir)
	for l, files := range v.files {
		if len(files) == 0 {
			continue
		}
		fmt.Fprintf(w, "  level %d: %d files, %d bytes\n", l, len(files), v.levelBytes(l))
		for _, f := range files {
			fmt.Fprintf(w, "    %s\n", f)
		}
	}
}

// Close releases cached readers and the manifest.
func (t *Tree) Close() error {
	t.tc.Close()
	return t.vs.Close()
}

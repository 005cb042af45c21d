package flsm

import (
	"sync"

	"pebblesdb/internal/base"
	"pebblesdb/internal/guard"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/treebase"
)

// guardLevelIter iterates one FLSM level in key order, forward or backward:
// the sentinel's files, then each guard's files. Within a guard (where
// sstables may overlap) a merging iterator combines the tables; across
// guards plain concatenation suffices because guard intervals are disjoint
// (§3.1). Reverse iteration positions every sstable within a guard at its
// bound (Merging.SeekLT / Last) and drains guards from the end of the
// level.
//
// The iterator is built for reuse across seeks: the merging iterator and
// kids slice are embedded and recycled, table iterators come from the
// shared pool, and re-seeking into the already-open group skips the
// close/reopen cycle entirely — the steady state of a warm scan loop. When
// the request carries a prefix, tables whose prefix bloom filter rules the
// prefix out are skipped before any block is read.
type guardLevelIter struct {
	tree  *Tree
	level int
	// gl is the level in the iterator's immutable version. Group 0 is the
	// sentinel, group i >= 1 the guard gl.guards[i-1].
	gl *guardedLevel
	// lo and hi are the first and last groups the bounds can reach;
	// groups outside [lo, hi] are never opened.
	lo, hi int
	idx    int
	// inBounds counts the open group's files that overlap the bounds.
	inBounds int
	cur      iterator.Iterator // &g.m or &g.empty while a group is open
	parallel bool
	err      error
	req      treebase.IterRequest
	m        iterator.Merging
	kids     []iterator.Iterator
	empty    iterator.Empty
}

// newGuardLevelIter builds the level iterator without copying the level:
// the bounds map to a group range with two binary searches over the guard
// keys, and each group's files are checked against the bounds only when
// the group is opened. Building costs O(log guards), whatever the size of
// the level.
func newGuardLevelIter(t *Tree, level int, gl *guardedLevel, parallel bool, req treebase.IterRequest) *guardLevelIter {
	g := &guardLevelIter{tree: t, level: level, gl: gl, hi: len(gl.guards), idx: -1, parallel: parallel, req: req}
	if req.Bounds.Lower != nil {
		g.lo = guard.FindGuard(gl.guards, req.Bounds.Lower) + 1
	}
	if req.Bounds.Upper != nil {
		g.hi = guard.FindGuard(gl.guards, req.Bounds.Upper) + 1
	}
	return g
}

// group returns group i's guard key (nil for the sentinel) and files.
func (g *guardLevelIter) group(i int) ([]byte, []*base.FileMetadata) {
	if i == 0 {
		return nil, g.gl.sentinel
	}
	gd := &g.gl.guards[i-1]
	return gd.Key, gd.Files
}

// closeCur releases the open group: every pooled table iterator goes back
// to the pool, the kids slice keeps its capacity for the next group.
func (g *guardLevelIter) closeCur() {
	for _, k := range g.kids {
		if err := k.Close(); err != nil && g.err == nil {
			g.err = err
		}
	}
	g.kids = g.kids[:0]
	g.cur = nil
}

// openGroup builds the merged iterator over group i's files within bounds
// without positioning it; returns false outside [lo, hi] or on error.
func (g *guardLevelIter) openGroup(i int) bool {
	g.closeCur()
	if i < g.lo {
		g.idx = g.lo - 1
		return false
	}
	if i > g.hi {
		g.idx = g.hi + 1
		return false
	}
	g.idx = i
	g.inBounds = 0
	_, files := g.group(i)
	for _, f := range files {
		if !g.req.Bounds.Overlaps(f) {
			continue
		}
		g.inBounds++
		r, err := g.tree.tc.Find(f.FileNum, f.Size)
		if err != nil {
			g.err = err
			g.closeCur()
			return false
		}
		if g.req.Prefix != nil && !r.MayContainPrefix(g.req.Prefix) {
			r.Unref()
			g.req.CountPrefixSkip()
			continue
		}
		g.req.CountOpen()
		g.kids = append(g.kids, treebase.GetTableIter(r))
	}
	if len(g.kids) == 0 {
		g.empty = iterator.Empty{}
		g.cur = &g.empty
		return true
	}
	g.m.Init(base.InternalCompare, g.kids)
	g.cur = &g.m
	return true
}

// seekGroup opens group i (reusing it when already open — the steady state
// of a warm scan loop re-seeking within one guard), charges the guard's
// seek budget with its in-bounds files, and positions it at target.
// Parallel seeks (§4.2): position each sstable iterator on its own
// goroutine, then assemble the heap. Only profitable when the tables are
// likely uncached — the tree enables it for the last level only. reverse
// selects SeekLT.
func (g *guardLevelIter) seekGroup(i int, target []byte, reverse bool) bool {
	if i != g.idx || g.cur == nil {
		if !g.openGroup(i) {
			return false
		}
	}
	key, _ := g.group(i)
	g.tree.recordSeek(g.level, key, g.inBounds)
	if g.cur != &g.m { // empty group
		return true
	}
	m := &g.m
	if g.parallel && len(g.kids) > 1 {
		var wg sync.WaitGroup
		for ki := 0; ki < len(g.kids); ki++ {
			wg.Add(1)
			go func(ki int) {
				defer wg.Done()
				if reverse {
					m.Kid(ki).SeekLT(target)
				} else {
					m.Kid(ki).SeekGE(target)
				}
			}(ki)
		}
		wg.Wait()
		if reverse {
			m.InitPositionedReverse()
		} else {
			m.InitPositioned()
		}
		return true
	}
	if reverse {
		m.SeekLT(target)
	} else {
		m.SeekGE(target)
	}
	return true
}

// findGroup returns the group whose guard interval contains ukey, clamped
// to the groups the bounds reach.
func (g *guardLevelIter) findGroup(ukey []byte) int {
	gi := guard.FindGuard(g.gl.guards, ukey) + 1
	if gi < g.lo {
		gi = g.lo
	}
	if gi > g.hi {
		gi = g.hi
	}
	return gi
}

// SeekGE positions at the first entry >= target (an internal key).
func (g *guardLevelIter) SeekGE(target []byte) {
	if g.err != nil {
		return
	}
	if !g.seekGroup(g.findGroup(base.UserKey(target)), target, false) {
		return
	}
	g.skipEmpty()
}

// SeekLT positions at the last entry < target (an internal key). Entries
// below target live in the guard containing target's user key or in
// earlier guards.
func (g *guardLevelIter) SeekLT(target []byte) {
	if g.err != nil {
		return
	}
	if !g.seekGroup(g.findGroup(base.UserKey(target)), target, true) {
		return
	}
	g.skipEmptyBackward()
}

// First positions at the level's first entry.
func (g *guardLevelIter) First() {
	if g.err != nil {
		return
	}
	if g.idx != g.lo || g.cur == nil {
		if !g.openGroup(g.lo) {
			return
		}
	}
	g.cur.First()
	g.skipEmpty()
}

// Last positions at the level's last entry.
func (g *guardLevelIter) Last() {
	if g.err != nil {
		return
	}
	if g.idx != g.hi || g.cur == nil {
		if !g.openGroup(g.hi) {
			return
		}
	}
	g.cur.Last()
	g.skipEmptyBackward()
}

// Next advances, crossing guard boundaries as needed.
func (g *guardLevelIter) Next() {
	if g.cur == nil || g.err != nil {
		return
	}
	g.cur.Next()
	g.skipEmpty()
}

// Prev moves back, crossing guard boundaries as needed.
func (g *guardLevelIter) Prev() {
	if g.cur == nil || g.err != nil {
		return
	}
	g.cur.Prev()
	g.skipEmptyBackward()
}

func (g *guardLevelIter) skipEmpty() {
	for g.cur != nil && !g.cur.Valid() {
		if err := g.cur.Error(); err != nil {
			g.err = err
			return
		}
		if !g.openGroup(g.idx + 1) {
			return
		}
		g.cur.First()
	}
}

func (g *guardLevelIter) skipEmptyBackward() {
	for g.cur != nil && !g.cur.Valid() {
		if err := g.cur.Error(); err != nil {
			g.err = err
			return
		}
		if !g.openGroup(g.idx - 1) {
			return
		}
		g.cur.Last()
	}
}

func (g *guardLevelIter) Valid() bool {
	return g.err == nil && g.cur != nil && g.cur.Valid()
}

func (g *guardLevelIter) Key() []byte   { return g.cur.Key() }
func (g *guardLevelIter) Value() []byte { return g.cur.Value() }

func (g *guardLevelIter) Error() error { return g.err }

func (g *guardLevelIter) Close() error {
	g.closeCur()
	return g.err
}

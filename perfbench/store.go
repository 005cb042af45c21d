package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"pebblesdb"
	"pebblesdb/internal/harness"
	"pebblesdb/internal/obs"
	"pebblesdb/internal/vfs"
)

// storeScale divides the presets' size parameters (memtable, level base,
// target file size) so that stores of a few hundred thousand keys reach
// the same depth the paper's runs do.
const storeScale = 32

// defaultTableCache is the store's table cache size in tables when
// Options leave it unset.
const defaultTableCache = 1000

// scaled returns the preset's options scaled by storeScale. Scaling makes
// tables storeScale times smaller, so a store holds storeScale times more
// of them; the table cache, counted in tables, grows by the same factor
// so that it covers as many bytes as the preset's own does. Left at 1,000
// tables it would hold about 70% of the read store's tables, and the
// 2-3% of Gets that reopen a table would set their p99.
func scaled(p pebblesdb.Preset) *pebblesdb.Options {
	o := harness.Scale(p.Options(), storeScale)
	o.TableCacheSize = defaultTableCache * storeScale
	return o
}

// lockstep returns the options the loader uses: one compaction worker, so
// with flushes at fixed points the layout is a function of the input.
func lockstep(p pebblesdb.Preset) *pebblesdb.Options {
	o := scaled(p)
	o.MaxCompactionConcurrency = 1
	return o
}

// openStore opens dir on fs with a copy of o and the given listener.
func openStore(fs vfs.FS, dir string, o *pebblesdb.Options, l obs.Listener) (*pebblesdb.DB, error) {
	oo := *o
	oo.EventListener = l
	db, err := pebblesdb.Open(dir, oo.WithFS(fs))
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	return db, nil
}

// lockstepBatch is the number of puts between the loader's explicit
// flushes: small enough that a memtable never fills on its own.
func lockstepBatch(o *pebblesdb.Options) int {
	return o.MemtableSize * 3 / 4 / (entryBytes + 64)
}

// load inserts version 1 of every index in order, with values from g. Every lockstepBatch puts
// it flushes and waits for background work to drain, so flushes and
// compactions happen at the same points on every run. Put latencies go to
// pl and, when sp is non-nil, to spans.
func (b *bench) load(db *pebblesdb.DB, g *gen, idx []uint64, k int, stream int64, pl *lat, sp *spans, round int) error {
	vs := g.values(stream)
	kb, vb := make([]byte, keySize), make([]byte, valueSize)
	for j, i := range idx {
		key := g.key(kb, i)
		val := value(vb, vs, i, 1)
		s := obs.Monotonic()
		err := db.Put(key, val)
		e := obs.Monotonic()
		pl.add(e - s)
		sp.add(spPut, round, s, e)
		b.opErr(err)
		if (j+1)%k == 0 || j == len(idx)-1 {
			if err := db.Flush(); err != nil {
				return err
			}
			if err := db.WaitIdle(); err != nil {
				return err
			}
		}
	}
	return nil
}

// shape is a store's structure after it has drained.
type shape struct {
	files       []int
	bytes       []int64
	guards      int
	emptyGuards int
	maxPerGuard int
	compactions int64
}

func shapeOf(db *pebblesdb.DB) shape {
	m := db.Metrics()
	s := shape{
		files:       m.Tree.LevelFiles,
		bytes:       m.Tree.LevelBytes,
		emptyGuards: m.Tree.EmptyGuards,
		compactions: m.Tree.Compactions,
	}
	for _, g := range m.Tree.GuardsPerLevel {
		s.guards += g
	}
	// The per-guard table counts appear only in the layout dump.
	var dump bytes.Buffer
	db.Dump(&dump)
	sc := bufio.NewScanner(&dump)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "guard ") || !strings.HasSuffix(line, " sstables") {
			continue
		}
		f := strings.Fields(line)
		if n, err := strconv.Atoi(f[len(f)-2]); err == nil && n > s.maxPerGuard {
			s.maxPerGuard = n
		}
	}
	return s
}

func (s shape) tableBytes() int64 {
	var t int64
	for _, b := range s.bytes {
		t += b
	}
	return t
}

// levels returns how many levels hold at least one table.
func (s shape) levels() int {
	n := 0
	for _, f := range s.files {
		if f > 0 {
			n++
		}
	}
	return n
}

// digest renders the structure for comparison across runs, with a hash
// of the rendering.
func (s shape) digest() string {
	var b strings.Builder
	for l := range s.files {
		fmt.Fprintf(&b, "L%d=%d/%d ", l, s.files[l], s.bytes[l])
	}
	fmt.Fprintf(&b, "guards=%d empty=%d maxPerGuard=%d compactions=%d", s.guards, s.emptyGuards, s.maxPerGuard, s.compactions)
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x %s", h.Sum64(), b.String())
}

// record puts the structural per-layer values of s into v.
func (s shape) record(v map[string]float64) {
	for l := 0; l < 7; l++ {
		f := 0
		if l < len(s.files) {
			f = s.files[l]
		}
		v[fmt.Sprintf("tree.level_files.L%d", l)] = float64(f)
	}
	v["flsm.guards"] = float64(s.guards)
	v["flsm.empty_guards"] = float64(s.emptyGuards)
	v["flsm.tables_per_guard_max"] = float64(s.maxPerGuard)
}

// verify reads every index in sample and checks the value against the
// model: want(i) is the expected version, 0 for absent.
func (b *bench) verify(db *pebblesdb.DB, sample []uint64, want func(i uint64) uint64) {
	kb, dst := make([]byte, keySize), make([]byte, 0, valueSize)
	for _, i := range sample {
		v, found, err := db.GetTo(b.g.key(kb, i), dst, nil)
		b.opErr(checkGet(i, v, found, err, want(i), want(i)))
	}
}

// checkGet checks one point read of index i: absent when lo is 0,
// otherwise a version in [lo, hi].
func checkGet(i uint64, v []byte, found bool, err error, lo, hi uint64) error {
	switch {
	case err != nil:
		return fmt.Errorf("get %d: %w", i, err)
	case lo == 0 && found:
		return fmt.Errorf("get %d: found a key that was never written", i)
	case lo == 0:
		return nil
	case !found:
		return fmt.Errorf("get %d: written key not found", i)
	}
	ver, err := checkValue(i, v)
	if err != nil {
		return err
	}
	if ver < lo || ver > hi {
		return fmt.Errorf("get %d: version %d, want %d..%d", i, ver, lo, hi)
	}
	return nil
}

// scanCount iterates the whole store, checks every entry against its key,
// and returns the number of entries.
func scanCount(db *pebblesdb.DB) (int, error) {
	it, err := db.NewIter(nil)
	if err != nil {
		return 0, err
	}
	n := 0
	for it.First(); it.Valid(); it.Next() {
		i, ok := keyIndex(it.Key())
		if !ok {
			it.Close()
			return n, fmt.Errorf("scan: malformed key %x", it.Key())
		}
		if _, err := checkValue(i, it.Value()); err != nil {
			it.Close()
			return n, fmt.Errorf("scan: %w", err)
		}
		n++
	}
	if err := it.Error(); err != nil {
		it.Close()
		return n, err
	}
	return n, it.Close()
}

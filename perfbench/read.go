package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"pebblesdb"
	"pebblesdb/internal/obs"
	"pebblesdb/internal/vfs"
)

// read: one closed-loop reader on a PebblesDB store larger than its block
// cache. The store is built by the lockstep loader from a fixed insertion
// order, so its shape is exact and the same for every seed (FLSM's shape
// at this size swings with insertion order, and read cost with it); the
// seed drives the read sequence. The store is then reopened with the
// preset's own options and a block cache of about 1/8 of the table bytes.
// About 90% of operations are point reads uniform over the key space
// (about 10% of keys absent); the rest are range queries: SeekGE, then 10
// Next.
const (
	readKeys    = 150_000 // key space; about 90% present
	readStore   = 1       // seed of the store's insertion order and values
	readSetups  = 3       // set-ups per run; setup_s is their median
	readWindow  = time.Second
	readWarmOps = 20_000
	scanLen     = 10
)

func runRead(b *bench) error {
	var fs *vfs.MemFS
	var loaderWritten, loaderUser float64
	for s := 0; s < readSetups; s++ {
		err := b.timeSetup(func() error {
			var err error
			fs, loaderWritten, loaderUser, err = b.buildReadStore()
			return err
		})
		if err != nil {
			return err
		}
	}
	var tableBytes int64
	{
		db, err := openStore(fs, "read", lockstep(pebblesdb.PresetPebblesDB), nil)
		if err != nil {
			return err
		}
		s := shapeOf(db)
		tableBytes = s.tableBytes()
		fmt.Printf("store: %s\n", s.digest())
		if err := db.Close(); err != nil {
			return err
		}
	}
	opts := scaled(pebblesdb.PresetPebblesDB)
	opts.BlockCacheSize = tableBytes / 8
	db, err := openStore(fs, "read", opts, b.tr.listener())
	if err != nil {
		return err
	}
	defer db.Close()
	sorted := b.g.sortedKeys(readKeys)
	r := &reader{b: b, db: db, sorted: sorted, rng: b.g.rng(5)}

	// Warm the table and block caches before timing.
	warm := newRound()
	for j := 0; j < readWarmOps; j++ {
		r.op(&warm, nil, 0)
	}
	plain, traced, err := b.rounds(func(round int, tr bool) (roundOut, error) {
		out := newRound()
		var sp *spans
		if tr {
			sp = b.tr.newSpans(1 << 16)
		}
		c0, rt0 := readCounters(db.Metrics()), readRT()
		start := obs.Monotonic()
		end := start + int64(readWindow)
		now := start
		for now < end {
			for j := 0; j < 64; j++ {
				r.op(&out, sp, round)
			}
			now = obs.Monotonic()
		}
		out.c, out.rt = readCounters(db.Metrics()).sub(c0), readRT().sub(rt0)
		out.ops, out.secs = int64(out.latOf("get").n()+out.latOf("seek").n()), float64(now-start)/1e9
		return out, nil
	})
	if err != nil {
		return err
	}

	m := db.Metrics()
	s := shapeOf(db)
	var c counters
	for _, rd := range plain {
		c.add(rd.c)
	}
	hit := c[cCacheHits] / (c[cCacheHits] + c[cCacheMisses])
	b.guard(hit < 0.5, "block-cache hit ratio %.3f: the store fits the cache", hit)
	b.guard(s.levels() >= 3, "only %d populated levels", s.levels())
	present := 0
	for i := uint64(0); i < readKeys; i++ {
		if b.g.present(i) {
			present++
		}
	}
	writeAmp := (loaderWritten + float64(m.IO.TotalWritten())) / loaderUser
	spaceAmp := float64(s.tableBytes()) / float64(present*entryBytes)
	if b.traced {
		for i := range traced {
			s.record(traced[i].v)
			traced[i].v["tree.space_amp"] = spaceAmp
		}
		b.ladder(b.g.rng(9), nil)
		return b.layers(plain, traced)
	}
	b.endToEnd(plain, "get")
	b.e2e["write_amp"] = writeAmp
	say("read_kops", b.e2e["kops"], "kops", len(plain))
	say("cache.get_hit_ratio", hit, "ratio", 0)
	say("write_amp", writeAmp, "ratio", 0)
	say("space_amp", spaceAmp, "ratio", 0)
	return nil
}

// buildReadStore loads the present keys of the read key space in lockstep,
// in the fixed readStore order, into a fresh filesystem and returns it
// with the loader's bytes written and user bytes.
func (b *bench) buildReadStore() (*vfs.MemFS, float64, float64, error) {
	fs := vfs.NewMem()
	o := lockstep(pebblesdb.PresetPebblesDB)
	db, err := openStore(fs, "read", o, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	defer db.Close()
	g := newGen(readStore)
	var idx []uint64
	for _, i := range g.rng(6).Perm(readKeys) {
		if g.present(uint64(i)) {
			idx = append(idx, uint64(i))
		}
	}
	if err := b.load(db, g, idx, lockstepBatch(o), 6, newLat(len(idx)), nil, 0); err != nil {
		return nil, 0, 0, err
	}
	m := db.Metrics()
	return fs, float64(m.IO.TotalWritten()), float64(m.UserBytesWritten), db.Close()
}

// reader issues the read workload's operations and checks every result
// against the model: present keys hold version 1.
type reader struct {
	b      *bench
	db     *pebblesdb.DB
	sorted []uint64
	rng    *rand.Rand
	kb, vb []byte
}

func (r *reader) op(out *roundOut, sp *spans, round int) {
	if r.kb == nil {
		r.kb, r.vb = make([]byte, keySize), make([]byte, 0, valueSize)
	}
	i := uint64(r.rng.Int63n(readKeys))
	key := r.b.g.key(r.kb, i)
	if r.rng.Intn(10) != 0 {
		s := obs.Monotonic()
		v, found, err := r.db.GetTo(key, r.vb, nil)
		e := obs.Monotonic()
		out.latOf("get").add(e - s)
		sp.add(spGet, round, s, e)
		want := uint64(0)
		if r.b.g.present(i) {
			want = 1
		}
		r.b.opErr(checkGet(i, v, found, err, want, want))
		return
	}
	s := obs.Monotonic()
	it, err := r.db.NewIter(nil)
	if err != nil {
		r.b.opErr(err)
		return
	}
	t1 := obs.Monotonic()
	it.SeekGE(key)
	t2 := obs.Monotonic()
	sp.add(spIterOpen, round, s, t1)
	sp.add(spSeek, round, t1, t2)
	pos := r.b.g.seekPos(r.sorted, i)
	var bad error
	for n := 0; n <= scanLen && bad == nil; n++ {
		if n > 0 {
			t := obs.Monotonic()
			it.Next()
			sp.add(spNext, round, t, obs.Monotonic())
		}
		bad = r.checkEntry(it, pos+n)
	}
	t3 := obs.Monotonic()
	if err := it.Close(); err != nil && bad == nil {
		bad = err
	}
	e := obs.Monotonic()
	sp.add(spIterClose, round, t3, e)
	out.latOf("seek").add(e - s)
	r.b.opErr(bad)
}

// checkEntry checks the iterator holds the model's entry at position pos
// of the sorted keys (or is exhausted past the end).
func (r *reader) checkEntry(it *pebblesdb.Iterator, pos int) error {
	if pos >= len(r.sorted) {
		if it.Valid() {
			return fmt.Errorf("range query: entry past the last key")
		}
		return nil
	}
	want := r.sorted[pos]
	if !it.Valid() {
		return fmt.Errorf("range query: ended before key %d: %v", want, it.Error())
	}
	if !bytes.Equal(it.Key(), r.b.g.key(r.kb, want)) {
		return fmt.Errorf("range query: got key %x, want key %d", it.Key(), want)
	}
	ver, err := checkValue(want, it.Value())
	if err == nil && ver != 1 {
		err = fmt.Errorf("range query: key %d version %d, want 1", want, ver)
	}
	return err
}

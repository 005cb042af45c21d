package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"pebblesdb/internal/base"
	"pebblesdb/internal/cache"
	"pebblesdb/internal/compress"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/memtable"
	"pebblesdb/internal/server"
	"pebblesdb/internal/sstable"
	"pebblesdb/internal/vfs"
	"pebblesdb/internal/wal"
)

// The ladder times direct calls into one layer's exported functions with
// the workload's own keys and values, so a change in an end-to-end number
// can be pinned on a layer.
const (
	ladderKeys   = 20_000
	ladderSyncs  = 2_000
	ladderPings  = 2_000
	guardTables  = 4 // tables merged by the iterator rung, as in one guard
	ladderRounds = 3 // each rung reports the median of this many passes
)

// ladder runs every rung and stores the results in b.layer; ping, when
// non-nil, is a server client for the RPC rung.
func (b *bench) ladder(rng *rand.Rand, ping *server.Client) {
	idx := make([]uint64, ladderKeys)
	for j := range idx {
		idx[j] = uint64(rng.Int63())
	}
	vs := b.g.values(9)
	keys := make([][]byte, ladderKeys)
	vals := make([][]byte, ladderKeys)
	for j, i := range idx {
		keys[j] = b.g.key(make([]byte, keySize), i)
		vals[j] = value(make([]byte, valueSize), vs, i, 1)
	}
	rung := func(name string, fn func() (float64, error)) {
		xs := make([]float64, 0, ladderRounds)
		for p := 0; p < ladderRounds; p++ {
			v, err := fn()
			b.opErr(err)
			xs = append(xs, v)
		}
		b.layer[name] = median(xs)
	}
	rung("memtable.set_ns", func() (float64, error) { v, _, err := memtableRung(keys, vals); return v, err })
	rung("memtable.get_ns", func() (float64, error) { _, v, err := memtableRung(keys, vals); return v, err })
	rung("wal.append_sync_us", func() (float64, error) { return walRung(keys, vals) })
	tables, err := buildTables(keys, vals)
	b.opErr(err)
	if err == nil {
		rung("sstable.get_ns", func() (float64, error) { return sstGetRung(tables[0], keys) })
		rung("block.seek_ns", func() (float64, error) { return seekRung(tables[0], keys) })
		rung("iterator.merging_next_ns", func() (float64, error) { return mergingRung(tables[1:], ladderKeys) })
	}
	if ping != nil {
		rung("server.ping_rtt_us", func() (float64, error) {
			start := time.Now()
			for p := 0; p < ladderPings; p++ {
				if err := ping.Ping(); err != nil {
					return 0, err
				}
			}
			return float64(time.Since(start).Nanoseconds()) / ladderPings / 1e3, nil
		})
	}
}

// memtableRung inserts every pair into a fresh memtable and reads each
// back, returning ns per Set and per GetSearch.
func memtableRung(keys, vals [][]byte) (setNs, getNs float64, err error) {
	m := memtable.New()
	start := time.Now()
	for j := range keys {
		m.Set(keys[j], base.SeqNum(j+1), base.KindSet, vals[j])
	}
	setNs = float64(time.Since(start).Nanoseconds()) / float64(len(keys))
	search := make([]byte, 0, keySize+8)
	start = time.Now()
	for j := range keys {
		search = base.MakeSearchKey(search[:0], keys[j], base.MaxSeqNum)
		v, _, _, found := m.GetSearch(search)
		if !found || !bytes.Equal(v, vals[j]) {
			return 0, 0, fmt.Errorf("memtable rung: key %d read back wrong", j)
		}
	}
	getNs = float64(time.Since(start).Nanoseconds()) / float64(len(keys))
	return setNs, getNs, nil
}

// walRung appends one key+value record and waits for its sync, per
// iteration, on an in-memory file; returns microseconds per append+sync.
func walRung(keys, vals [][]byte) (float64, error) {
	f, err := vfs.NewMem().Create("ladder.log")
	if err != nil {
		return 0, err
	}
	w := wal.NewWriter(f)
	rec := make([]byte, 0, entryBytes)
	start := time.Now()
	for j := 0; j < ladderSyncs; j++ {
		rec = append(append(rec[:0], keys[j]...), vals[j]...)
		if err := w.AddRecord(rec); err != nil {
			return 0, err
		}
		if err := w.SyncWait(); err != nil {
			return 0, err
		}
	}
	us := float64(time.Since(start).Nanoseconds()) / ladderSyncs / 1e3
	return us, w.Close()
}

// table is one sstable of the ladder and the sorted keys it holds.
type table struct {
	r    *sstable.Reader
	keys [][]byte
}

// buildTables writes the pairs into one table holding all of them,
// followed by guardTables tables that split them at random, as the
// overlapping tables of one FLSM guard do.
func buildTables(keys, vals [][]byte) ([]table, error) {
	fs := vfs.NewMem()
	bc := cache.New(64<<20, nil)
	order := make([]int, len(keys))
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool { return bytes.Compare(keys[order[a]], keys[order[b]]) < 0 })
	parts := make([][]int, 1+guardTables)
	parts[0] = order
	for _, j := range order {
		p := 1 + int(keys[j][keySize-1])%guardTables
		parts[p] = append(parts[p], j)
	}
	var out []table
	for t, part := range parts {
		name := fmt.Sprintf("%06d.sst", t+1)
		f, err := fs.Create(name)
		if err != nil {
			return nil, err
		}
		w := sstable.NewWriter(f, sstable.WriterOptions{BlockSize: 4 << 10, BloomBitsPerKey: 10, Compression: compress.Snappy})
		ik := make([]byte, 0, keySize+8)
		tk := make([][]byte, 0, len(part))
		for _, j := range part {
			ik = base.MakeInternalKey(ik[:0], keys[j], base.SeqNum(j+1), base.KindSet)
			if err := w.Add(ik, vals[j]); err != nil {
				return nil, err
			}
			tk = append(tk, keys[j])
		}
		if _, err := w.Finish(); err != nil {
			return nil, err
		}
		rf, err := fs.Open(name)
		if err != nil {
			return nil, err
		}
		size, err := fs.Stat(name)
		if err != nil {
			return nil, err
		}
		r, err := sstable.Open(rf, size, base.FileNum(t+1), bc, &sstable.CodecStats{})
		if err != nil {
			return nil, err
		}
		out = append(out, table{r: r, keys: tk})
	}
	return out, nil
}

// sstGetRung probes the table for each of its keys in insertion order
// (random in key order) and returns ns per Reader.GetScratched.
func sstGetRung(t table, keys [][]byte) (float64, error) {
	s := &sstable.GetScratch{}
	start := time.Now()
	for _, k := range keys {
		s.SearchKey = base.MakeSearchKey(s.SearchKey[:0], k, base.MaxSeqNum)
		_, _, _, found, err := t.r.GetScratched(s.SearchKey, s)
		if err != nil {
			return 0, err
		}
		if !found {
			return 0, fmt.Errorf("sstable rung: key %x not found", k)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(keys)), nil
}

// seekRung positions one table iterator at each key and returns ns per
// TableIter.SeekGE.
func seekRung(t table, keys [][]byte) (float64, error) {
	it := t.r.NewIter()
	search := make([]byte, 0, keySize+8)
	start := time.Now()
	for _, k := range keys {
		search = base.MakeSearchKey(search[:0], k, base.MaxSeqNum)
		it.SeekGE(search)
		if !it.Valid() || !bytes.Equal(base.UserKey(it.Key()), k) {
			it.Close()
			return 0, fmt.Errorf("seek rung: key %x not found", k)
		}
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(len(keys))
	return ns, it.Close()
}

// mergingRung merges one iterator per table and steps through all n
// entries, returning ns per Next.
func mergingRung(ts []table, n int) (float64, error) {
	kids := make([]iterator.Iterator, len(ts))
	for j, t := range ts {
		kids[j] = t.r.NewIter()
	}
	m := iterator.NewMerging(base.InternalCompare, kids...)
	start := time.Now()
	got := 0
	var prev []byte
	for m.First(); m.Valid(); m.Next() {
		k := base.UserKey(m.Key())
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			m.Close()
			return 0, fmt.Errorf("merging rung: keys out of order")
		}
		prev = append(prev[:0], k...)
		got++
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(got)
	if err := m.Close(); err != nil {
		return 0, err
	}
	if got != n {
		return 0, fmt.Errorf("merging rung: %d entries, want %d", got, n)
	}
	return ns, nil
}

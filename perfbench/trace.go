package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"pebblesdb"
	"pebblesdb/internal/obs"
	"pebblesdb/internal/vfs"
)

// Span kinds. Foreground spans wrap each public call the generator makes;
// background spans come from Options.EventListener end events.
const (
	spPut uint8 = iota
	spGet
	spIterOpen
	spSeek
	spNext
	spIterClose
	spRPCGet
	spRPCPut
	spRPCScan
	spFlush
	spCompaction
	spStall
	spWALStall
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"put", "get", "iter-open", "seek", "next", "iter-close",
	"rpc-get", "rpc-put", "rpc-scan",
	"flush", "compaction", "write-stall", "wal-sync-stall",
}

// span is one timed interval on the obs.Monotonic clock.
type span struct {
	kind       uint8
	round      uint16
	start, end int64
}

// spans is one goroutine's foreground span buffer; nil records nothing.
type spans struct{ s []span }

func (b *spans) add(kind uint8, round int, start, end int64) {
	if b != nil {
		b.s = append(b.s, span{kind: kind, round: uint16(round), start: start, end: end})
	}
}

// tracer keeps every span of a traced run in memory and implements
// obs.Listener for the background spans.
type tracer struct {
	mu    sync.Mutex
	round int
	bg    []span
	fg    []*spans
	// episodes counts write-stall and WAL sync-stall episodes per kind.
	episodes [numSpanKinds]int
}

// Notify records one background span per end event (the end event
// carries the duration, so no begin/end pairing state is kept).
func (t *tracer) Notify(e obs.Event) {
	var kind uint8
	switch e.Kind {
	case obs.EventFlushEnd:
		kind = spFlush
	case obs.EventCompactionEnd:
		kind = spCompaction
	case obs.EventWriteStallEnd:
		kind = spStall
	case obs.EventWALSyncStall:
		kind = spWALStall
	default:
		return
	}
	t.mu.Lock()
	t.bg = append(t.bg, span{kind: kind, round: uint16(t.round), start: e.Nanos - int64(e.Dur), end: e.Nanos})
	t.episodes[kind]++
	t.mu.Unlock()
}

// newSpans returns a foreground buffer owned by one goroutine.
func (t *tracer) newSpans(capacity int) *spans {
	if t == nil {
		return nil
	}
	b := &spans{s: make([]span, 0, capacity)}
	t.mu.Lock()
	t.fg = append(t.fg, b)
	t.mu.Unlock()
	return b
}

func (t *tracer) setRound(r int) {
	t.mu.Lock()
	t.round = r
	t.mu.Unlock()
}

func (t *tracer) listener() obs.Listener {
	if t == nil {
		return nil
	}
	return t
}

// all returns every span, background and foreground, sorted by start.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.bg...)
	for _, b := range t.fg {
		out = append(out, b.s...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].start < out[b].start })
	return out
}

// busy sums the durations of spans of one kind, in seconds.
func busy(all []span, kind uint8) float64 {
	var ns int64
	for _, s := range all {
		if s.kind == kind {
			ns += s.end - s.start
		}
	}
	return float64(ns) / 1e9
}

// selfTime splits the spans of one foreground kind into self time and the
// part covered by blocking background spans (write stalls and WAL sync
// stalls), which is charged to the engine. Both are in microseconds per
// span.
func selfTime(all []span, kind uint8) (self, covered float64) {
	var blockers []span
	for _, s := range all {
		if s.kind == spStall || s.kind == spWALStall {
			blockers = append(blockers, s)
		}
	}
	var n, total, cov int64
	for _, s := range all {
		if s.kind != kind {
			continue
		}
		n++
		total += s.end - s.start
		// blockers is sorted by start; only those starting before s.end
		// can overlap.
		hi := sort.Search(len(blockers), func(i int) bool { return blockers[i].start >= s.end })
		for _, b := range blockers[:hi] {
			lo, up := max(b.start, s.start), min(b.end, s.end)
			if up > lo {
				cov += up - lo
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(total-cov) / float64(n) / 1e3, float64(cov) / float64(n) / 1e3
}

// write stores every span as CSV (kind,round,start_ns,end_ns) under the
// checkout's build directory, so a traced run can be inspected afterwards.
func (t *tracer) write(all []span, name string) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "kind,round,start_ns,end_ns")
	for _, s := range all {
		fmt.Fprintf(w, "%s,%d,%d,%d\n", spanNames[s.kind], s.round, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// Counter indices: the subset of DB.Metrics the per-layer metrics are
// derived from.
const (
	cStallNs = iota
	cWALBytes
	cWALSyncs
	cSyncCommits
	cGroups
	cBatches
	cCommitWaitNs
	cCommits
	cGets
	cIterators
	cProbed
	cBloomNeg
	cBloomFP
	cCacheHits
	cCacheMisses
	cTCHits
	cTCMisses
	cIterTables
	cDecompressNs
	cUnits
	cClaimStallNs
	cBytesIn
	cBytesOut
	cSeekCompactions
	cEncodeNs
	cLogical
	cPhysical
	cTableRead
	cUserBytes
	nCounters
)

// counters holds DB.Metrics counters as float64, so intervals subtract
// and shards add.
type counters [nCounters]float64

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// ratio returns c[a]/c[b], or 0 when the base is 0.
func (c counters) ratio(a, b int) float64 {
	if c[b] == 0 {
		return 0
	}
	return c[a] / c[b]
}

func readCounters(m pebblesdb.Metrics) counters {
	var commits int64
	for _, n := range m.CommitWaitHist {
		commits += n
	}
	t := m.Tree
	var c counters
	for i, v := range []int64{
		cStallNs:  m.StallNanos,
		cWALBytes: m.WALBytes, cWALSyncs: m.WALSyncs, cSyncCommits: m.SyncCommits,
		cGroups: m.CommitGroups, cBatches: m.CommitBatches,
		cCommitWaitNs: m.CommitWaitNanos, cCommits: commits,
		cGets: m.Gets, cIterators: m.Iterators, cProbed: m.GetTablesProbed,
		cBloomNeg: m.GetBloomNegatives, cBloomFP: m.GetBloomFalsePositives,
		cCacheHits: m.GetBlockCacheHits, cCacheMisses: m.GetBlockCacheMisses,
		cTCHits: m.Cache.Hits, cTCMisses: m.Cache.Misses,
		cIterTables: m.IterTablesOpened, cDecompressNs: m.Cache.DecompressNanos,
		cUnits: t.CompactionUnits, cClaimStallNs: t.ClaimStallNanos,
		cBytesIn: t.BytesCompactedIn, cBytesOut: t.BytesCompactedOut,
		cSeekCompactions: t.SeekCompactions,
		cEncodeNs:        t.Compression.CompressNanos,
		cLogical:         t.Compression.LogicalDataBytes, cPhysical: t.Compression.PhysicalDataBytes,
		cTableRead: m.IO.BytesRead[vfs.CatTable],
		cUserBytes: m.UserBytesWritten,
	} {
		c[i] = float64(v)
	}
	return c
}

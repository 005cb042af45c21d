package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pebblesdb"
	"pebblesdb/internal/obs"
	"pebblesdb/internal/server"
	"pebblesdb/internal/vfs"
)

// serve: internal/server in process with two shards on a loopback
// listener. Two connections, one request in flight each, send Zipfian
// requests: 50% Get, 45% sync Put, 5% Scan of 10. A traced run also
// steps an open loop up through fixed rates, timing each request from
// when it was due, to find the highest rate whose p99 stays within the
// latency limit.
const (
	serveKeys      = 100_000 // key space; about 90% present and preloaded
	serveShards    = 2
	serveConns     = 2
	serveMemory    = 256 << 20 // Tuned budget per shard: a 64 MiB memtable, a 128 MiB block cache
	serveSetups    = 3
	serveWarm      = time.Second
	serveWindow    = time.Second
	serveZipf      = 0.99
	sloLimit       = time.Millisecond
	sloFirstRate   = 2_000
	sloRateStep    = 2_000
	sloStep        = 500 * time.Millisecond
	preloadBatch   = 200
	maxOutstanding = 4096 // per connection; bounds the open loop's queue
)

const (
	opGet uint8 = iota
	opPut
	opScan
)

// cluster is the serve workload's server, its shards and connections.
type cluster struct {
	shards []*pebblesdb.DB
	srv    *server.Server
	ln     net.Listener
	conns  []*serveConn
	ping   *server.Client
	served chan error
}

// serveConn is one connection with two Clients over it. The closed loop
// drives send synchronously from one goroutine. The open loop's sender
// writes through send while the connection's receiver reads responses
// through recv, so the two goroutines never share client state.
type serveConn struct {
	nc         net.Conn
	send, recv *server.Client
}

// sent is one request in flight.
type sent struct {
	op      uint8
	idx     uint64
	ver     uint64 // put: version written; get: version acknowledged at send
	pos     int    // scan: position of the first expected key
	due, at int64
	acked   [scanLen]uint64 // scan: versions acknowledged at send
}

// rec is one completed request.
type rec struct {
	op     uint8
	due    int64
	latNs  int64 // from due time to response
	lateNs int64 // from due time to send
}

// model is what the checks compare against: per key, the last version
// issued and the last version acknowledged. Only connection
// idx%serveConns writes key idx, so each key's versions are acknowledged
// in order.
type model struct {
	issued, acked []atomic.Uint64
	sorted        []uint64
}

func runServe(b *bench) error {
	m := &model{
		issued: make([]atomic.Uint64, serveKeys),
		acked:  make([]atomic.Uint64, serveKeys),
		sorted: b.g.sortedKeys(serveKeys),
	}
	var cl *cluster
	for s := 0; s < serveSetups; s++ {
		if cl != nil {
			if err := cl.close(); err != nil {
				return err
			}
		}
		for i := range m.issued {
			m.issued[i].Store(0)
			m.acked[i].Store(0)
		}
		err := b.timeSetup(func() error {
			var err error
			cl, err = b.startCluster(m)
			return err
		})
		if err != nil {
			if cl != nil {
				cl.close()
			}
			return err
		}
	}
	err := b.serveMeasure(cl, m)
	if cerr := cl.close(); err == nil {
		err = cerr
	}
	return err
}

func (b *bench) startCluster(m *model) (*cluster, error) {
	cl := &cluster{served: make(chan error, 1)}
	for s := 0; s < serveShards; s++ {
		o := pebblesdb.PresetPebblesDB.Options().Tuned(serveMemory)
		db, err := openStore(vfs.NewMem(), fmt.Sprintf("shard%d", s), o, b.tr.listener())
		if err != nil {
			return cl, err
		}
		cl.shards = append(cl.shards, db)
	}
	cl.srv = server.New(cl.shards, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cl, err
	}
	cl.ln = ln
	go func() { cl.served <- cl.srv.Serve(ln) }()
	for c := 0; c < serveConns; c++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return cl, err
		}
		cl.conns = append(cl.conns, &serveConn{nc: nc, send: server.NewClient(nc), recv: server.NewClient(nc)})
	}
	if cl.ping, err = server.Dial(ln.Addr().String()); err != nil {
		return cl, err
	}

	// Preload version 1 of every present key through the server, then
	// flush it into tables and pull it into the block caches.
	vs := b.g.values(7)
	var ops []server.BatchOp
	for i := uint64(0); i < serveKeys; i++ {
		if !b.g.present(i) {
			continue
		}
		ops = append(ops, server.BatchOp{
			Kind: server.BatchSet,
			Key:  b.g.key(make([]byte, keySize), i),
			Val:  value(make([]byte, valueSize), vs, i, 1),
		})
		m.issued[i].Store(1)
		m.acked[i].Store(1)
		if len(ops) == preloadBatch {
			if err := cl.ping.ApplyBatch(ops, 0); err != nil {
				return cl, fmt.Errorf("preload: %w", err)
			}
			ops = ops[:0]
		}
	}
	if len(ops) > 0 {
		if err := cl.ping.ApplyBatch(ops, 0); err != nil {
			return cl, fmt.Errorf("preload: %w", err)
		}
	}
	kb, vb := make([]byte, keySize), make([]byte, 0, valueSize)
	for _, db := range cl.shards {
		if err := db.Flush(); err != nil {
			return cl, err
		}
		if err := db.WaitIdle(); err != nil {
			return cl, err
		}
		for i := uint64(0); i < serveKeys; i++ {
			if _, _, err := db.GetTo(b.g.key(kb, i), vb, nil); err != nil {
				return cl, err
			}
		}
	}
	return cl, nil
}

func (cl *cluster) close() error {
	var errs []error
	if cl.ping != nil {
		cl.ping.Close()
	}
	for _, c := range cl.conns {
		c.nc.Close()
	}
	if cl.srv != nil {
		errs = append(errs, cl.srv.Close())
		if cl.ln != nil {
			if err := <-cl.served; err != nil && !errors.Is(err, net.ErrClosed) {
				errs = append(errs, err)
			}
		}
	}
	for _, db := range cl.shards {
		errs = append(errs, db.Close())
	}
	return errors.Join(errs...)
}

func (cl *cluster) metrics() pebblesdb.Metrics {
	var agg pebblesdb.Metrics
	for i, db := range cl.shards {
		if i == 0 {
			agg = db.Metrics()
		} else {
			agg.Merge(db.Metrics())
		}
	}
	return agg
}

// openLoop offers rate ops/s, spread round-robin over the connections,
// for d and returns every completed request. One sender goroutine issues
// all requests on schedule; one receiver per connection checks the
// responses. traced(due) selects the requests recorded as spans.
func (b *bench) openLoop(cl *cluster, m *model, rate int, d time.Duration, stream int64, traced func(due int64) bool) ([]rec, error) {
	var wg sync.WaitGroup
	recs := make([][]rec, len(cl.conns))
	errs := make([]error, len(cl.conns)+1)
	interval := int64(time.Second) / int64(rate)
	n := int(d.Nanoseconds() / interval)
	qs := make([]chan sent, len(cl.conns))
	for c, conn := range cl.conns {
		qs[c] = make(chan sent, maxOutstanding)
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[c], errs[c] = b.receiver(conn, m, qs[c], n/len(cl.conns)+1, traced)
		}()
	}
	errs[len(cl.conns)] = b.sender(cl, m, qs, obs.Monotonic()+int64(time.Millisecond), interval, n, stream)
	for _, q := range qs {
		close(q)
	}
	wg.Wait()
	var all []rec
	for _, r := range recs {
		all = append(all, r...)
	}
	return all, errors.Join(errs...)
}

// sender issues n requests, the k-th due at first+k*interval on
// connection k%len(qs), and hands each to that connection's receiver.
func (b *bench) sender(cl *cluster, m *model, qs []chan sent, first, interval int64, n int, stream int64) error {
	rng := b.g.rng(100 + stream)
	z := newZipf(rng, serveKeys, serveZipf)
	vs := b.g.values(100 + stream)
	kb, vb := make([]byte, keySize), make([]byte, valueSize)
	dirty := make([]bool, len(qs))
	flush := func() error {
		for c, d := range dirty {
			if d {
				if err := cl.conns[c].send.Flush(); err != nil {
					return err
				}
				dirty[c] = false
			}
		}
		return nil
	}
	for k := 0; k < n; {
		due := first + int64(k)*interval
		if wait := due - obs.Monotonic(); wait > 0 {
			if err := flush(); err != nil {
				return err
			}
			sleepFine(time.Duration(wait))
			continue
		}
		c := k % len(qs)
		send := cl.conns[c].send
		s := sent{idx: z.next(), due: due}
		var err error
		switch p := rng.Intn(100); {
		case p < 50:
			s.op = opGet
			s.ver = m.acked[s.idx].Load()
			err = send.SendGet(b.g.key(kb, s.idx))
		case p < 95:
			s.op = opPut
			s.idx = m.owned(b.g, s.idx, c)
			s.ver = m.issued[s.idx].Load() + 1
			m.issued[s.idx].Store(s.ver)
			err = send.SendPut(b.g.key(kb, s.idx), value(vb, vs, s.idx, s.ver), server.FlagSync)
		default:
			s.op = opScan
			s.pos = b.g.seekPos(m.sorted, s.idx)
			for j := 0; j < scanLen && s.pos+j < len(m.sorted); j++ {
				s.acked[j] = m.acked[m.sorted[s.pos+j]].Load()
			}
			err = send.SendScan(b.g.key(kb, s.idx), nil, scanLen)
		}
		if err != nil {
			return err
		}
		dirty[c] = true
		s.at = obs.Monotonic()
		qs[c] <- s
		k++
	}
	return flush()
}

// owned moves idx to the nearest present key at or after it that
// connection c writes.
func (m *model) owned(g *gen, idx uint64, c int) uint64 {
	idx = idx - idx%serveConns + uint64(c)
	for !g.present(idx) || idx >= serveKeys {
		idx += serveConns
		if idx >= serveKeys {
			idx = uint64(c)
		}
	}
	return idx
}

// receiver checks the responses to the requests in q, in order.
func (b *bench) receiver(conn *serveConn, m *model, q <-chan sent, n int, traced func(due int64) bool) ([]rec, error) {
	recs := make([]rec, 0, n)
	kb := make([]byte, keySize)
	var sp *spans
	if traced != nil {
		sp = b.tr.newSpans(n)
	}
	for s := range q {
		resp, err := conn.recv.Recv()
		now := obs.Monotonic()
		if err != nil {
			// The connection is broken: count this and every request still
			// queued behind it as failed.
			b.opErr(err)
			for range q {
				b.opErr(err)
			}
			return recs, err
		}
		recs = append(recs, rec{op: s.op, due: s.due, latNs: now - s.due, lateNs: s.at - s.due})
		if sp != nil && traced(s.due) {
			sp.add(spRPCGet+s.op, 0, s.at, now)
		}
		var bad error
		switch s.op {
		case opGet:
			lo := s.ver
			var val []byte
			found := resp.Status == server.StatusOK
			if found {
				val = resp.Val
			} else if resp.Status != server.StatusNotFound {
				bad = fmt.Errorf("get %d: %v", s.idx, resp.Err())
				break
			}
			bad = checkGet(s.idx, val, found, nil, lo, m.issued[s.idx].Load())
		case opPut:
			if bad = resp.Err(); bad == nil {
				m.acked[s.idx].Store(s.ver)
			}
		case opScan:
			bad = b.checkScan(m, s, resp, kb)
		}
		b.opErr(bad)
	}
	return recs, nil
}

// checkScan checks a Scan response against the sorted key model and the
// versions acknowledged before the request was sent.
func (b *bench) checkScan(m *model, s sent, resp server.Response, kb []byte) error {
	if resp.Status != server.StatusOK {
		return fmt.Errorf("scan: %v", resp.Err())
	}
	kvs, err := server.ParsePairs(resp.Val)
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	return b.checkPairs(m, s, kvs, kb)
}

// checkPairs checks scan results against the sorted key model and the
// versions acknowledged before the request was sent.
func (b *bench) checkPairs(m *model, s sent, kvs []server.KV, kb []byte) error {
	want := min(scanLen, len(m.sorted)-s.pos)
	if len(kvs) != want {
		return fmt.Errorf("scan from %d: %d pairs, want %d", s.idx, len(kvs), want)
	}
	for j, kv := range kvs {
		i := m.sorted[s.pos+j]
		if !bytes.Equal(kv.Key, b.g.key(kb, i)) {
			return fmt.Errorf("scan from %d: pair %d is key %x, want key %d", s.idx, j, kv.Key, i)
		}
		ver, err := checkValue(i, kv.Val)
		if err != nil {
			return fmt.Errorf("scan: %w", err)
		}
		if ver < s.acked[j] || ver > m.issued[i].Load() {
			return fmt.Errorf("scan: key %d version %d, want %d..%d", i, ver, s.acked[j], m.issued[i].Load())
		}
	}
	return nil
}

// closedLoop runs one synchronous client per connection for d, each
// sending its next request when the previous one has been answered, and
// returns every completed request with due set to its send time.
// traced(due) selects the requests recorded as spans.
func (b *bench) closedLoop(cl *cluster, m *model, d time.Duration, stream int64, traced func(due int64) bool) ([]rec, error) {
	var wg sync.WaitGroup
	recs := make([][]rec, len(cl.conns))
	errs := make([]error, len(cl.conns))
	end := obs.Monotonic() + d.Nanoseconds()
	for c, conn := range cl.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[c], errs[c] = b.client(conn.send, m, c, end, stream, traced)
		}()
	}
	wg.Wait()
	var all []rec
	for _, r := range recs {
		all = append(all, r...)
	}
	return all, errors.Join(errs...)
}

// client issues connection c's requests until end and checks each reply.
func (b *bench) client(cli *server.Client, m *model, c int, end int64, stream int64, traced func(due int64) bool) ([]rec, error) {
	rng := b.g.rng(200 + 16*stream + int64(c))
	z := newZipf(rng, serveKeys, serveZipf)
	vs := b.g.values(200 + 16*stream + int64(c))
	kb, vb := make([]byte, keySize), make([]byte, valueSize)
	var sp *spans
	if traced != nil {
		sp = b.tr.newSpans(1 << 16)
	}
	recs := make([]rec, 0, 1<<16)
	for now := obs.Monotonic(); now < end; {
		idx := z.next()
		var op uint8
		var bad error
		switch p := rng.Intn(100); {
		case p < 50:
			op = opGet
			lo := m.acked[idx].Load()
			v, found, err := cli.Get(b.g.key(kb, idx))
			if err != nil {
				return recs, err
			}
			bad = checkGet(idx, v, found, nil, lo, m.issued[idx].Load())
		case p < 95:
			op = opPut
			idx = m.owned(b.g, idx, c)
			ver := m.issued[idx].Load() + 1
			m.issued[idx].Store(ver)
			bad = cli.Put(b.g.key(kb, idx), value(vb, vs, idx, ver), server.FlagSync)
			if bad == nil {
				m.acked[idx].Store(ver)
			}
		default:
			op = opScan
			s := sent{idx: idx, pos: b.g.seekPos(m.sorted, idx)}
			for j := 0; j < scanLen && s.pos+j < len(m.sorted); j++ {
				s.acked[j] = m.acked[m.sorted[s.pos+j]].Load()
			}
			kvs, err := cli.Scan(b.g.key(kb, idx), nil, scanLen)
			if err != nil {
				return recs, err
			}
			bad = b.checkPairs(m, s, kvs, kb)
		}
		e := obs.Monotonic()
		recs = append(recs, rec{op: op, due: now, latNs: e - now})
		if sp != nil && traced(now) {
			sp.add(spRPCGet+op, 0, now, e)
		}
		b.opErr(bad)
		now = e
	}
	return recs, nil
}

// windows splits records into windows of length win by due time, starting
// at start, one round per window.
func windows(recs []rec, start int64, win time.Duration, n int) []roundOut {
	rounds := make([]roundOut, n)
	for w := range rounds {
		rounds[w] = newRound()
		rounds[w].secs = win.Seconds()
	}
	for _, r := range recs {
		w := int((r.due - start) / int64(win))
		w = max(0, min(w, n-1))
		out := &rounds[w]
		out.ops++
		out.latOf("all").add(r.latNs)
		out.latOf([...]string{"get", "put", "seek"}[r.op]).add(r.latNs)
	}
	return rounds
}

// serveMeasure warms up and runs the closed-loop phase in one-second
// windows; a traced run then steps an open loop up through fixed rates.
func (b *bench) serveMeasure(cl *cluster, m *model) error {
	if _, err := b.closedLoop(cl, m, serveWarm, 0, nil); err != nil {
		return err
	}
	d := b.dur
	if b.traced {
		d = d * 6 / 10
	}
	n := max(2, int(d/serveWindow))
	var start int64
	traced := func(due int64) bool { return b.traced && int((due-start)/int64(serveWindow))%2 == 1 }
	c0, rt0 := readCounters(cl.metrics()), readRT()
	start = obs.Monotonic()
	recs, err := b.closedLoop(cl, m, time.Duration(n)*serveWindow, 1, traced)
	if err != nil {
		return err
	}
	c, rt := readCounters(cl.metrics()).sub(c0), readRT().sub(rt0)
	// The memtables hold every put of the run, so memory peaks here. A
	// forced collection measures it exactly; the sampled peak swung from
	// 276 to 451 MB between runs, since at this heap size collections
	// are few and each counts whatever garbage it happens to retain.
	memEnd := liveMB()
	rounds := windows(recs, start, serveWindow, n)
	hit := c[cCacheHits] / (c[cCacheHits] + c[cCacheMisses])
	b.guard(hit >= 0.95, "block-cache hit ratio %.3f: the data no longer fits the cache", hit)

	agg := cl.metrics()
	var tableBytes int64
	for _, db := range cl.shards {
		if err := db.Flush(); err != nil {
			return err
		}
		if err := db.WaitIdle(); err != nil {
			return err
		}
		tableBytes += shapeOf(db).tableBytes()
	}
	writeAmp := agg.WriteAmplification()
	spaceAmp := float64(tableBytes) / float64(len(m.sorted)*entryBytes)

	if b.traced {
		var plain, traced []roundOut
		for w := range rounds {
			if w%2 == 1 {
				traced = append(traced, rounds[w])
			} else {
				plain = append(plain, rounds[w])
			}
		}
		// Counter deltas cover the whole phase; charge them to the traced
		// windows as if spread evenly.
		k := float64(len(traced))
		for w := range traced {
			for i := range c {
				traced[w].c[i] = c[i] / k
			}
			traced[w].rt = rtStats{mallocs: uint64(float64(rt.mallocs) / k), pauseNs: uint64(float64(rt.pauseNs) / k)}
			traced[w].v["tree.space_amp"] = spaceAmp
		}
		slo, late, err := b.sloRate(cl, m)
		if err != nil {
			return err
		}
		b.ladder(b.g.rng(9), cl.ping)
		if err := b.layers(plain, traced); err != nil {
			return err
		}
		b.layer["op.slo_kops"] = slo
		b.layer["loadgen.late_p99_us"] = late
		// A put's client latency less the engine's commit wait is the time
		// it spends in the client, the network and the server.
		var puts lat
		for _, r := range traced {
			puts.merge(r.latOf("put"))
		}
		b.layer["server.queue_us"] = puts.meanUs() - b.layer["engine.commit_wait_us"]
		return nil
	}
	b.endToEnd(rounds, "all")
	b.e2e["write_amp"] = writeAmp
	b.e2e["mem_peak_mb"] = memEnd
	say("serve_kops", b.e2e["kops"], "kops", len(rounds))
	say("cache.get_hit_ratio", hit, "ratio", 0)
	say("write_amp", writeAmp, "ratio", 0)
	say("space_amp", spaceAmp, "ratio", 0)
	return nil
}

// sloRate steps an open loop up through fixed rates until the p99 of a
// step, timed from each request's due time, exceeds sloLimit. It returns
// in kops the rate at which p99 crosses the limit, interpolated between
// the last passing and the first failing step, and the p99 of how late
// the generator sent requests over all steps.
func (b *bench) sloRate(cl *cluster, m *model) (float64, float64, error) {
	steps := max(2, int(b.dur*4/10/sloStep))
	limit := float64(sloLimit.Microseconds())
	late := newLat(0)
	prevRate, prevP99 := 0.0, 0.0
	slo := -1.0
	for s := 0; s < steps && slo < 0; s++ {
		rate := sloFirstRate + s*sloRateStep
		recs, err := b.openLoop(cl, m, rate, sloStep, int64(2+s), nil)
		if err != nil {
			return 0, 0, err
		}
		l := newLat(len(recs))
		for _, r := range recs {
			l.add(r.latNs)
			late.add(r.lateNs)
		}
		p99, _ := l.pct(99)
		fmt.Printf("slo step %6d ops/s  p99 %10.1f us\n", rate, p99)
		if p99 > limit {
			slo = (prevRate + (limit-prevP99)/(p99-prevP99)*(float64(rate)-prevRate)) / 1e3
		}
		prevRate, prevP99 = float64(rate), p99
	}
	if slo < 0 {
		slo = prevRate / 1e3
	}
	lp99, _ := late.pct(99)
	return slo, lp99, nil
}

package main

import (
	"fmt"

	"pebblesdb"
	"pebblesdb/internal/obs"
	"pebblesdb/internal/vfs"
)

// fill: one closed-loop writer overwrites uniformly random keys of a fresh
// PebblesDB store while background flushes and parallel compactions race
// it. Each round fills a new store with the same seeded sequence; the
// rate counts the drain to idle, so work deferred to the background still
// counts.
const (
	fillKeys = 250_000
	fillOps  = 250_000
	// fillSample is how many keys are read back after each round.
	fillSample = 5_000
)

func runFill(b *bench) error {
	opts := scaled(pebblesdb.PresetPebblesDB)
	plain, traced, err := b.rounds(func(r int, traced bool) (roundOut, error) {
		return b.fillRound(opts, r, traced)
	})
	if err != nil {
		return err
	}
	if b.traced {
		b.ladder(b.g.rng(9), nil)
		if err := b.layers(plain, traced); err != nil {
			return err
		}
		return b.loadPhase()
	}
	b.endToEnd(plain, "put")
	say("put_kops", b.e2e["kops"], "kops", len(plain))
	say("write_amp", b.e2e["write_amp"], "ratio", len(plain))
	say("space_amp", medianOf(plain, func(r roundOut) float64 { return r.v["tree.space_amp"] }), "ratio", len(plain))
	return nil
}

func (b *bench) fillRound(opts *pebblesdb.Options, r int, traced bool) (roundOut, error) {
	out := newRound()
	var seq []uint64
	var db *pebblesdb.DB
	var l obs.Listener
	if traced {
		l = b.tr
	}
	for rep := 0; rep < setupReps; rep++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return out, err
			}
		}
		err := b.timeSetup(func() error {
			rng := b.g.rng(1)
			seq = make([]uint64, fillOps)
			for j := range seq {
				seq[j] = uint64(rng.Int63n(fillKeys))
			}
			var err error
			db, err = openStore(vfs.NewMem(), "fill", opts, l)
			return err
		})
		if err != nil {
			return out, err
		}
	}
	defer db.Close()

	var sp *spans
	if traced {
		sp = b.tr.newSpans(fillOps)
	}
	model := make([]uint64, fillKeys)
	pl := out.latOf("put")
	vs := b.g.values(1)
	kb, vb := make([]byte, keySize), make([]byte, valueSize)
	c0, rt0 := readCounters(db.Metrics()), readRT()
	t0 := obs.Monotonic()
	for _, i := range seq {
		model[i]++
		key := b.g.key(kb, i)
		val := value(vb, vs, i, model[i])
		s := obs.Monotonic()
		err := db.Put(key, val)
		e := obs.Monotonic()
		pl.add(e - s)
		sp.add(spPut, r, s, e)
		b.opErr(err)
	}
	t1 := obs.Monotonic()
	if err := db.WaitIdle(); err != nil {
		return out, err
	}
	t2 := obs.Monotonic()
	out.c, out.rt = readCounters(db.Metrics()).sub(c0), readRT().sub(rt0)
	out.ops, out.secs = fillOps, float64(t2-t0)/1e9
	out.v["compaction.drain_s"] = float64(t2-t1) / 1e9

	// Untimed: flush the memtable so every live byte sits in a table.
	if err := db.Flush(); err != nil {
		return out, err
	}
	if err := db.WaitIdle(); err != nil {
		return out, err
	}
	m := db.Metrics()
	s := shapeOf(db)
	s.record(out.v)
	distinct := 0
	for _, v := range model {
		if v > 0 {
			distinct++
		}
	}
	out.v["write_amp"] = m.WriteAmplification()
	out.v["tree.space_amp"] = float64(s.tableBytes()) / float64(distinct*entryBytes)
	out.v["compaction.peak_parallelism"] = float64(m.Tree.PeakUnitsInflight)
	last := len(s.files) - 1
	b.guard(last > 0 && s.files[last] > 0, "round %d: no table reached the last level: %v", r, s.files)
	b.guard(m.SlowdownWrites+m.StoppedWrites > 0, "round %d: the writer never stalled", r)

	rng := b.g.rng(2)
	sample := make([]uint64, fillSample)
	for j := range sample {
		sample[j] = uint64(rng.Int63n(fillKeys))
	}
	b.verify(db, sample, func(i uint64) uint64 { return model[i] })
	if err := db.Close(); err != nil {
		return out, fmt.Errorf("close: %w", err)
	}
	return out, nil
}

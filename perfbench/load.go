package main

import (
	"errors"
	"fmt"
	"runtime"

	"pebblesdb"
	"pebblesdb/internal/obs"
	"pebblesdb/internal/vfs"
)

// The load phase: the paper's Fig 1.1 run made exact. The same seeded
// random inserts go into a PebblesDB store and then a HyperLevelDB store,
// each in lockstep (flush and drain every lockstepBatch puts, one
// compaction worker), so the layouts and write amplification are a
// function of the seed alone. It runs in every traced fill run and gives
// the structural per-layer metrics. It is not a workload of its own: its
// rate swung by up to 1.6x between runs of one binary on a shared VM, so
// no bound of 25% could hold on it.
const (
	loadKeys   = 100_000
	loadSample = 5_000
)

// loadPhase loads both stores, checks them after reopening, loads the
// FLSM store a second time and checks that its layout repeats, and
// records the structural metrics of the FLSM store and the leveled one.
func (b *bench) loadPhase() error {
	// Lockstep makes the load serial: the writer waits while the flush or
	// the single compaction worker runs. A second P only adds cross-CPU
	// wake-ups; the layout does not depend on it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	flsmOpts := lockstep(pebblesdb.PresetPebblesDB)
	levOpts := lockstep(pebblesdb.PresetHyperLevelDB)
	lev := map[string]float64{}
	first, digest, levDigest, err := b.loadStores(flsmOpts, levOpts, lev)
	if err != nil {
		return fmt.Errorf("load phase: %w", err)
	}
	_, again, _, err := b.loadStores(flsmOpts, levOpts, nil)
	if err != nil {
		return fmt.Errorf("load phase: %w", err)
	}
	fmt.Printf("digest: flsm %s\n", digest)
	fmt.Printf("digest: leveled %s\n", levDigest)
	b.guard(again == digest, "FLSM layout differs between two loads of one seed:\n  %s\n  %s", again, digest)
	for k, v := range first {
		b.layer[k] = v
	}
	for k, v := range lev {
		b.layer[k] = v
	}
	b.layer["leveled.to_flsm_write_amp"] = lev["leveled.write_amp"] / first["flsm.write_amp"]
	say("load.flsm_write_amp", first["flsm.write_amp"], "ratio", 0)
	say("load.leveled_write_amp", lev["leveled.write_amp"], "ratio", 0)
	return nil
}

// loadStores loads the FLSM store on a fresh filesystem and returns its
// structural metrics and the layout's digest. When lev is non-nil it then
// loads the leveled store, records its metrics in lev and returns its
// digest too, and checks both stores after reopening them.
func (b *bench) loadStores(flsmOpts, levOpts *pebblesdb.Options, lev map[string]float64) (map[string]float64, string, string, error) {
	fs := vfs.NewMem()
	idx := make([]uint64, loadKeys)
	for j, i := range b.g.rng(3).Perm(loadKeys) {
		idx[j] = uint64(i)
	}
	fdb, err := openStore(fs, "flsm", flsmOpts, nil)
	if err != nil {
		return nil, "", "", err
	}
	defer fdb.Close()
	k := lockstepBatch(flsmOpts)
	if err := b.load(fdb, b.g, idx, k, 3, newLat(loadKeys), nil, 0); err != nil {
		return nil, "", "", err
	}
	fm := fdb.Metrics()
	fs1 := shapeOf(fdb)
	v := map[string]float64{"flsm.write_amp": fm.WriteAmplification()}
	fs1.record(v)
	flushes := int64((loadKeys + k - 1) / k)
	b.guard(fm.Flushes == flushes, "flsm: %d flushes, want %d: the memtable filled between lockstep flushes", fm.Flushes, flushes)
	digest := fmt.Sprintf("%s wa=%.6f", fs1.digest(), fm.WriteAmplification())
	if lev == nil {
		return v, digest, "", nil
	}

	ldb, err := openStore(fs, "leveled", levOpts, nil)
	if err != nil {
		return nil, "", "", err
	}
	defer ldb.Close()
	t0 := obs.Monotonic()
	if err := b.load(ldb, b.g, idx, lockstepBatch(levOpts), 3, newLat(loadKeys), nil, 0); err != nil {
		return nil, "", "", err
	}
	lev["leveled.load_s"] = float64(obs.Monotonic()-t0) / 1e9
	lm := ldb.Metrics()
	lev["leveled.write_amp"] = lm.WriteAmplification()
	lev["leveled.trivial_moves"] = float64(lm.Tree.TrivialMoves)
	levDigest := fmt.Sprintf("%s wa=%.6f", shapeOf(ldb).digest(), lm.WriteAmplification())

	// Reopen both stores on the same filesystem and check a seeded sample
	// and a full-scan count.
	if err := errors.Join(fdb.Close(), ldb.Close()); err != nil {
		return nil, "", "", err
	}
	rng := b.g.rng(4)
	sample := make([]uint64, loadSample)
	for j := range sample {
		sample[j] = uint64(rng.Int63n(loadKeys * 11 / 10)) // about 10% never written
	}
	for _, st := range []struct {
		dir  string
		opts *pebblesdb.Options
	}{{"flsm", flsmOpts}, {"leveled", levOpts}} {
		db, err := openStore(fs, st.dir, st.opts, nil)
		if err != nil {
			return nil, "", "", err
		}
		b.verify(db, sample, func(i uint64) uint64 {
			if i < loadKeys {
				return 1
			}
			return 0
		})
		b.opErr(b.checkCount(db, loadKeys))
		if err := db.Close(); err != nil {
			return nil, "", "", err
		}
	}
	return v, digest, levDigest, nil
}

// checkCount scans the whole store and checks it holds exactly want
// well-formed entries.
func (b *bench) checkCount(db *pebblesdb.DB, want int) error {
	n, err := scanCount(db)
	if err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("full scan found %d entries, want %d", n, want)
	}
	return nil
}

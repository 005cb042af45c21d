package pebblesdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestIterDifferentialFLSMvsLeveled drives the same randomized
// Put/Delete/DeleteRange/flush/compact sequence through the FLSM engine
// and the leveled engine, and asserts that forward, reverse and bounded
// iteration return byte-identical results on both — and that both match an
// in-memory model. This is the v2 iterator contract's acceptance test: the
// two engines produce their streams through completely different iterator
// stacks (guard merges vs. level concatenation) and carry range tombstones
// through completely different compaction shapes (guard partitioning vs.
// size-based cuts), so agreement here pins the whole contract — including
// tombstone visibility under reverse and bounded iteration.
func TestIterDifferentialFLSMvsLeveled(t *testing.T) {
	// PrefixBloomLength 5 covers "keyNN" — prefix scans of exactly that
	// length exercise the per-table prefix filters, other lengths the
	// conservative (length-mismatch) path.
	flsmOpts := testOptions(PresetPebblesDB)
	flsmOpts.PrefixBloomLength = 5
	flsm, err := Open("diff-flsm", flsmOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer flsm.Close()
	leveledOpts := testOptions(PresetHyperLevelDB)
	leveledOpts.PrefixBloomLength = 5
	leveled, err := Open("diff-leveled", leveledOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer leveled.Close()

	dbs := []*DB{flsm, leveled}
	names := []string{"FLSM", "Leveled"}
	model := map[string]string{}
	rng := rand.New(rand.NewSource(99))
	// xrng drives the bounds, walks and tombstones added on top of the
	// original random sequence, which rng keeps unchanged.
	xrng := rand.New(rand.NewSource(100))

	sortedModel := func() []string {
		keys := make([]string, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}

	drain := func(it *Iterator, reverse bool) []string {
		t.Helper()
		var out []string
		if reverse {
			for it.Last(); it.Valid(); it.Prev() {
				out = append(out, string(it.Key())+"="+string(it.Value()))
			}
		} else {
			for it.First(); it.Valid(); it.Next() {
				out = append(out, string(it.Key())+"="+string(it.Value()))
			}
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	collect := func(db *DB, opts *IterOptions, reverse bool) []string {
		t.Helper()
		it, err := db.NewIter(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		return drain(it, reverse)
	}

	reversed := func(s []string) []string {
		out := make([]string, len(s))
		for i, v := range s {
			out[len(s)-1-i] = v
		}
		return out
	}

	const ops = 20000
	check := func(step int) {
		t.Helper()
		keys := sortedModel()
		want := make([]string, len(keys))
		for i, k := range keys {
			want[i] = k + "=" + model[k]
		}

		// Random bounds: sometimes nil, sometimes a sub-range.
		var lower, upper []byte
		if rng.Intn(2) == 0 {
			lower = []byte(fmt.Sprintf("key%05d", rng.Intn(4000)))
		}
		if rng.Intn(2) == 0 {
			upper = []byte(fmt.Sprintf("key%05d", rng.Intn(4000)))
		}
		var bounded []string
		for i, k := range keys {
			if (lower == nil || k >= string(lower)) && (upper == nil || k < string(upper)) {
				bounded = append(bounded, want[i])
			}
		}

		for d, db := range dbs {
			fwd := collect(db, nil, false)
			if fmt.Sprint(fwd) != fmt.Sprint(want) {
				t.Fatalf("step %d %s forward: got %d keys, want %d\ngot  %.300v\nwant %.300v",
					step, names[d], len(fwd), len(want), fwd, want)
			}
			rev := collect(db, nil, true)
			if fmt.Sprint(reversed(rev)) != fmt.Sprint(want) {
				t.Fatalf("step %d %s reverse: not the exact reverse of forward\nrev  %.300v",
					step, names[d], rev)
			}
			opts := &IterOptions{LowerBound: lower, UpperBound: upper}
			bf := collect(db, opts, false)
			if fmt.Sprint(bf) != fmt.Sprint(bounded) {
				t.Fatalf("step %d %s bounded [%q,%q) forward: got %d want %d\ngot  %.300v\nwant %.300v",
					step, names[d], lower, upper, len(bf), len(bounded), bf, bounded)
			}
			br := collect(db, opts, true)
			if fmt.Sprint(reversed(br)) != fmt.Sprint(bounded) {
				t.Fatalf("step %d %s bounded [%q,%q) reverse mismatch\ngot  %.300v\nwant %.300v",
					step, names[d], lower, upper, reversed(br), bounded)
			}
		}

		// Bounds at the FLSM layout's edges: equal to guard keys, below the
		// first guard (sentinel only), above the last guard, and empty or
		// inverted ranges. Each runs forward, reverse and a random walk of
		// seeks and direction switches on both engines.
		guards, _ := storeLayout(flsm)
		if len(guards) > 0 {
			g := guards[xrng.Intn(len(guards))]
			h := guards[xrng.Intn(len(guards))]
			if h < g {
				g, h = h, g
			}
			first, last := guards[0], guards[len(guards)-1]
			var nb []byte
			cases := [][2][]byte{
				{[]byte(g), nb}, {nb, []byte(g)}, {[]byte(g), []byte(h)},
				{nb, []byte(first)}, {[]byte("key"), []byte(first)},
				{[]byte(last), nb}, {[]byte(last + "\x00"), nb},
				{[]byte(g), []byte(g)}, {[]byte(h + "\x00"), []byte(g)},
			}
			// Every NewIter rebuilds the tombstone mask, so checks inside
			// the random phase sample two cases; the final checks run all.
			if step < ops {
				xrng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
				cases = cases[:2]
			}
			for _, b := range cases {
				var exp []string
				for i, k := range keys {
					if (b[0] == nil || k >= string(b[0])) && (b[1] == nil || k < string(b[1])) {
						exp = append(exp, want[i])
					}
				}
				opts := &IterOptions{LowerBound: b[0], UpperBound: b[1]}
				script := randomWalk(xrng, 24)
				mw := walkModel(exp, script)
				for d, db := range dbs {
					// One iterator serves all three passes, so each pass
					// also starts from the previous pass's position.
					it, err := db.NewIter(opts)
					if err != nil {
						t.Fatal(err)
					}
					fwd, rev := drain(it, false), drain(it, true)
					got := walkIter(it, script)
					if err := it.Close(); err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(fwd) != fmt.Sprint(exp) {
						t.Fatalf("step %d %s guard bounds [%q,%q) forward: got %d want %d\ngot  %.300v\nwant %.300v",
							step, names[d], b[0], b[1], len(fwd), len(exp), fwd, exp)
					}
					if fmt.Sprint(reversed(rev)) != fmt.Sprint(exp) {
						t.Fatalf("step %d %s guard bounds [%q,%q) reverse mismatch\ngot  %.300v\nwant %.300v",
							step, names[d], b[0], b[1], reversed(rev), exp)
					}
					for i := range mw {
						if got[i] != mw[i] {
							t.Fatalf("step %d %s guard bounds [%q,%q) walk op %d (%v): got %s want %s\nscript %v",
								step, names[d], b[0], b[1], i, script[i], got[i], mw[i], script[:i+1])
						}
					}
				}
			}
		}

		// Prefix iteration: a prefix scan must equal the model filtered to
		// keys with that prefix, forward and reverse, on both engines. Length
		// 5 hits the prefix bloom filters; 4 and 6 take the conservative
		// length-mismatch path.
		plen := 4 + rng.Intn(3)
		prefix := fmt.Sprintf("key%05d", rng.Intn(4000))[:plen]
		var pwant []string
		for i, k := range keys {
			if strings.HasPrefix(k, prefix) {
				pwant = append(pwant, want[i])
			}
		}
		popts := &IterOptions{Prefix: []byte(prefix)}
		for d, db := range dbs {
			pf := collect(db, popts, false)
			if fmt.Sprint(pf) != fmt.Sprint(pwant) {
				t.Fatalf("step %d %s prefix %q forward: got %d want %d\ngot  %.300v\nwant %.300v",
					step, names[d], prefix, len(pf), len(pwant), pf, pwant)
			}
			pr := collect(db, popts, true)
			if fmt.Sprint(reversed(pr)) != fmt.Sprint(pwant) {
				t.Fatalf("step %d %s prefix %q reverse mismatch\ngot  %.300v\nwant %.300v",
					step, names[d], prefix, reversed(pr), pwant)
			}
		}
	}

	for i := 0; i < ops; i++ {
		k := fmt.Sprintf("key%05d", rng.Intn(4000))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			v := fmt.Sprintf("val%d", i)
			model[k] = v
			for _, db := range dbs {
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
			}
		case 5, 6:
			delete(model, k)
			for _, db := range dbs {
				if err := db.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
			}
		case 8:
			if rng.Intn(4) != 0 {
				break // keep range deletes rarer than point ops
			}
			lo := rng.Intn(4000)
			span := 1 + rng.Intn(60)
			if rng.Intn(16) == 0 {
				span = 400 + rng.Intn(1200) // wide sweep across many guards
			}
			start := fmt.Sprintf("key%05d", lo)
			end := fmt.Sprintf("key%05d", lo+span)
			eraseRange(model, start, end)
			for _, db := range dbs {
				if err := db.DeleteRange([]byte(start), []byte(end)); err != nil {
					t.Fatal(err)
				}
			}
		case 7:
			if rng.Intn(20) == 0 {
				for _, db := range dbs {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
		default:
			// mutate-heavy phases between checks
		}
		if i%2500 == 2499 {
			check(i)
		}
	}

	// Leave range tombstones in tables on several levels: each round
	// flushes a tombstone with newer puts inside its range, and the
	// background compactions push earlier rounds' tables down.
	for round := 0; round < 12; round++ {
		lo := xrng.Intn(3900)
		start := fmt.Sprintf("key%05d", lo)
		end := fmt.Sprintf("key%05d", lo+1+xrng.Intn(100))
		eraseRange(model, start, end)
		for _, db := range dbs {
			if err := db.DeleteRange([]byte(start), []byte(end)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 600; i++ {
			k := fmt.Sprintf("key%05d", lo+xrng.Intn(200))
			v := fmt.Sprintf("rd%d-%d", round, i)
			model[k] = v
			for _, db := range dbs {
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, db := range dbs {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.WaitIdle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for d, db := range dbs {
		if _, rdLevels := storeLayout(db); len(rdLevels) < 2 {
			t.Fatalf("%s: range tombstones on levels %v, want tables on at least two; test is too weak", names[d], rdLevels)
		}
	}
	check(ops)

	// Fully compact both stores and re-verify: reverse iteration over a
	// compacted multi-guard FLSM store must return exactly the reverse of
	// forward iteration.
	for _, db := range dbs {
		if err := db.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	m := flsm.Metrics()
	guards := 0
	for _, g := range m.Tree.GuardsPerLevel {
		guards += g
	}
	if guards < 2 {
		t.Fatalf("FLSM store not multi-guard after compaction (guards=%d); test is too weak", guards)
	}
	check(ops + 1)
}

// storeLayout parses a store's Dump: the FLSM guard keys of every level,
// sorted and deduplicated, and the levels holding tables that carry range
// tombstones.
func storeLayout(db *DB) (guards []string, rdLevels map[int]bool) {
	var buf bytes.Buffer
	db.Dump(&buf)
	rdLevels = map[int]bool{}
	seen := map[string]bool{}
	level := -1
	for _, line := range strings.Split(buf.String(), "\n") {
		if m := dumpLevelRE.FindStringSubmatch(line); m != nil {
			level, _ = strconv.Atoi(m[1])
		}
		if m := dumpGuardRE.FindStringSubmatch(line); m != nil && !seen[m[1]] {
			seen[m[1]] = true
			guards = append(guards, m[1])
		}
		if strings.Contains(line, "+rd") {
			rdLevels[level] = true
		}
	}
	sort.Strings(guards)
	return guards, rdLevels
}

var (
	dumpLevelRE = regexp.MustCompile(`^\s*level (\d+)`)
	dumpGuardRE = regexp.MustCompile(`guard "([^"]*)"`)
)

// walkOp is one step of a random iterator walk.
type walkOp struct {
	op  string // SeekGE, SeekLT, First, Last, Next or Prev
	key string // seek target
}

// randomWalk returns n random iterator operations: seeks anywhere in the
// key space (in and out of bounds), and runs of Next and Prev that switch
// direction.
func randomWalk(rng *rand.Rand, n int) []walkOp {
	ops := make([]walkOp, n)
	for i := range ops {
		switch r := rng.Intn(10); {
		case r < 2:
			ops[i] = walkOp{op: "SeekGE", key: fmt.Sprintf("key%05d", rng.Intn(4100))}
		case r < 4:
			ops[i] = walkOp{op: "SeekLT", key: fmt.Sprintf("key%05d", rng.Intn(4100))}
		case r == 4:
			ops[i] = walkOp{op: "First"}
		case r == 5:
			ops[i] = walkOp{op: "Last"}
		case r < 8:
			ops[i] = walkOp{op: "Next"}
		default:
			ops[i] = walkOp{op: "Prev"}
		}
	}
	return ops
}

// walkModel plays script over the sorted "key=value" entries exp and
// returns the entry (or "-" when unpositioned) after each step. Next and
// Prev on an unpositioned iterator are skipped.
func walkModel(exp []string, script []walkOp) []string {
	key := func(i int) string { return exp[i][:strings.IndexByte(exp[i], '=')] }
	pos := -1
	out := make([]string, len(script))
	for i, w := range script {
		switch w.op {
		case "SeekGE":
			pos = sort.Search(len(exp), func(j int) bool { return key(j) >= w.key })
		case "SeekLT":
			pos = sort.Search(len(exp), func(j int) bool { return key(j) >= w.key }) - 1
		case "First":
			pos = 0
		case "Last":
			pos = len(exp) - 1
		case "Next":
			if pos >= 0 && pos < len(exp) {
				pos++
			}
		case "Prev":
			if pos >= 0 && pos < len(exp) {
				pos--
			}
		}
		if pos < 0 || pos >= len(exp) {
			pos = -1
			out[i] = "-"
		} else {
			out[i] = exp[pos]
		}
	}
	return out
}

// walkIter plays script on it, recording what walkModel records.
func walkIter(it *Iterator, script []walkOp) []string {
	out := make([]string, len(script))
	for i, w := range script {
		switch w.op {
		case "SeekGE":
			it.SeekGE([]byte(w.key))
		case "SeekLT":
			it.SeekLT([]byte(w.key))
		case "First":
			it.First()
		case "Last":
			it.Last()
		case "Next":
			if it.Valid() {
				it.Next()
			}
		case "Prev":
			if it.Valid() {
				it.Prev()
			}
		}
		if it.Valid() {
			out[i] = string(it.Key()) + "=" + string(it.Value())
		} else {
			out[i] = "-"
		}
	}
	return out
}

// TestIterBoundsPruneIO checks the "bounds prune before IO" property: a
// tightly bounded scan over a fully compacted store must read a small
// fraction of the sstable bytes a full-store walk reads — the bounded
// iterator opens only the tables its range can touch. (A 100-key
// unbounded scan is no longer a useful comparison: since CompactAll
// settles everything into the bottom level and files open lazily, it
// reads as little as the bounded scan.)
func TestIterBoundsPruneIO(t *testing.T) {
	for _, preset := range []Preset{PresetPebblesDB, PresetHyperLevelDB} {
		t.Run(preset.String(), func(t *testing.T) {
			db, err := Open("prune", testOptions(preset))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			val := make([]byte, 256)
			for i := 0; i < 20000; i++ {
				if err := db.Put([]byte(fmt.Sprintf("key%06d", i)), val); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}

			scan := func(opts *IterOptions, limit int) int64 {
				before := db.Metrics().IO.TotalRead()
				it, err := db.NewIter(opts)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for it.First(); it.Valid() && n < limit; it.Next() {
					n++
				}
				it.Close()
				return int64(db.Metrics().IO.TotalRead() - before)
			}

			full := scan(nil, 20000)
			bounded := scan(&IterOptions{
				LowerBound: []byte("key010000"),
				UpperBound: []byte("key010100"),
			}, 100)
			if bounded*10 >= full {
				t.Fatalf("bounded scan read %d bytes, full walk %d — bounds did not prune IO", bounded, full)
			}
		})
	}
}

package flsm

import (
	"fmt"
	"math/rand"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/treebase"
)

// TestGuardLevelIterBounds checks one level iterator against the unbounded
// one over bounds at guard keys, below the first guard, above the last
// guard and empty ranges: it must yield every in-bounds entry, and seeks
// outside the bounds must land where First and Last do.
func TestGuardLevelIterBounds(t *testing.T) {
	tree, _ := openTestTree(t)
	defer tree.Close()
	rng := rand.New(rand.NewSource(31))
	seq := base.SeqNum(0)
	for b := 0; b < 10; b++ {
		kvs := map[string]string{}
		for i := 0; i < 200; i++ {
			kvs[fmt.Sprintf("key%06d", rng.Intn(50000))] = "v"
		}
		flushBatch(t, tree, kvs, &seq)
	}
	if err := tree.CompactAll(); err != nil {
		t.Fatal(err)
	}
	v := tree.currentVersion()
	level := -1
	for l := 1; l < len(v.levels); l++ {
		if len(v.levels[l].guards) >= 4 && v.levels[l].fileCount() > 0 {
			level = l
		}
	}
	if level < 0 {
		t.Fatal("no level with 4 guards; test is too weak")
	}
	gl := &v.levels[level]
	keys := gl.guardKeys()
	first, last := keys[0], keys[len(keys)-1]

	userKeys := func(it iterator.Iterator, b base.Bounds) []string {
		var out []string
		for it.First(); it.Valid(); it.Next() {
			if uk := base.UserKey(it.Key()); b.ContainsUserKey(uk) {
				out = append(out, string(uk))
			}
		}
		return out
	}
	all := newGuardLevelIter(tree, level, gl, false, treebase.IterRequest{})
	defer all.Close()

	for _, b := range []base.Bounds{
		{Lower: keys[1], Upper: keys[3]},
		{Upper: first},
		{Lower: []byte("key"), Upper: first},
		{Lower: last},
		{Lower: append(last, 0)},
		{Lower: keys[2], Upper: keys[2]},
		{Lower: keys[3], Upper: keys[1]},
	} {
		want := userKeys(all, b)
		it := newGuardLevelIter(tree, level, gl, false, treebase.IterRequest{Bounds: b})
		if got := userKeys(it, b); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("bounds [%q, %q): got %d keys, want %d", b.Lower, b.Upper, len(got), len(want))
		}
		at := func() string {
			if !it.Valid() {
				return "-"
			}
			return string(it.Key())
		}
		it.First()
		firstKey := at()
		it.SeekGE(base.MakeSearchKey(nil, []byte("a"), base.MaxSeqNum))
		if got := at(); got != firstKey {
			t.Errorf("bounds [%q, %q): SeekGE below the bounds at %q, First at %q", b.Lower, b.Upper, got, firstKey)
		}
		it.Last()
		lastKey := at()
		it.SeekLT(base.MakeSearchKey(nil, []byte("zzz"), base.MaxSeqNum))
		if got := at(); got != lastKey {
			t.Errorf("bounds [%q, %q): SeekLT above the bounds at %q, Last at %q", b.Lower, b.Upper, got, lastKey)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

package flsm

import (
	"fmt"
	"os"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/memtable"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/treebase"
)

// TestMain checks the derived indexes of every version any test of the
// package builds, including the ones concurrent compactions install.
func TestMain(m *testing.M) {
	applyCheck = func(v *version) {
		if err := checkVersionIndex(v); err != nil {
			panic(err)
		}
	}
	os.Exit(m.Run())
}

// checkVersionIndex compares a version's file counts and tombstone-table
// list with a full walk of its layout.
func checkVersionIndex(v *version) error {
	var want []*base.FileMetadata
	walk := func(files []*base.FileMetadata) {
		for _, f := range files {
			if f.NumRangeDels > 0 {
				want = append(want, f)
			}
		}
	}
	walk(v.l0)
	for l := range v.levels {
		gl := &v.levels[l]
		n := len(gl.sentinel)
		walk(gl.sentinel)
		for i := range gl.guards {
			n += len(gl.guards[i].Files)
			walk(gl.guards[i].Files)
		}
		if gl.fileCount() != n {
			return fmt.Errorf("level %d: fileCount %d, walk finds %d files", l, gl.fileCount(), n)
		}
	}
	if len(v.rangeDelFiles) != len(want) {
		return fmt.Errorf("tombstone-table list has %d tables, walk finds %d", len(v.rangeDelFiles), len(want))
	}
	for i := range want {
		if v.rangeDelFiles[i] != want[i] {
			return fmt.Errorf("tombstone-table list[%d] = %s, walk finds %s", i, v.rangeDelFiles[i], want[i])
		}
	}
	return nil
}

// TestRangeDelTablesTracked flushes tables carrying range tombstones and
// compacts them through the levels; TestMain checks every version built
// on the way. The tree must keep tombstone tables listed, and NewIters
// must return their tombstones for overlapping bounds only.
func TestRangeDelTablesTracked(t *testing.T) {
	tree, _ := openTestTree(t)
	defer tree.Close()
	seq := base.SeqNum(0)
	for round := 0; round < 12; round++ {
		mem := memtable.New()
		for i := 0; i < 400; i++ {
			seq++
			k := []byte(fmt.Sprintf("key%05d", (round*397+i*13)%5000))
			mem.Set(k, seq, base.KindSet, []byte("value-value-value"))
			tree.Ingest(k)
		}
		var rds []rangedel.Tombstone
		if round%3 == 0 {
			seq++
			lo := round * 400
			rds = append(rds, rangedel.Tombstone{
				Start: []byte(fmt.Sprintf("key%05d", lo)),
				End:   []byte(fmt.Sprintf("key%05d", lo+50)),
				Seq:   seq,
			})
		}
		if err := tree.Flush(mem.NewIter(), rds, tree.NewFileNum(), seq); err != nil {
			t.Fatal(err)
		}
	}
	if len(tree.currentVersion().rangeDelFiles) == 0 {
		t.Fatal("no tombstone table listed after flushing tombstones")
	}
	if err := tree.CompactAll(); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tree)
	if len(tree.currentVersion().rangeDelFiles) == 0 {
		t.Fatal("no tombstone table listed after CompactAll")
	}

	count := func(bounds base.Bounds) int {
		t.Helper()
		iters, rds, err := tree.NewIters(treebase.IterRequest{Bounds: bounds}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range iters {
			it.Close()
		}
		return len(rds)
	}
	if n := count(base.Bounds{}); n == 0 {
		t.Fatal("unbounded NewIters returned no tombstones")
	}
	if n := count(base.Bounds{Lower: []byte("key00000"), Upper: []byte("key00040")}); n == 0 {
		t.Fatal("bounds over a tombstone returned none")
	}
	if n := count(base.Bounds{Lower: []byte("zzz")}); n != 0 {
		t.Fatalf("bounds past every table returned %d tombstones", n)
	}
}

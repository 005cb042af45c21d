package leveled

import (
	"fmt"
	"os"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/manifest"
	"pebblesdb/internal/memtable"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/treebase"
)

// TestMain checks the tombstone-table list of every version any test of
// the package builds, including the ones concurrent compactions install.
func TestMain(m *testing.M) {
	applyCheck = func(v *version) {
		if err := checkVersionIndex(v); err != nil {
			panic(err)
		}
	}
	os.Exit(m.Run())
}

// checkVersionIndex compares a version's tombstone-table list with a full
// walk of its levels.
func checkVersionIndex(v *version) error {
	var want []*base.FileMetadata
	for _, files := range v.files {
		for _, f := range files {
			if f.NumRangeDels > 0 {
				want = append(want, f)
			}
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

func meta(fn base.FileNum, lo, hi string) base.FileMetadata {
	return base.FileMetadata{
		FileNum:  fn,
		Size:     100,
		Smallest: base.MakeInternalKey(nil, []byte(lo), 1, base.KindSet),
		Largest:  base.MakeInternalKey(nil, []byte(hi), 1, base.KindSet),
	}
}

func TestVersionApplyAddDelete(t *testing.T) {
	v := newVersion(3)
	edit := &manifest.VersionEdit{
		NewFiles: []manifest.NewFileEntry{
			{Level: 0, Meta: meta(2, "a", "m")},
			{Level: 0, Meta: meta(3, "c", "z")},
			{Level: 1, Meta: meta(4, "k", "p")},
			{Level: 1, Meta: meta(5, "a", "j")},
		},
	}
	nv, err := v.apply(edit, 3)
	if err != nil {
		t.Fatal(err)
	}
	// L0 sorted newest (highest filenum) first.
	if nv.files[0][0].FileNum != 3 || nv.files[0][1].FileNum != 2 {
		t.Fatalf("L0 order: %v", nv.files[0])
	}
	// L1 sorted by smallest key.
	if nv.files[1][0].FileNum != 5 || nv.files[1][1].FileNum != 4 {
		t.Fatalf("L1 order: %v", nv.files[1])
	}

	del := &manifest.VersionEdit{
		DeletedFiles: []manifest.DeletedFileEntry{{Level: 0, FileNum: 2}},
	}
	nv2, err := nv.apply(del, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nv2.files[0]) != 1 || nv2.files[0][0].FileNum != 3 {
		t.Fatalf("delete failed: %v", nv2.files[0])
	}
	// The original version is untouched (immutability).
	if len(nv.files[0]) != 2 {
		t.Fatal("apply mutated its receiver")
	}
}

func TestVersionApplyRejectsBadLevel(t *testing.T) {
	v := newVersion(3)
	edit := &manifest.VersionEdit{
		NewFiles: []manifest.NewFileEntry{{Level: 7, Meta: meta(2, "a", "b")}},
	}
	if _, err := v.apply(edit, 3); err == nil {
		t.Fatal("out-of-range level must be rejected")
	}
}

func TestFindFile(t *testing.T) {
	m1 := meta(1, "b", "d")
	m2 := meta(2, "f", "h")
	files := []*base.FileMetadata{&m1, &m2}
	cases := []struct {
		key  string
		want int
	}{
		{"a", -1}, {"b", 0}, {"c", 0}, {"d", 0}, {"e", -1}, {"f", 1}, {"h", 1}, {"z", -1},
	}
	for _, c := range cases {
		if got := findFile(files, []byte(c.key)); got != c.want {
			t.Fatalf("findFile(%q)=%d want %d", c.key, got, c.want)
		}
	}
}

func TestOverlaps(t *testing.T) {
	m1 := meta(1, "b", "d")
	m2 := meta(2, "f", "h")
	m3 := meta(3, "j", "l")
	files := []*base.FileMetadata{&m1, &m2, &m3}

	got := overlaps(files, []byte("c"), []byte("g"))
	if len(got) != 2 || got[0].FileNum != 1 || got[1].FileNum != 2 {
		t.Fatalf("overlaps c..g: %v", got)
	}
	if got := overlaps(files, []byte("m"), []byte("z")); len(got) != 0 {
		t.Fatalf("overlaps m..z: %v", got)
	}
	if got := overlaps(files, []byte("a"), []byte("z")); len(got) != 3 {
		t.Fatalf("overlaps a..z: %v", got)
	}
}

func TestAllowedSeeksFloor(t *testing.T) {
	if allowedSeeks(0) != 100 {
		t.Fatal("floor must be 100")
	}
	if allowedSeeks(32<<20) != (32<<20)/(16<<10) {
		t.Fatal("large files get proportional budgets")
	}
}

// TestInBounds checks the binary-searched subslice against fixed answers
// and a per-file overlap scan, including empty and inverted bounds.
func TestInBounds(t *testing.T) {
	var files []*base.FileMetadata
	for i, r := range [][2]string{{"b", "d"}, {"f", "h"}, {"j", "l"}} {
		m := meta(base.FileNum(i+1), r[0], r[1])
		files = append(files, &m)
	}
	cases := []struct {
		lo, hi string
		want   string
	}{
		{"", "", "[1 2 3]"},
		{"a", "", "[1 2 3]"},
		{"d", "", "[1 2 3]"},
		{"e", "", "[2 3]"},
		{"m", "", "[]"},
		{"", "b", "[]"},
		{"", "c", "[1]"},
		{"", "f", "[1]"},
		{"", "g", "[1 2]"},
		{"e", "i", "[2]"},
		{"i", "j", "[]"},
		{"g", "c", "[]"},
	}
	for _, c := range cases {
		var b base.Bounds
		if c.lo != "" {
			b.Lower = []byte(c.lo)
		}
		if c.hi != "" {
			b.Upper = []byte(c.hi)
		}
		var got []base.FileNum
		for _, f := range inBounds(files, b) {
			got = append(got, f.FileNum)
		}
		var want []base.FileNum
		for _, f := range files {
			if b.Overlaps(f) {
				want = append(want, f.FileNum)
			}
		}
		if fmt.Sprint(got) != c.want || fmt.Sprint(want) != c.want {
			t.Errorf("[%q, %q): inBounds %v, overlap scan %v, want %s", c.lo, c.hi, got, want, c.want)
		}
	}
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
	// Compacting into the last level drops the tombstones (no snapshot
	// holds them), and every version on the way is checked.
	if err := tree.CompactAll(); err != nil {
		t.Fatal(err)
	}
	checkDisjoint(t, tree)
}

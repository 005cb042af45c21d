package treebase

import (
	"pebblesdb/internal/base"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/tablecache"
)

// AppendRangeDelTables appends to dst the files that hold range tombstones.
// Both trees build a version's tombstone-table list with it when the
// version is created, so an iterator collects tombstones by walking only
// those tables instead of every table of the version.
func AppendRangeDelTables(dst, files []*base.FileMetadata) []*base.FileMetadata {
	for _, f := range files {
		if f.HasRangeDels() {
			dst = append(dst, f)
		}
	}
	return dst
}

// CollectRangeDels gathers the tombstones of the tables in files (a
// version's tombstone-table list) that overlap bounds. File bounds include
// tombstone spans, so the overlap check cannot drop a tombstone that masks
// an in-bounds key. Tables hand back their resident lists, so no block IO
// happens here.
func CollectRangeDels(tc *tablecache.TableCache, files []*base.FileMetadata, bounds base.Bounds) ([]rangedel.Tombstone, error) {
	var rds []rangedel.Tombstone
	for _, f := range files {
		if !bounds.Overlaps(f) {
			continue
		}
		r, err := tc.Find(f.FileNum, f.Size)
		if err != nil {
			return nil, err
		}
		rds = append(rds, r.RangeDels().Raw()...)
		r.Unref()
	}
	return rds, nil
}

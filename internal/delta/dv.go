package delta

import "sort"

// DeletionVector marks rows of one data file as deleted without rewriting
// the file. Rows holds the deleted row ordinals (position within the file's
// batch), sorted ascending and deduplicated. The zero/nil vector deletes
// nothing; every method is nil-safe so call sites never branch on presence.
//
// The vector is stored inline in the log (JSON array of ordinals). That is
// the right trade-off at this engine's file sizes: a DV is never larger than
// the row count of one file, and keeping it in the log means a snapshot
// already carries everything a scan needs to mask rows — no extra GET.
type DeletionVector struct {
	Rows []int64 `json:"rows"`
}

// Cardinality returns the number of deleted rows.
func (dv *DeletionVector) Cardinality() int64 {
	if dv == nil {
		return 0
	}
	return int64(len(dv.Rows))
}

// Covers reports whether the vector deletes every row of a file with
// numRecords rows (the whole file is logically empty).
func (dv *DeletionVector) Covers(numRecords int64) bool {
	return numRecords > 0 && dv.Cardinality() >= numRecords
}

// Has reports whether row ordinal r is deleted (binary search).
func (dv *DeletionVector) Has(r int64) bool {
	if dv == nil || len(dv.Rows) == 0 {
		return false
	}
	i := sort.Search(len(dv.Rows), func(i int) bool { return dv.Rows[i] >= r })
	return i < len(dv.Rows) && dv.Rows[i] == r
}

// KeepIndexes appends to keep (which may be nil) the ordinals of the
// surviving rows of an n-row file, in order — the selection a scan starts
// from to mask deleted rows — and returns the extended slice. Ordinals
// outside [0, n) are ignored (a corrupt vector can hide rows, never invent
// them).
func (dv *DeletionVector) KeepIndexes(n int, keep []int) []int {
	if keep == nil {
		keep = make([]int, 0, max(n-int(dv.Cardinality()), 0))
	}
	for i := 0; i < n; i++ {
		if !dv.Has(int64(i)) {
			keep = append(keep, i)
		}
	}
	return keep
}

// Union returns a new vector deleting everything dv deletes plus rows.
// The input slice may be unsorted and contain duplicates.
func (dv *DeletionVector) Union(rows []int64) *DeletionVector {
	seen := make(map[int64]bool, int(dv.Cardinality())+len(rows))
	var merged []int64
	add := func(r int64) {
		if !seen[r] {
			seen[r] = true
			merged = append(merged, r)
		}
	}
	if dv != nil {
		for _, r := range dv.Rows {
			add(r)
		}
	}
	for _, r := range rows {
		add(r)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	return &DeletionVector{Rows: merged}
}

// clone returns a deep copy (nil stays nil).
func (dv *DeletionVector) clone() *DeletionVector {
	if dv == nil {
		return nil
	}
	return &DeletionVector{Rows: append([]int64(nil), dv.Rows...)}
}

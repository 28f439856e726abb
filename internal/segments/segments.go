// Package segments holds the one merge policy of the engine's
// log-structured layers. The index's segments and dead-document tallies,
// the link graph's segments and the dataguide summary's segments each
// keep a base followed by parts appended per write, newest last, and
// merge them with Push: while the second-newest part holds at most
// MergeRatio times the newest one's size, the two are folded into one.
// Each part is then more than MergeRatio times the next, so d units of
// appended size leave at most log2(d)+1 parts, and each unit is re-merged
// O(log d) times over its life.
package segments

import (
	"slices"
	"sort"
)

// MergeRatio is the merge policy's size ratio (see the package comment).
const MergeRatio = 2

// Push returns parts with p appended, then folds the newest two parts
// while the older holds at most MergeRatio times the newer's size. parts'
// backing array is never written, so generations sharing a prefix of
// parts can each push their own part.
func Push[T any](parts []T, p T, size func(T) int, merge func(a, b T) (T, error)) ([]T, error) {
	out := append(slices.Clip(parts), p)
	for n := len(out); n >= 2 && size(out[n-2]) <= MergeRatio*size(out[n-1]); n = len(out) {
		m, err := merge(out[n-2], out[n-1])
		if err != nil {
			return nil, err
		}
		out = append(out[:n-2], m)
	}
	return out, nil
}

// Keep returns how many of parts, a base followed by segments of
// ascending document ids, a fold keeps when its input changed at document
// id from since it was folded — the document died, or a compaction
// renumbered it and every later one: the parts before the oldest one
// holding from, whose state depends on their own documents only, so the
// fold restarts at that part. hi returns the end of a part's id range.
// Keep returns 0 when the base holds from: the fold restarts from empty.
func Keep[T any](parts []T, from int, hi func(T) int) int {
	k := sort.Search(len(parts), func(i int) bool { return hi(parts[i]) > from })
	if k == len(parts) {
		return 0 // from lies past every part: nothing is known to be kept
	}
	return k
}

package index

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"seda/internal/pathdict"
	"seda/internal/segments"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// Segments: an ingest writes at the cost of the documents it adds. Extend
// seals a scan of the added documents as a segment, a small immutable
// shard appended after the receiver's shards, which it shares untouched.
// New documents carry strictly larger doc ids, so the segment's normalized
// postings follow every existing list in global (doc, Dewey) order and
// the index answers byte-identically to a from-scratch build. With no new
// documents every shard is shared and only the mask grows: that is a
// delete (see tombstones.go).
//
// Segments merge by absorb, the join of a parallel build's scan chunks,
// under the log-structured policy of package segments, sized by
// documents: an index carries at most log2(d)+1 segments over d ingested
// documents, and each document is re-absorbed O(log d) times over its
// life. The base shards are never merged: a compaction rebuilds the base
// from the survivors, with no segments (BuildSharded).

// Extend returns a new Index over col covering the receiver's documents
// plus newDocs. col must be the receiver's collection extended by newDocs
// (see store.Extend), or carrying more tombstones (see
// store.WithTombstones), or both. The receiver is not modified and
// remains valid for concurrent readers: its shards are shared, and a
// merge reads the segments it folds without writing them. A new segment
// carries no pager and no backing ref: the caller attaches the receiver's
// pager to the result, and the next save binds it. The error is a failure
// to re-read the section of a merged segment served by runs.
//
//seda:constructor
func (ix *Index) Extend(col *store.Collection, newDocs []*xmldoc.Document) (*Index, error) {
	if col.NumDocs() != ix.col.NumDocs()+len(newDocs) {
		return nil, fmt.Errorf("index: extending %d documents by %d into a collection of %d",
			ix.col.NumDocs(), len(newDocs), col.NumDocs())
	}
	next := *ix
	next.col, next.cache = col, newTermCache(termCacheBudget)
	if len(newDocs) > 0 {
		seg := sealShard(ix.col.NumDocs(), col.NumDocs(), scanDocs(newDocs))
		segs, err := segments.Push(ix.shards[ix.base:], seg, (*Shard).Docs, mergeShards)
		if err != nil {
			return nil, err
		}
		next.shards = slices.Concat(ix.shards[:ix.base], segs)
		next.allPaths = ix.withPaths(seg.pathIDs)
	}
	next.mask()
	return &next, nil
}

// mergeShards returns the shard over a's documents followed by b's,
// absorbing b into a copy of a. Neither is written; a segment served by
// runs is decoded whole from its section for the merge.
//
//seda:constructor
func mergeShards(a, b *Shard) (*Shard, error) {
	ad, err := a.decoded()
	if err != nil {
		return nil, err
	}
	bd, err := b.decoded()
	if err != nil {
		return nil, err
	}
	acc := &shardAcc{
		postings:    maps.Clone(ad.postings),
		pathTerms:   maps.Clone(a.pathTerms),
		termDocFreq: maps.Clone(a.termDocFreq),
		pathNodes:   maps.Clone(ad.pathNodes),
	}
	acc.absorb(&shardAcc{postings: bd.postings, pathTerms: b.pathTerms, termDocFreq: b.termDocFreq, pathNodes: bd.pathNodes})
	return sealShard(a.lo, b.hi, acc), nil
}

// decoded returns the shard's whole decoded state: the resident maps, or
// a decode of its section for a shard served by runs, which the shard
// keeps no copy of. Callers must not write into it.
func (sh *Shard) decoded() (*shardData, error) {
	if d := sh.data.Load(); d != nil {
		return d, nil
	}
	lazy, err := sh.section()
	if err != nil {
		return nil, err
	}
	// The bytes may have changed since load (CRC collisions are possible
	// against a non-cryptographic checksum), so a decode failure is an
	// error, not an invariant violation.
	d, err := sh.decodeLazy(lazy)
	if err != nil {
		return nil, fmt.Errorf("index: decoding shard [%d,%d): %w", sh.lo, sh.hi, err)
	}
	return d, nil
}

// withPaths returns the receiver's path list with the paths of added that
// it lacks inserted in string order. Most ingests add no new path, and
// then the list is shared.
func (ix *Index) withPaths(added []pathdict.PathID) []pathdict.PathID {
	var fresh []pathdict.PathID
	for _, p := range added {
		if ix.nodesAtPathLen(p) == 0 {
			fresh = append(fresh, p)
		}
	}
	if len(fresh) == 0 {
		return ix.allPaths
	}
	dict := ix.col.Dict()
	all := ix.allPaths
	out := make([]pathdict.PathID, 0, len(all)+len(fresh))
	i := 0
	for _, p := range sortByPath(dict, fresh) {
		s := dict.Path(p)
		j := i + sort.Search(len(all)-i, func(k int) bool { return dict.Path(all[i+k]) > s })
		out = append(append(out, all[i:j]...), p)
		i = j
	}
	return append(out, all[i:]...)
}

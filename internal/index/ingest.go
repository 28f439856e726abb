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
// life. The base shards are never merged. A compaction keeps every shard
// that ends at or before the first dead document, ids unchanged, and
// scans the renumbered survivors from the first dropped shard on as one
// segment, so it costs the documents since that shard began; only a dead
// base document, or a base laid out at another shard count, rebuilds the
// base from the survivors (KeepsBase, BuildSharded).

// Extend returns a new Index over col covering the receiver's documents
// plus newDocs. col holds the receiver's documents below restart with
// their ids, and from restart on the receiver's live documents renumbered
// contiguously (store.Compacted), then newDocs; restart is the receiver's
// document count when col renumbers none, and col may then mask more of
// the receiver's documents (store.WithTombstones). A renumbering keeps
// the shards before the oldest one holding restart and scans col's
// documents from that shard's start as one segment; it must keep the base
// (KeepsBase). The receiver is not modified and remains valid for
// concurrent readers: its shards are shared, and a merge reads the
// segments it folds without writing them. A new segment carries no pager
// and no backing ref: the caller attaches the receiver's pager to the
// result, and the next save binds it. The error is a failure to re-read
// the section of a merged segment served by runs.
//
//seda:constructor
func (ix *Index) Extend(col *store.Collection, restart xmldoc.DocID, newDocs []*xmldoc.Document) (*Index, error) {
	next := *ix
	next.col, next.cache = col, newTermCache(termCacheBudget)
	lo := ix.col.NumDocs()
	if int(restart) < lo {
		k := segments.Keep(ix.shards, int(restart), func(sh *Shard) int { return sh.hi })
		if k < ix.base {
			return nil, fmt.Errorf("index: renumbering from document %d reaches into the base", restart)
		}
		// The kept shards hold no dead document, so the mask starts over.
		lo, next.shards = ix.shards[k].lo, ix.shards[:k]
		next.dead, next.shardDead, next.deadParts = nil, nil, nil
		newDocs = col.Docs()[min(lo, col.NumDocs()):]
	}
	if col.NumDocs() != lo+len(newDocs) {
		return nil, fmt.Errorf("index: extending %d documents by %d into a collection of %d",
			lo, len(newDocs), col.NumDocs())
	}
	if len(newDocs) > 0 {
		seg := sealShard(lo, col.NumDocs(), scanDocs(newDocs))
		segs, err := segments.Push(next.shards[ix.base:], seg, (*Shard).Docs, mergeShards)
		if err != nil {
			return nil, err
		}
		next.shards = slices.Concat(next.shards[:ix.base], segs)
		next.allPaths = ix.withPaths(seg.pathIDs)
	}
	next.mask()
	return &next, nil
}

// KeepsBase reports whether Extend keeps the base shards when col
// renumbers from restart and the configured layout has shards base shards
// (0 or 1 meaning one): restart lies past the base, which has that many
// shards. A restart at or past the receiver's document count renumbers
// nothing and always keeps the base.
func (ix *Index) KeepsBase(restart xmldoc.DocID, shards int) bool {
	if int(restart) >= ix.col.NumDocs() {
		return true
	}
	return ix.base == max(shards, 1) && int(restart) >= ix.shards[ix.base-1].hi
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

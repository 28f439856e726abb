package index

import (
	"fmt"

	"seda/internal/pathdict"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// Incremental extension is shard-local: a delta segment over the newly
// added documents is merged into a copy of the TAIL shard only — the
// other shards are shared with the receiver untouched, so the ingest cost
// scales with the tail shard's vocabulary, not the corpus's. This reuses
// the scan machinery of BuildSharded — the new documents are scanned
// exactly like one more contiguous accumulator — and the same merge
// identity makes the result byte-identical to a from-scratch build: new
// documents carry strictly larger doc ids, so their normalized postings
// concatenate after the existing (already normalized) lists in global
// (doc, Dewey) order.
//
// Note the resulting partition differs from what a fresh BuildSharded
// over the extended corpus would choose (the tail shard grows; a fresh
// build rebalances) — which is fine, because every read answer is
// partition-independent. The corpus-global aggregates are re-derived from
// the shards by the same fold construction uses.

// Extend returns a new Index over col covering the receiver's documents
// plus newDocs. col must be the extended collection (see store.Extend)
// and newDocs its appended suffix, in order. The receiver is not
// modified and remains valid for concurrent readers: the tail shard's
// changed posting lists, context-index entries, and per-path node lists
// are fresh slices or maps, unchanged ones — and every non-tail shard —
// are shared. The new tail carries no pager and no backing ref (its
// encoding differs from any stored section): the caller attaches the
// receiver's pager to the result, and the next save re-binds it.
func (ix *Index) Extend(col *store.Collection, newDocs []*xmldoc.Document) (*Index, error) {
	delta := scanDocs(newDocs)
	tail := ix.shards[len(ix.shards)-1]
	shards := make([]*Shard, len(ix.shards))
	copy(shards, ix.shards)
	nt, err := tail.extend(delta, col.NumDocs())
	if err != nil {
		return nil, err
	}
	shards[len(shards)-1] = nt
	return finishIndex(col, shards), nil
}

// extend merges a delta accumulator into a copy of the shard, extending
// its range to [sh.lo, hi). A receiver served by runs is decoded whole
// from its section for the merge — the only whole-shard decode a paged
// engine makes — and the receiver keeps no copy of the result. The error
// is a failure to re-read that section.
//
//seda:constructor
func (sh *Shard) extend(delta *shardAcc, hi int) (*Shard, error) {
	old := sh.data.Load()
	if old == nil {
		lazy, err := sh.section()
		if err != nil {
			return nil, err
		}
		// The bytes may have changed since load (CRC collisions are
		// possible against a non-cryptographic checksum), so a decode
		// failure is an error, not an invariant violation.
		if old, err = sh.decodeLazy(lazy); err != nil {
			return nil, fmt.Errorf("index: extending shard [%d,%d): %w", sh.lo, sh.hi, err)
		}
	}
	acc := &shardAcc{
		postings:    make(map[string][]Posting, len(old.postings)+len(delta.postings)),
		pathTerms:   make(map[string]map[pathdict.PathID]int, len(sh.pathTerms)),
		termDocFreq: make(map[string]int, len(sh.termDocFreq)+len(delta.termDocFreq)),
		pathNodes:   make(map[pathdict.PathID][]xmldoc.NodeRef, len(old.pathNodes)),
	}
	for t, ps := range old.postings {
		acc.postings[t] = ps
	}
	for t, m := range sh.pathTerms {
		acc.pathTerms[t] = m
	}
	for t, n := range sh.termDocFreq {
		acc.termDocFreq[t] = n
	}
	for p, refs := range old.pathNodes {
		acc.pathNodes[p] = refs
	}

	for term, ps := range delta.postings {
		dp := normalizePostings(ps)
		if cur, ok := acc.postings[term]; ok {
			merged := make([]Posting, 0, len(cur)+len(dp))
			merged = append(merged, cur...)
			merged = append(merged, dp...)
			acc.postings[term] = merged
		} else {
			acc.postings[term] = dp
		}
	}
	for term, paths := range delta.pathTerms {
		cur, ok := acc.pathTerms[term]
		if !ok {
			acc.pathTerms[term] = paths
			continue
		}
		m := make(map[pathdict.PathID]int, len(cur)+len(paths))
		for p, n := range cur {
			m[p] = n
		}
		for p, n := range paths {
			m[p] += n
		}
		acc.pathTerms[term] = m
	}
	for term, n := range delta.termDocFreq {
		acc.termDocFreq[term] += n // new documents are disjoint from old ones
	}
	for p, refs := range delta.pathNodes {
		if cur, ok := acc.pathNodes[p]; ok {
			merged := make([]xmldoc.NodeRef, 0, len(cur)+len(refs))
			merged = append(merged, cur...)
			merged = append(merged, refs...)
			acc.pathNodes[p] = merged
		} else {
			acc.pathNodes[p] = refs
		}
	}

	return sealShard(sh.lo, hi, acc), nil
}

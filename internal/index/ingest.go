package index

import (
	"fmt"
	"maps"
	"slices"

	"seda/internal/store"
	"seda/internal/xmldoc"
)

// Extension is the one fold every derived index goes through: a shard is
// a base followed by scans of later documents, joined by absorb — the
// same merge that joins a parallel build's scan chunks. Extend absorbs a
// scan of the newly added documents into a copy of the TAIL shard only;
// the other shards are shared with the receiver untouched, so the ingest
// cost scales with the tail shard's vocabulary, not the corpus's. New
// documents carry strictly larger doc ids, so their normalized postings
// concatenate after the existing lists in global (doc, Dewey) order and
// the result is byte-identical to a from-scratch build. With no new
// documents every shard is shared and only the mask is re-derived: that
// is a delete. A compaction renumbers the documents, so it starts from
// an empty base: a fresh BuildSharded over the survivors.
//
// Note the resulting partition differs from what a fresh BuildSharded
// over the extended corpus would choose (the tail shard grows; a fresh
// build rebalances) — which is fine, because every read answer is
// partition-independent. The corpus-global aggregates and the tombstone
// mask are re-derived from the shards by finishIndex.

// Extend returns a new Index over col covering the receiver's documents
// plus newDocs. col must be the receiver's collection extended by newDocs
// (see store.Extend), or carrying more tombstones (see
// store.WithTombstones), or both. The receiver is not modified and
// remains valid for concurrent readers: the tail shard's changed posting
// lists, context-index entries, and per-path node lists are fresh slices
// or maps, unchanged ones — and every non-tail shard — are shared. A new
// tail carries no pager and no backing ref (its encoding differs from any
// stored section): the caller attaches the receiver's pager to the
// result, and the next save re-binds it.
func (ix *Index) Extend(col *store.Collection, newDocs []*xmldoc.Document) (*Index, error) {
	if col.NumDocs() != ix.col.NumDocs()+len(newDocs) {
		return nil, fmt.Errorf("index: extending %d documents by %d into a collection of %d",
			ix.col.NumDocs(), len(newDocs), col.NumDocs())
	}
	shards := slices.Clone(ix.shards)
	if len(newDocs) > 0 {
		last := len(shards) - 1
		tail, err := shards[last].extend(scanDocs(newDocs), col.NumDocs())
		if err != nil {
			return nil, err
		}
		shards[last] = tail
	}
	return finishIndex(col, shards), nil
}

// extend absorbs a scan of later documents into a copy of the shard,
// extending its range to [sh.lo, hi). A receiver served by runs is
// decoded whole from its section for the merge — the only whole-shard
// decode a paged engine makes — and the receiver keeps no copy of the
// result. The error is a failure to re-read that section.
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
		postings:    maps.Clone(old.postings),
		pathTerms:   maps.Clone(sh.pathTerms),
		termDocFreq: maps.Clone(sh.termDocFreq),
		pathNodes:   maps.Clone(old.pathNodes),
	}
	acc.absorb(delta)
	return sealShard(sh.lo, hi, acc), nil
}

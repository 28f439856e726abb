// Tombstone masking: how a masked (post-delete) generation's index hides
// dead documents without touching the immutable shards.
//
// Shards are physical: they keep every posting, node list, and summary
// count they were built with, because they are shared across generations
// and persisted verbatim in snapshots. Masking is a property of the Index
// view assembled over them. Every construction path ends in finishIndex,
// which folds the shards' counts into the corpus-global aggregates and
// then subtracts the dead documents' contributions by the same signed
// count fold (foldCounts), computed by scanning exactly the dead
// documents, so the cost is proportional to what died, not the corpus. A
// delete is therefore an Extend with no new documents: every shard is
// shared and only this view is re-derived. Compaction is the physical
// counterpart, a fresh BuildSharded over the renumbered survivors.
//
// The masked view differs from the physical one in that:
//
//   - the vocabulary, document frequencies (the IDF input), and the
//     Figure-8 context index drop terms and paths with no live
//     occurrence;
//   - allPaths drops paths occurring only in dead documents;
//   - per-shard overlap flags route the posting read paths (term and
//     prefix probes of the SLCA anchors, context scans) through a
//     live-filter — shards with no dead documents keep the zero-copy
//     fast paths untouched.
//
// The equivalence contract: a masked index answers every query exactly as
// an index built from scratch over the live documents (modulo document
// ids, which masking preserves and compaction renumbers); the lifecycle
// suite in internal/core pins this on all four corpora.

package index

import (
	"maps"

	"seda/internal/pathdict"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// finishIndex assembles the Index over shards and applies the collection's
// tombstone mask, if any. Every construction path — build, extend,
// snapshot load — funnels through here so a masked collection can never
// yield an unmasked index.
//
//seda:constructor
func finishIndex(col *store.Collection, shards []*Shard) *Index {
	return newIndex(col, shards).maskTombstones()
}

// maskTombstones returns the receiver when its collection has no
// tombstones; otherwise it derives the masked view. The receiver must
// carry freshly folded (unmasked) global aggregates — i.e. come straight
// from newIndex. Shard maps are never mutated (with one shard the globals
// alias them), so every subtraction is copy-on-write.
//
//seda:constructor
func (ix *Index) maskTombstones() *Index {
	dead := ix.col.Tombstones()
	if dead.Len() == 0 {
		return ix
	}
	deadIDs := dead.IDs()
	deadDocs := make([]*xmldoc.Document, 0, len(deadIDs))
	for _, id := range deadIDs {
		deadDocs = append(deadDocs, ix.col.Doc(id))
	}
	// The dead documents' exact index contributions, via the same scan
	// that built the shards, subtracted by the same count fold.
	delta := scanDocs(deadDocs)
	live := &shardAcc{termDocFreq: maps.Clone(ix.termDocFreq), pathTerms: maps.Clone(ix.pathTerms)}
	live.foldCounts(delta, -1)
	terms := make([]string, 0, len(live.termDocFreq))
	for _, t := range ix.terms {
		if live.termDocFreq[t] > 0 {
			terms = append(terms, t)
		}
	}

	deadPathCount := make(map[pathdict.PathID]int, len(delta.pathNodes))
	for p, refs := range delta.pathNodes {
		deadPathCount[p] = len(refs)
	}
	all := make([]pathdict.PathID, 0, len(ix.allPaths))
	for _, p := range ix.allPaths {
		// ix is still unmasked here, so nodesAtPathLen sums the physical
		// roster counts.
		if ix.nodesAtPathLen(p)-deadPathCount[p] > 0 {
			all = append(all, p)
		}
	}

	shardDead := make([]bool, len(ix.shards))
	for i, sh := range ix.shards {
		shardDead[i] = dead.AnyInRange(sh.lo, sh.hi)
	}

	return &Index{
		col:           ix.col,
		shards:        ix.shards,
		terms:         terms,
		termDocFreq:   live.termDocFreq,
		pathTerms:     live.pathTerms,
		allPaths:      all,
		dead:          dead,
		shardDead:     shardDead,
		deadPathCount: deadPathCount,
		cache:         newTermCache(termCacheBudget),
	}
}

// livePostings filters postings of masked documents out of ps, which must
// belong to shard s. When the shard's range holds no dead documents the
// slice is returned as-is — the zero-copy contract of the read paths is
// preserved exactly for unmasked shards.
func (ix *Index) livePostings(s int, ps []Posting) []Posting {
	if len(ps) == 0 || ix.shardDead == nil || !ix.shardDead[s] {
		return ps
	}
	out := ps
	copied := false
	for i, p := range ps {
		if ix.dead.Has(p.Ref.Doc) {
			if !copied {
				out = append([]Posting(nil), ps[:i]...)
				copied = true
			}
			continue
		}
		if copied {
			out = append(out, p)
		}
	}
	return out
}

// liveRefs is livePostings for per-path node lists.
func (ix *Index) liveRefs(s int, refs []xmldoc.NodeRef) []xmldoc.NodeRef {
	if len(refs) == 0 || ix.shardDead == nil || !ix.shardDead[s] {
		return refs
	}
	out := refs
	copied := false
	for i, r := range refs {
		if ix.dead.Has(r.Doc) {
			if !copied {
				out = append([]xmldoc.NodeRef(nil), refs[:i]...)
				copied = true
			}
			continue
		}
		if copied {
			out = append(out, r)
		}
	}
	return out
}

// TombstoneStats reports the masking state for observability surfaces.
type TombstoneStats struct {
	// Docs is the document-id space size; Dead the masked count.
	Docs, Dead int
	// MaskedShards counts shards whose range overlaps the tombstone set.
	MaskedShards int
}

// TombstoneStats summarizes the index's tombstone mask (zero when
// unmasked).
func (ix *Index) TombstoneStats() TombstoneStats {
	st := TombstoneStats{Docs: ix.col.NumDocs(), Dead: ix.dead.Len()}
	for _, masked := range ix.shardDead {
		if masked {
			st.MaskedShards++
		}
	}
	return st
}

// Tombstone masking: how a masked (post-delete) generation's index hides
// dead documents without touching the immutable shards.
//
// Shards are physical: they keep every posting, node list, and summary
// count they were built with, because they are shared across generations
// and persisted verbatim in snapshots. Masking is a property of the Index
// view assembled over them — finishIndex re-derives the corpus-global
// aggregates by the usual shard fold and then subtracts the dead
// documents' contributions (computed by scanning exactly the dead
// documents, so the cost is proportional to what died, not the corpus):
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
	"fmt"

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
	// that built the shards.
	delta := scanDocs(deadDocs)

	tdf := make(map[string]int, len(ix.termDocFreq))
	for t, n := range ix.termDocFreq {
		tdf[t] = n
	}
	for t, d := range delta.termDocFreq {
		if live := tdf[t] - d; live > 0 {
			tdf[t] = live
		} else {
			delete(tdf, t)
		}
	}
	terms := make([]string, 0, len(tdf))
	for _, t := range ix.terms {
		if tdf[t] > 0 {
			terms = append(terms, t)
		}
	}

	pt := make(map[string]map[pathdict.PathID]int, len(ix.pathTerms))
	for t, m := range ix.pathTerms {
		pt[t] = m
	}
	for t, dm := range delta.pathTerms {
		cur, ok := pt[t]
		if !ok {
			continue
		}
		nm := make(map[pathdict.PathID]int, len(cur))
		for p, n := range cur {
			nm[p] = n
		}
		for p, n := range dm {
			if live := nm[p] - n; live > 0 {
				nm[p] = live
			} else {
				delete(nm, p)
			}
		}
		if len(nm) == 0 {
			delete(pt, t)
		} else {
			pt[t] = nm
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
		termDocFreq:   tdf,
		pathTerms:     pt,
		allPaths:      all,
		dead:          dead,
		shardDead:     shardDead,
		deadPathCount: deadPathCount,
		cache:         newTermCache(termCacheBudget),
	}
}

// WithTombstones derives the masked index for col — a collection over the
// receiver's exact document-id space that carries (additional)
// tombstones. The shards are shared untouched; only the global aggregates
// and the masking state are rebuilt. This is the index step of
// core.Engine.DeleteDocuments.
//
//seda:constructor
func (ix *Index) WithTombstones(col *store.Collection) (*Index, error) {
	if err := validateShards(col, ix.shards); err != nil {
		return nil, err
	}
	return finishIndex(col, ix.shards), nil
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

// Compact builds the index for compacted — the renumbered survivor
// collection derived from the receiver's (masked) collection by
// store.Compacted. Shards lying wholly below the first tombstone cover
// documents whose ids the renumbering preserves, so they are reused
// as-is; the rest of the document range is rebuilt from the survivor
// documents over evenly rebalanced ranges (the tombstone-heavy and
// skew-prone part of the layout). parallelism bounds the scan workers per
// rebuilt shard.
//
// The result is unmasked and answers byte-identically to a from-scratch
// BuildSharded over compacted (answers are partition-independent; the
// shard equivalence tests in internal/core pin that).
//
//seda:constructor
func (ix *Index) Compact(compacted *store.Collection, parallelism int) (*Index, error) {
	dead := ix.col.Tombstones()
	if dead.Len() == 0 {
		return nil, fmt.Errorf("index: compacting an index without tombstones")
	}
	if compacted.Tombstones().Len() != 0 {
		return nil, fmt.Errorf("index: compaction target still carries tombstones")
	}
	if compacted.NumDocs() != ix.col.NumLive() {
		return nil, fmt.Errorf("index: compaction target has %d documents, want %d survivors",
			compacted.NumDocs(), ix.col.NumLive())
	}
	firstDead := int(dead.IDs()[0])
	var kept []*Shard
	for _, sh := range ix.shards {
		if sh.hi > firstDead {
			break
		}
		kept = append(kept, sh)
	}
	lo := 0
	if len(kept) > 0 {
		lo = kept[len(kept)-1].hi
	}
	docs := compacted.Docs()
	remaining := len(docs) - lo
	shards := append(make([]*Shard, 0, len(ix.shards)), kept...)
	if remaining > 0 {
		slots := len(ix.shards) - len(kept)
		if slots < 1 {
			slots = 1
		}
		if slots > remaining {
			slots = remaining
		}
		for s := 0; s < slots; s++ {
			a, b := lo+s*remaining/slots, lo+(s+1)*remaining/slots
			shards = append(shards, buildShardRange(docs[a:b], a, parallelism))
		}
	}
	return finishIndex(compacted, shards), nil
}

// TombstoneStats reports the masking state for observability surfaces.
type TombstoneStats struct {
	// Docs is the document-id space size; Dead the masked count.
	Docs, Dead int
	// MaskedShards counts shards whose range overlaps the tombstone set
	// (the shards a compaction would rewrite).
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

// Tombstone masking: how a masked (post-delete) generation's index hides
// dead documents without touching the immutable shards.
//
// Shards are physical: they keep every posting, node list, and summary
// count they were built with, because they are shared across generations
// and persisted verbatim in snapshots. Masking is a property of the Index
// view assembled over them. The view carries the dead documents' counts
// as tallies — document frequencies, context-index counts and per-path
// node counts, found by the same scan that builds shards — which the
// read paths subtract (DocFreq, vocab, contextPaths, nodesAtPathLen).
// Each generation scans only the documents that died since the one it
// derives from, and pushes their tally onto its predecessor's under the
// segments' log-structured merge policy (package segments), so a delete
// scans what died, not the corpus or the dead set. A delete is therefore
// an Extend with no new documents: every shard is shared and only this
// view grows. Compaction is the physical counterpart: the shards before
// the first dead document are kept, the renumbered survivors after them
// are scanned as one segment, and the view starts over unmasked (see
// ingest.go).
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
	"slices"

	"seda/internal/pathdict"
	"seda/internal/segments"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// finishIndex assembles the Index over the base shards followed by segs
// and applies the collection's tombstone mask, if any. Every construction
// path — build, extend, snapshot load — masks its collection's tombstones,
// so a masked collection can never yield an unmasked index.
//
//seda:constructor
func finishIndex(col *store.Collection, base, segs []*Shard) *Index {
	ix := newIndex(col, base, segs)
	ix.mask()
	return ix
}

// tally is the count-only share of a set of documents in the global
// aggregates: what a masked index subtracts for its dead documents.
//
//seda:immutable
type tally struct {
	docs        int
	termDocFreq map[string]int
	pathTerms   map[string]map[pathdict.PathID]int
	pathCount   map[pathdict.PathID]int // nodes per path
}

// tallyOf returns the tally of docs.
//
//seda:constructor
func tallyOf(docs []*xmldoc.Document) *tally {
	acc := scanDocs(docs)
	t := &tally{docs: len(docs), termDocFreq: acc.termDocFreq, pathTerms: acc.pathTerms, pathCount: make(map[pathdict.PathID]int, len(acc.pathNodes))}
	for p, refs := range acc.pathNodes {
		t.pathCount[p] = len(refs)
	}
	return t
}

// mergeTallies returns the tally of a's documents and b's together,
// writing neither.
//
//seda:constructor
func mergeTallies(a, b *tally) (*tally, error) {
	acc := &shardAcc{termDocFreq: maps.Clone(a.termDocFreq), pathTerms: maps.Clone(a.pathTerms)}
	acc.foldCounts(&shardAcc{termDocFreq: b.termDocFreq, pathTerms: b.pathTerms}, 1)
	t := &tally{docs: a.docs + b.docs, termDocFreq: acc.termDocFreq, pathTerms: acc.pathTerms, pathCount: maps.Clone(a.pathCount)}
	for p, n := range b.pathCount {
		t.pathCount[p] += n
	}
	return t, nil
}

// mask brings the masking state of ix, an index under construction, up to
// its collection's tombstones. ix carries the state of the generation it
// derives from (none for a build or a load): only the documents that died
// since are scanned, their tally is pushed onto the dead parts, and the
// paths left without a live node leave allPaths.
//
//seda:constructor
func (ix *Index) mask() {
	dead := ix.col.Tombstones()
	if dead.Len() == 0 {
		return
	}
	var newly []*xmldoc.Document
	for _, id := range dead.IDs() {
		if !ix.dead.Has(id) {
			newly = append(newly, ix.col.Doc(id))
		}
	}
	ix.dead = dead
	ix.shardDead = make([]bool, len(ix.shards))
	for i, sh := range ix.shards {
		ix.shardDead[i] = dead.AnyInRange(sh.lo, sh.hi)
	}
	if len(newly) == 0 {
		return
	}
	t := tallyOf(newly)
	// Merging tallies cannot fail.
	ix.deadParts, _ = segments.Push(ix.deadParts, t, func(t *tally) int { return t.docs }, mergeTallies)
	gone := make(map[pathdict.PathID]bool)
	for p := range t.pathCount {
		if ix.nodesAtPathLen(p) == 0 {
			gone[p] = true
		}
	}
	if len(gone) > 0 {
		ix.allPaths = slices.DeleteFunc(slices.Clone(ix.allPaths), func(p pathdict.PathID) bool { return gone[p] })
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

// Document lifecycle beyond append-only ingest: delete, update, and
// compaction, each deriving a NEW engine generation through the same
// derive step as AddDocuments (see generation.go for the generation
// contract).
//
// Delete and update never touch the immutable shards or stored
// documents. They mask document ids in a tombstone set the new
// generation's collection carries (store.Tombstones); every read path —
// top-k match fetches, SLCA anchors, context scans, phrase intersection,
// summary and cube folds — consults the mask, so the documents vanish
// from answers while sessions pinned to older generations keep a
// consistent view. The index's share of a delete is the newly dead
// documents' counts, scanned once and subtracted where the global
// aggregates are read (see internal/index/tombstones.go); an update adds
// the replacement as a segment in the same step.
//
// The link graph and the dataguide summary cannot subtract a document:
// under §6.1 a later document joins the FIRST guide containing it, else
// the best overlap, both judged against path sets earlier documents
// grew, so removing a document's paths (even as per-path counts) cannot
// undo the choices it steered, and the first-occurrence id table cannot
// forget an owner. Both are kept as a base plus segments, though, and
// both are left folds in id order, so the state of the segments before
// the oldest one holding a newly dead document depends on those
// segments' documents only. A delete or update therefore drops the
// segments from there on and re-folds their live documents, with the
// update's replacement, as one new segment on top of the kept prefix —
// exactly the from-scratch fold over the survivors, at the cost of the
// documents ingested since that segment began. A dead base document
// re-folds from empty (see internal/graph/fold.go and
// internal/dataguide/fold.go).
//
// Compaction is the physical counterpart: it rewrites the masked
// generation into an unmasked one, dead documents dropped and the
// survivors after the first of them renumbered contiguously, with answers
// byte-identical to a from-scratch build over the survivors (the
// equivalence the lifecycle suite pins on every corpus). It follows the
// same restart rule: every layer keeps its parts that end at or before
// the first dead document, their ids unchanged, and folds the renumbered
// survivors from the first part it drops as one segment, so compacting
// documents that died soon after they were ingested costs those
// documents, not the corpus. Only a dead document in the index's base,
// or a base laid out at another shard count than the configured one,
// rebuilds every layer from empty, the index at the configured shard
// count.

package core

import (
	"fmt"
	"slices"
	"time"

	"seda/internal/index"
	"seda/internal/xmldoc"
)

// ErrNoSuchDocument reports a lifecycle operation addressing a name with
// no live document.
type ErrNoSuchDocument struct{ Name string }

func (e *ErrNoSuchDocument) Error() string {
	return fmt.Sprintf("core: no live document named %q", e.Name)
}

// DeleteDocuments derives a new engine generation masking every live
// document with one of the given names, and returns it with the number
// of documents masked. Names with no live document fail the whole call
// (no generation is produced); a name given more than once masks its
// documents once. The receiver is unchanged; see generation.go for the
// generation contract.
//
// BuildTimings on the returned engine records "delete-index",
// "delete-graph", "delete-dataguide", and the total under "delete".
func (e *Engine) DeleteDocuments(names ...string) (*Engine, int, error) {
	if len(names) == 0 {
		return nil, 0, fmt.Errorf("core: no documents to delete")
	}
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()

	var ids []xmldoc.DocID
	for _, name := range names {
		found := e.col.LiveIDsByName(name)
		if len(found) == 0 {
			return nil, 0, &ErrNoSuchDocument{Name: name}
		}
		ids = append(ids, found...)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	t0 := time.Now()
	col, err := e.col.WithTombstones(ids)
	if err != nil {
		return nil, 0, err
	}
	ne, err := derive(e, e.cfg, step{op: "delete", start: t0, col: col, restart: xmldoc.DocID(e.col.NumDocs())})
	if err != nil {
		return nil, 0, err
	}
	return ne, len(ids), nil
}

// UpdateDocumentXML derives a new engine generation in which the live
// documents named name are replaced by the single document parsed from
// data: the old ids are tombstoned and the replacement is appended, in
// ONE generation swap — readers never observe the name absent. When no
// live document carries the name the call degenerates to an ingest of
// the new document (PUT-as-upsert).
//
// BuildTimings records "update-index", "update-graph",
// "update-dataguide", and the total under "update".
func (e *Engine) UpdateDocumentXML(name string, data []byte) (*Engine, error) {
	doc, err := xmldoc.Parse(data, e.col.Dict())
	if err != nil {
		return nil, fmt.Errorf("core: update %q: %w", name, err)
	}
	doc.Name = name

	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	t0 := time.Now()
	col := e.col
	if ids := col.LiveIDsByName(name); len(ids) > 0 {
		if col, err = col.WithTombstones(ids); err != nil {
			return nil, err
		}
	}
	return e.appendGeneration("update", t0, col, []*xmldoc.Document{doc})
}

// Compact derives the physically compacted generation: a new collection
// over the live documents only, the survivors after the first dead
// document renumbered contiguously. Every layer keeps its parts before
// that document, ids unchanged, and folds the survivors from the first
// part it drops as one segment; when the index's base holds a dead
// document, or is laid out at another shard count than the configured
// one, every layer is rebuilt from empty instead, the index at the
// configured shard count. The result carries no tombstones. The new
// shards are resident until a save binds them to its sections, as a new
// segment is. Errors when the engine carries no tombstones or every
// document is masked. The compacted engine answers byte-identically to a
// from-scratch build over the surviving documents.
//
// BuildTimings records "compact-index", "compact-graph",
// "compact-dataguide", and the total under "compact".
func (e *Engine) Compact() (*Engine, error) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()

	if e.col.Tombstones().Len() == 0 {
		return nil, fmt.Errorf("core: nothing to compact (no tombstones)")
	}
	if e.col.NumLive() == 0 {
		return nil, fmt.Errorf("core: cannot compact an engine with no live documents")
	}
	t0 := time.Now()
	col, restart := e.col.Compacted()
	return derive(e, e.cfg, step{op: "compact", start: t0, col: col, restart: restart})
}

// TombstoneStats reports the engine's masking state (zero when
// unmasked).
func (e *Engine) TombstoneStats() index.TombstoneStats { return e.ix.TombstoneStats() }

// TombstoneRatio returns the fraction of the document-id space that is
// masked — the compactor's threshold input. 0 for unmasked engines.
func (e *Engine) TombstoneRatio() float64 {
	if n := e.col.NumDocs(); n > 0 {
		return float64(e.col.Tombstones().Len()) / float64(n)
	}
	return 0
}

// NumLiveDocs returns the number of live (unmasked) documents.
func (e *Engine) NumLiveDocs() int { return e.col.NumLive() }

// Document lifecycle beyond append-only ingest: delete, update, and
// compaction, each deriving a NEW engine generation exactly like
// AddDocuments does (see ingest.go for the generation contract).
//
// Delete and update never touch the immutable shards or stored
// documents. They mask document ids in a tombstone set the new
// generation's collection carries (store.Tombstones); every read path —
// top-k match fetches, SLCA anchors, context scans, phrase intersection,
// summary and cube folds — consults the mask, so the documents vanish
// from answers while sessions pinned to older generations keep a
// consistent view. The link graph and dataguide summary are re-derived
// over the survivors: both are order-dependent folds (first-occurrence-
// wins id tables, §6.1 absorption) that cannot be un-folded, and
// rebuilding them over the live documents in id order reproduces exactly
// the state a from-scratch build over the survivors would reach.
//
// The re-fold is deliberate, not a missing optimization. Under §6.1 a
// later document joins the FIRST guide containing it, else the best
// overlap, both judged against path sets that earlier documents grew; so
// subtracting a deleted document's paths (even as per-path counts) cannot
// undo the choices it steered, and the result would drift from the
// from-scratch build the lifecycle suite pins. The bitset fold re-derives
// a Mondial-sized summary in a few milliseconds, which leaves delta
// machinery nothing to win.
//
// Compaction is the physical counterpart: it rewrites the masked
// generation into an unmasked one — dead postings dropped, survivors
// renumbered contiguously, skewed shard ranges rebalanced — with answers
// byte-identical to a from-scratch build over the survivors (the
// equivalence the lifecycle suite pins on every corpus).

package core

import (
	"fmt"
	"time"

	"seda/internal/cube"
	"seda/internal/dataguide"
	"seda/internal/graph"
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
// (no generation is produced). The receiver is unchanged; see the
// package comment in ingest.go for the generation contract.
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
	ne, err := e.maskGeneration(ids, nil, "delete")
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
	return e.maskGeneration(e.col.LiveIDsByName(name), doc, "update")
}

// maskGeneration derives the generation masking ids and, for updates,
// appending replacement. Callers hold ingestMu. op prefixes the
// BuildTimings keys.
func (e *Engine) maskGeneration(ids []xmldoc.DocID, replacement *xmldoc.Document, op string) (*Engine, error) {
	t0 := time.Now()
	col := e.col
	if len(ids) > 0 {
		var err error
		if col, err = col.WithTombstones(ids); err != nil {
			return nil, err
		}
	}
	masked := col
	var newDocs []*xmldoc.Document
	if replacement != nil {
		newDocs = []*xmldoc.Document{replacement}
		col = col.Extend(newDocs)
	}

	ne := &Engine{
		col:          col,
		cfg:          e.cfg,
		BuildTimings: make(map[string]time.Duration),
	}

	t := time.Now()
	if replacement != nil {
		// Extend re-derives the mask from col's tombstones (finishIndex),
		// so one index step covers both the masking and the append.
		ix, err := e.ix.Extend(col, newDocs)
		if err != nil {
			return nil, err
		}
		ne.ix = ix
	} else {
		ix, err := e.ix.WithTombstones(masked)
		if err != nil {
			return nil, err
		}
		ne.ix = ix
	}
	ne.BuildTimings[op+"-index"] = time.Since(t)

	if err := ne.rebuildDerived(e, op); err != nil {
		return nil, err
	}

	ne.finish()
	ne.shareSessionState(e)
	ne.BuildTimings[op] = time.Since(t0)
	return ne, nil
}

// rebuildDerived reconstructs the link graph and dataguide summary over
// ne.col's live documents. Both are order-dependent folds, so masking
// cannot subtract a document's contribution; rebuilding over the
// survivors in id order reproduces the from-scratch state (masked
// documents are skipped by EachNode and LiveDocs, so the fold never
// sees them).
func (ne *Engine) rebuildDerived(e *Engine, op string) error {
	t := time.Now()
	g := graph.New(ne.col)
	g.DiscoverLinks(e.cfg.Discover)
	for _, vl := range e.cfg.ValueLinks {
		g.AddValueLinks(vl.FromPath, vl.ToPath, vl.Label)
	}
	ne.g = g
	ne.BuildTimings[op+"-graph"] = time.Since(t)

	if e.dg != nil {
		t = time.Now()
		dg, err := dataguide.Build(ne.col, g, e.cfg.DataguideThreshold)
		if err != nil {
			return err
		}
		ne.dg = dg
		ne.BuildTimings[op+"-dataguide"] = time.Since(t)
	}
	return nil
}

// shareSessionState carries the cross-generation session state — catalog,
// entity registry, search metrics, pager — from e onto ne, exactly as
// AddDocuments does. Call after ne.finish().
func (ne *Engine) shareSessionState(e *Engine) {
	ne.catalog = e.catalog
	ne.builder = cube.NewBuilder(ne.col, ne.catalog)
	ne.entities = e.entities
	ne.searchMetrics.Store(e.searchMetrics.Load())
	ne.pager = e.pager
}

// Compact derives the physically compacted generation: a new collection
// over the live documents only, renumbered contiguously, with index
// shards below the first tombstone reused as-is and the rest rebuilt
// over rebalanced ranges (dead postings dropped, global aggregates
// re-derived). Errors when the engine carries no tombstones or every
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
	col := e.col.Compacted()
	ne := &Engine{
		col:          col,
		cfg:          e.cfg,
		BuildTimings: make(map[string]time.Duration),
	}

	t := time.Now()
	ix, err := e.ix.Compact(col, resolveParallelism(e.cfg.Parallelism))
	if err != nil {
		return nil, err
	}
	ne.ix = ix
	ne.BuildTimings["compact-index"] = time.Since(t)

	if err := ne.rebuildDerived(e, "compact"); err != nil {
		return nil, err
	}

	ne.finish()
	ne.shareSessionState(e)
	// Rebuilt shards are fresh and fully resident; re-attaching the shared
	// pager admits them (kept shards already carry it — admit is
	// idempotent) and evicts back down to the budget, so compacted shards
	// join the paging regime exactly like loaded or extended ones.
	if ne.pager != nil {
		ne.ix.AttachPager(ne.pager)
	}
	ne.BuildTimings["compact"] = time.Since(t0)
	return ne, nil
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

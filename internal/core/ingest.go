// Incremental document ingest (the "searchable the moment it lands"
// property the paper's exploration loop assumes): AddDocuments derives a
// NEW engine generation from an existing one by extending every derived
// layer — path dictionary, collection statistics, full-text indexes, link
// graph, dataguide summary — instead of rebuilding them from the full
// corpus.
//
// The contract that makes this safe and testable:
//
//   - Generations are immutable. The receiver engine is never modified
//     (the shared path dictionary is append-only and internally
//     synchronized); sessions and caches holding the old generation keep
//     reading a fully consistent corpus while and after the new one is
//     assembled.
//   - Equivalence. An engine reached by any sequence of AddDocuments calls
//     answers every query — top-k, context summaries, connection
//     summaries — byte-identically to an engine built from scratch over
//     the same documents in the same order (enforced by the -race
//     equivalence tests in ingest_test.go, measured by bench/'s
//     lifecycle.churn workload).
//
// The fact/dimension catalog and the entity registry are user session
// state, not derived data: the new generation shares them with the old
// one, so definitions added while exploring survive an ingest.

package core

import (
	"fmt"
	"time"

	"seda/internal/cube"
	"seda/internal/graph"
	"seda/internal/xmldoc"
)

// IngestDoc is one raw XML document handed to AddDocumentsXML.
type IngestDoc struct {
	Name string
	XML  []byte
}

// AddDocumentsXML parses each document against the engine's path
// dictionary and derives a new engine generation containing them; see
// AddDocuments. A parse failure aborts the whole batch (no generation is
// produced; paths interned by earlier documents of the batch remain in
// the shared dictionary, which is harmless — unused paths are never
// served).
func (e *Engine) AddDocumentsXML(docs []IngestDoc) (*Engine, error) {
	parsed := make([]*xmldoc.Document, 0, len(docs))
	for _, d := range docs {
		doc, err := xmldoc.Parse(d.XML, e.col.Dict())
		if err != nil {
			return nil, fmt.Errorf("core: ingest %q: %w", d.Name, err)
		}
		doc.Name = d.Name
		parsed = append(parsed, doc)
	}
	return e.AddDocuments(parsed)
}

// AddDocuments returns a new engine generation serving the receiver's
// documents plus docs, appended in order. docs must be finalized against
// the receiver's dictionary (xmldoc.Parse with Collection().Dict(), or
// xmldoc.Finalize). Every derived layer is extended incrementally:
//
//   - the collection gains the documents and updates its per-path
//     statistics over copied tables;
//   - the index scans only the new documents and merges the delta segment
//     into copied posting lists (the BuildParallel merge identity);
//   - the graph discovers links incident to the new documents only,
//     including old references the new documents finally resolve;
//   - the dataguide summary absorbs the new documents' profiles,
//     continuing the §6.1 fold;
//   - the catalog and entity registry are shared with the receiver.
//
// The receiver is unchanged and both generations serve concurrent readers
// per the package concurrency contract. Concurrent AddDocuments calls on
// one engine are serialized internally, but each still derives from the
// same receiver — callers wanting a linear history (a serving registry)
// must chain calls on the newest generation themselves.
//
// BuildTimings on the returned engine records the per-layer ingest times
// under "ingest-index", "ingest-graph", "ingest-dataguide", and the total
// under "ingest".
func (e *Engine) AddDocuments(docs []*xmldoc.Document) (*Engine, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("core: no documents to add")
	}
	for _, d := range docs {
		if d == nil || d.Root == nil {
			return nil, fmt.Errorf("core: cannot ingest an empty document")
		}
	}
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()

	t0 := time.Now()
	col := e.col.Extend(docs)
	ne := &Engine{
		col:          col,
		cfg:          e.cfg,
		parallelism:  e.parallelism,
		BuildTimings: make(map[string]time.Duration),
	}

	t := time.Now()
	ix, err := e.ix.Extend(col, docs)
	if err != nil {
		return nil, err
	}
	ne.ix = ix
	ne.BuildTimings["ingest-index"] = time.Since(t)

	t = time.Now()
	g := e.g.CloneFor(col)
	g.DiscoverIncremental(e.cfg.Discover, docs)
	if len(e.cfg.ValueLinks) > 0 {
		specs := make([]graph.ValueLinkSpec, len(e.cfg.ValueLinks))
		for i, vl := range e.cfg.ValueLinks {
			specs[i] = graph.ValueLinkSpec{FromPath: vl.FromPath, ToPath: vl.ToPath, Label: vl.Label}
		}
		g.ExtendValueLinks(specs, docs)
	}
	ne.g = g
	ne.BuildTimings["ingest-graph"] = time.Since(t)

	if e.dg != nil {
		t = time.Now()
		dg, err := e.dg.Extend(col, g, docs)
		if err != nil {
			return nil, err
		}
		ne.dg = dg
		ne.BuildTimings["ingest-dataguide"] = time.Since(t)
	}

	ne.finish()
	// Session state carries across generations: the catalog the user has
	// been expanding and the entity labels keep working against the new
	// engine (both synchronize internally and may be shared with the old
	// generation's remaining readers).
	ne.catalog = e.catalog
	ne.builder = cube.NewBuilder(col, ne.catalog)
	ne.entities = e.entities
	// The metric family set is shared too, so search counters stay
	// monotonic across generation swaps. The pager likewise: the new
	// index's shards already carry it (non-tail shards are shared and the
	// extended tail was admitted by index.Extend), so the resident budget
	// keeps spanning the generation actually serving queries.
	ne.searchMetrics.Store(e.searchMetrics.Load())
	ne.pager = e.pager
	ne.BuildTimings["ingest"] = time.Since(t0)
	return ne, nil
}

// Incremental document ingest (the "searchable the moment it lands"
// property the paper's exploration loop assumes): AddDocuments derives a
// NEW engine generation from an existing one by extending every derived
// layer — path dictionary, collection statistics, full-text indexes, link
// graph, dataguide summary — instead of rebuilding them from the full
// corpus. See generation.go for the generation contract.

package core

import (
	"fmt"
	"time"

	"seda/internal/store"
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
//   - the index scans only the new documents and seals the scan as a
//     segment appended after the existing shards, which it shares (see
//     index.Extend for how segments merge);
//   - the graph appends a segment of the links incident to the new
//     documents only, including old references the new documents
//     finally resolve (see graph.Graph.Extend);
//   - the dataguide summary appends a segment absorbing the new
//     documents' profiles, continuing the §6.1 fold;
//   - the catalog, entity registry, search metrics and pager are shared
//     with the receiver.
//
// The receiver is unchanged and both generations serve concurrent readers
// per the package concurrency contract. Concurrent lifecycle calls on one
// engine are serialized internally, but each still derives from the same
// receiver — callers wanting a linear history (a serving registry) must
// chain calls on the newest generation themselves.
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
	return e.appendGeneration("ingest", time.Now(), e.col, docs)
}

// appendGeneration derives the generation appending docs to col, which is
// the receiver's collection, possibly masked by the same op. Callers hold
// ingestMu.
func (e *Engine) appendGeneration(op string, start time.Time, col *store.Collection, docs []*xmldoc.Document) (*Engine, error) {
	// The index's Extend re-derives the mask from col's tombstones, so one
	// index step covers an update's masking and its append.
	return derive(e, e.cfg, step{op: op, start: start, col: col.Extend(docs), added: docs, restart: xmldoc.DocID(e.col.NumDocs())})
}

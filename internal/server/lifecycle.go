// Document lifecycle on the serving tier: DELETE and PUT on
// /collections/{name}/documents/{doc}, explicit compaction on
// POST /collections/{name}/compact, and the background compactor.
//
// Each operation mirrors Ingest: the current engine derives a new
// generation (core.DeleteDocuments / UpdateDocumentXML / Compact) and
// the registry swaps the entry to it atomically. In-flight sessions
// keep reading the generation they hold, new sessions read the new one,
// and disk-backed entries re-snapshot asynchronously — a masked
// generation persists as a SEDASNAP v4 container carrying the tombstone
// section.
//
// The background compactor is threshold-triggered: when a delete or
// update leaves the tombstone ratio at or above Registry.CompactThreshold,
// one goroutine per entry (gated by regEntry.compacting) re-checks the
// ratio under the build mutex — the engine may have been compacted,
// superseded, or grown in the meantime — and rewrites the engine if it
// still qualifies.

package server

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"

	"seda/internal/core"
)

// ErrNothingToCompact reports a compaction request against an engine
// with no tombstones; the handler maps it to 409 Conflict.
var ErrNothingToCompact = errors.New("nothing to compact")

// Delete masks every live document named doc in collection name,
// swapping in the masked generation. Returns the new engine and the
// number of documents masked.
func (r *Registry) Delete(name, doc string) (*core.Engine, int, error) {
	e, err := r.lookup(name)
	if err != nil {
		return nil, 0, err
	}
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	eng, err := e.engineLocked(r)
	if err != nil {
		return nil, 0, fmt.Errorf("server: %w %q: %v", errColdBuildFailed, name, err)
	}
	next, n, err := eng.DeleteDocuments(doc)
	if err != nil {
		return nil, 0, err
	}
	r.swapGenerationLocked(e, next, "delete", lifecycleSource(e.source, "delete", doc, nil))
	r.maybeCompactAsyncLocked(e)
	return next, n, nil
}

// Update replaces the live documents named doc in collection name with
// the single document parsed from xml (PUT-as-upsert: absent names
// ingest), swapping in the new generation — delete of the old ids and
// append of the replacement are ONE swap, so readers never observe the
// name absent.
func (r *Registry) Update(name, doc string, xml []byte) (*core.Engine, error) {
	e, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	eng, err := e.engineLocked(r)
	if err != nil {
		return nil, fmt.Errorf("server: %w %q: %v", errColdBuildFailed, name, err)
	}
	next, err := eng.UpdateDocumentXML(doc, xml)
	if err != nil {
		return nil, err
	}
	r.swapGenerationLocked(e, next, "update", lifecycleSource(e.source, "update", doc, xml))
	r.maybeCompactAsyncLocked(e)
	return next, nil
}

// Compact rewrites collection name's engine without its tombstoned
// documents (explicit POST /collections/{name}/compact). Returns
// ErrNothingToCompact when the engine carries no tombstones.
func (r *Registry) Compact(name string) (*core.Engine, error) {
	e, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	return r.compactLocked(e)
}

// compactLocked derives and swaps the compacted generation; callers
// hold e.buildMu. The source tag is unchanged: compaction rewrites the
// physical layout of the same logical corpus, so a snapshot persisted
// before and after validates identically.
func (r *Registry) compactLocked(e *regEntry) (*core.Engine, error) {
	eng, err := e.engineLocked(r)
	if err != nil {
		return nil, fmt.Errorf("server: %w %q: %v", errColdBuildFailed, e.name, err)
	}
	if eng.Collection().Tombstones().Len() == 0 {
		return nil, fmt.Errorf("server: collection %q: %w", e.name, ErrNothingToCompact)
	}
	next, err := eng.Compact()
	if err != nil {
		return nil, err
	}
	r.swapGenerationLocked(e, next, "compact", e.source)
	return next, nil
}

// maybeCompactAsyncLocked starts the entry's background compactor when the
// freshly swapped generation's tombstone ratio reaches the registry
// threshold. At most one compactor runs per entry; callers hold
// e.buildMu (the ratio is read from the engine just swapped in).
func (r *Registry) maybeCompactAsyncLocked(e *regEntry) {
	if r.CompactThreshold <= 0 || e.eng == nil {
		return
	}
	if e.eng.TombstoneRatio() < r.CompactThreshold || e.eng.NumLiveDocs() == 0 {
		return
	}
	if !e.compacting.CompareAndSwap(false, true) {
		return // a compactor for this entry is already running
	}
	go func() {
		defer e.compacting.Store(false)
		e.buildMu.Lock()
		defer e.buildMu.Unlock()
		// Re-check under the lock: the entry may have been superseded, or
		// another operation (explicit compact, a large ingest diluting the
		// ratio) may have disqualified it while this goroutine was queued.
		r.mu.RLock()
		current := r.entries[e.name] == e
		r.mu.RUnlock()
		if !current || e.eng == nil {
			return
		}
		if e.eng.TombstoneRatio() < r.CompactThreshold || e.eng.NumLiveDocs() == 0 {
			return
		}
		_, _ = r.compactLocked(e) // best-effort; failures leave the masked generation serving
	}()
}

// lookup resolves a registered entry by name.
func (r *Registry) lookup(name string) (*regEntry, error) {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("server: %w %q", ErrUnknownCollection, name)
	}
	return e, nil
}

// lifecycleSource chains the entry's source tag with a delete or update
// of one document name, keeping snapshot-cache validation exact: the
// same registration plus the same lifecycle sequence revalidates,
// anything else rebuilds from source.
func lifecycleSource(prev, op, doc string, xml []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s:%s:%d:%s:%d:", len(prev), prev, op, len(doc), doc, len(xml))
	h.Write(xml)
	return fmt.Sprintf("%s:sha256=%x", op, h.Sum(nil))
}

// TombstoneRatios reports each built collection's tombstone ratio for
// the seda_tombstone_ratio gauge. Cold entries are omitted (no series
// until the engine exists).
func (r *Registry) TombstoneRatios() map[string]float64 {
	r.mu.RLock()
	entries := make([]*regEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	out := make(map[string]float64, len(entries))
	for _, e := range entries {
		if eng := e.builtEngine(); eng != nil {
			out[e.name] = eng.TombstoneRatio()
		}
	}
	return out
}

// --- HTTP handlers ---

// lifecycleStatus maps a registry lifecycle error onto an HTTP status.
func lifecycleStatus(err error) int {
	var noDoc *core.ErrNoSuchDocument
	switch {
	case errors.Is(err, ErrUnknownCollection):
		return 404
	case errors.As(err, &noDoc):
		return 404
	case errors.Is(err, ErrNothingToCompact):
		return 409
	case errors.Is(err, errColdBuildFailed):
		return 500
	}
	return 400
}

// handleDeleteDocument implements DELETE /collections/{name}/documents/{doc}:
// the document vanishes from answers via a tombstone-masked generation
// swap; the immutable shards are untouched until compaction.
func (s *Server) handleDeleteDocument(w http.ResponseWriter, r *http.Request) {
	name, doc := r.PathValue("name"), r.PathValue("doc")
	eng, n, err := s.registry.Delete(name, doc)
	if err != nil {
		writeError(w, lifecycleStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, lifecycleResponse{
		Collection:     name,
		Document:       doc,
		DocsDeleted:    n,
		Docs:           eng.NumLiveDocs(),
		Tombstones:     eng.Collection().Tombstones().Len(),
		TombstoneRatio: eng.TombstoneRatio(),
		State:          StateBuilt,
	})
}

// handleUpdateDocument implements PUT /collections/{name}/documents/{doc}:
// replace (or insert) the named document in one generation swap.
func (s *Server) handleUpdateDocument(w http.ResponseWriter, r *http.Request) {
	name, doc := r.PathValue("name"), r.PathValue("doc")
	var req updateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.XML == "" {
		writeError(w, http.StatusBadRequest, "document xml is required")
		return
	}
	eng, err := s.registry.Update(name, doc, []byte(req.XML))
	if err != nil {
		writeError(w, lifecycleStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, lifecycleResponse{
		Collection:     name,
		Document:       doc,
		Docs:           eng.NumLiveDocs(),
		Tombstones:     eng.Collection().Tombstones().Len(),
		TombstoneRatio: eng.TombstoneRatio(),
		State:          StateBuilt,
	})
}

// handleCompactCollection implements POST /collections/{name}/compact:
// the explicit compaction trigger.
func (s *Server) handleCompactCollection(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	eng, err := s.registry.Compact(name)
	if err != nil {
		writeError(w, lifecycleStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, lifecycleResponse{
		Collection: name,
		Docs:       eng.NumLiveDocs(),
		Tombstones: 0,
		State:      StateBuilt,
	})
}

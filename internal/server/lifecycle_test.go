package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seda/internal/core"
)

// Document lifecycle over the wire: DELETE and PUT on
// /collections/{name}/documents/{doc} mask documents via tombstone
// generations, POST /collections/{name}/compact rewrites them away, and
// the background compactor fires off the registry threshold. The
// byte-identical equivalence of masked and compacted engines is core's
// contract (internal/core's lifecycle suite); these tests cover the
// serving-tier contract: endpoints, generation swap, session pinning,
// persistence, and metrics.

func TestDeleteDocumentEndpoint(t *testing.T) {
	c := newTestClient(t, Options{})
	c.uploadLabs()

	var resp lifecycleResponse
	c.call("DELETE", "/collections/labs/documents/b.xml", nil, http.StatusOK, &resp)
	if resp.DocsDeleted != 1 || resp.Docs != 1 || resp.Tombstones != 1 {
		t.Fatalf("delete response %+v, want docs_deleted=1 docs=1 tombstones=1", resp)
	}
	if resp.TombstoneRatio != 0.5 {
		t.Fatalf("tombstone_ratio = %v, want 0.5", resp.TombstoneRatio)
	}

	// beta (the deleted document's only hit) is gone from fresh sessions.
	id := c.newSession("labs", `(name, beta)`)
	var tk topkResponse
	c.call("GET", "/sessions/"+id+"/topk?k=5", nil, http.StatusOK, &tk)
	if len(tk.Results) != 0 {
		t.Fatalf("deleted document still answers: %+v", tk.Results)
	}

	// The registry listing reports live docs and the tombstone count.
	var list struct {
		Collections []RegistryInfo `json:"collections"`
	}
	c.call("GET", "/collections", nil, http.StatusOK, &list)
	for _, info := range list.Collections {
		if info.Name == "labs" && (info.Docs != 1 || info.Tombstones != 1) {
			t.Fatalf("listing %+v, want docs=1 tombstones=1", info)
		}
	}

	// Deleting the same name again is a 404 (no live document carries it).
	c.call("DELETE", "/collections/labs/documents/b.xml", nil, http.StatusNotFound, nil)
	// Unknown collection: also 404.
	c.call("DELETE", "/collections/nope/documents/a.xml", nil, http.StatusNotFound, nil)
}

func TestUpdateDocumentEndpoint(t *testing.T) {
	c := newTestClient(t, Options{})
	c.uploadLabs()

	var resp lifecycleResponse
	c.call("PUT", "/collections/labs/documents/b.xml", updateRequest{
		XML: `<lab><name>betaprime</name><rating>1</rating></lab>`,
	}, http.StatusOK, &resp)
	if resp.Docs != 2 || resp.Tombstones != 1 {
		t.Fatalf("update response %+v, want docs=2 tombstones=1", resp)
	}

	// The old content is gone, the new content findable.
	id := c.newSession("labs", `(name, beta)`)
	var tk topkResponse
	c.call("GET", "/sessions/"+id+"/topk?k=5", nil, http.StatusOK, &tk)
	if len(tk.Results) != 0 {
		t.Fatalf("replaced content still answers: %+v", tk.Results)
	}
	id2 := c.newSession("labs", `(name, betaprime)`)
	c.call("GET", "/sessions/"+id2+"/topk?k=5", nil, http.StatusOK, &tk)
	if len(tk.Results) != 1 || !strings.Contains(tk.Results[0].Nodes[0].Text, "betaprime") {
		t.Fatalf("replacement not found: %+v", tk.Results)
	}

	// PUT of an absent name is an upsert, not an error.
	c.call("PUT", "/collections/labs/documents/d.xml", updateRequest{
		XML: `<lab><name>delta</name></lab>`,
	}, http.StatusOK, &resp)
	if resp.Docs != 3 {
		t.Fatalf("upsert docs = %d, want 3", resp.Docs)
	}

	// Missing body / malformed XML reject without changing the collection.
	c.call("PUT", "/collections/labs/documents/a.xml", updateRequest{}, http.StatusBadRequest, nil)
	c.call("PUT", "/collections/labs/documents/a.xml", updateRequest{XML: `<a>`}, http.StatusBadRequest, nil)
}

func TestCompactEndpoint(t *testing.T) {
	c := newTestClient(t, Options{})
	c.uploadLabs()

	// Nothing to compact yet: 409.
	c.call("POST", "/collections/labs/compact", nil, http.StatusConflict, nil)

	c.call("DELETE", "/collections/labs/documents/a.xml", nil, http.StatusOK, nil)
	var resp lifecycleResponse
	c.call("POST", "/collections/labs/compact", nil, http.StatusOK, &resp)
	if resp.Docs != 1 || resp.Tombstones != 0 {
		t.Fatalf("compact response %+v, want docs=1 tombstones=0", resp)
	}

	// The survivor still answers after the physical rewrite.
	id := c.newSession("labs", `(name, beta)`)
	var tk topkResponse
	c.call("GET", "/sessions/"+id+"/topk?k=5", nil, http.StatusOK, &tk)
	if len(tk.Results) != 1 {
		t.Fatalf("survivor lost by compaction: %+v", tk.Results)
	}
}

// TestLifecycleCacheInvalidation extends the ingest generation-swap
// regression to masking generations: delete, update and compaction each
// swap in a new engine, and a session answers from the generation it was
// created on — its held results included — while new sessions search the
// new one.
func TestLifecycleCacheInvalidation(t *testing.T) {
	c := newTestClient(t, Options{})
	c.uploadLabs()

	// The pre-delete session holds (name, *)'s results.
	oldSess := c.newSession("labs", `(name, *)`)
	var tk topkResponse
	c.call("GET", "/sessions/"+oldSess+"/topk?k=10", nil, http.StatusOK, &tk)
	if len(tk.Results) != 2 {
		t.Fatalf("want 2 pre-delete hits, got %d", len(tk.Results))
	}

	c.call("DELETE", "/collections/labs/documents/b.xml", nil, http.StatusOK, nil)

	// A fresh session asking the identical (query, k) must not see the
	// deleted document.
	newSess := c.newSession("labs", `(name, *)`)
	var fresh topkResponse
	c.call("GET", "/sessions/"+newSess+"/topk?k=10", nil, http.StatusOK, &fresh)
	if len(fresh.Results) != 1 {
		t.Fatalf("post-delete session sees %d hits, want 1", len(fresh.Results))
	}

	// The pre-delete session stays pinned to its generation: the deleted
	// document remains visible there, served from the results it holds.
	var pinned topkResponse
	c.call("GET", "/sessions/"+oldSess+"/topk?k=10", nil, http.StatusOK, &pinned)
	if len(pinned.Results) != 2 {
		t.Fatalf("pinned session sees %d hits after delete, want 2", len(pinned.Results))
	}
	if !pinned.Cached {
		t.Fatal("pinned session's identical repeat was not served from its held results")
	}

	// An update swaps generations again.
	c.call("PUT", "/collections/labs/documents/a.xml", updateRequest{
		XML: `<lab><name>alphaprime</name></lab>`,
	}, http.StatusOK, nil)
	updSess := c.newSession("labs", `(name, *)`)
	var upd topkResponse
	c.call("GET", "/sessions/"+updSess+"/topk?k=10", nil, http.StatusOK, &upd)
	if len(upd.Results) != 1 || !strings.Contains(upd.Results[0].Nodes[0].Text, "alphaprime") {
		t.Fatalf("post-update results: %+v", upd.Results)
	}

	// Compaction is one more swap.
	c.call("POST", "/collections/labs/compact", nil, http.StatusOK, nil)
	cmpSess := c.newSession("labs", `(name, *)`)
	var cmp topkResponse
	c.call("GET", "/sessions/"+cmpSess+"/topk?k=10", nil, http.StatusOK, &cmp)
	if len(cmp.Results) != 1 {
		t.Fatalf("post-compaction session sees %d hits, want 1", len(cmp.Results))
	}
}

// TestBackgroundCompaction: with a registry threshold set, a delete that
// pushes the tombstone ratio over it triggers the per-entry compactor
// goroutine, which rewrites the engine without any explicit /compact
// call.
func TestBackgroundCompaction(t *testing.T) {
	srv := New(Options{BuiltinScale: 0.05})
	srv.Registry().CompactThreshold = 0.4
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := &testClient{t: t, ts: ts}
	c.uploadLabs()

	var resp lifecycleResponse
	c.call("DELETE", "/collections/labs/documents/a.xml", nil, http.StatusOK, &resp)
	if resp.TombstoneRatio < 0.4 {
		t.Fatalf("delete left ratio %v, below the 0.4 threshold", resp.TombstoneRatio)
	}

	// The compactor runs asynchronously; poll the listing until the
	// tombstones are gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var list struct {
			Collections []RegistryInfo `json:"collections"`
		}
		c.call("GET", "/collections", nil, http.StatusOK, &list)
		var labs *RegistryInfo
		for i := range list.Collections {
			if list.Collections[i].Name == "labs" {
				labs = &list.Collections[i]
			}
		}
		if labs == nil {
			t.Fatal("labs missing from listing")
		}
		if labs.Tombstones == 0 && labs.Docs == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compaction did not run: %+v", *labs)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The compacted engine serves the survivor.
	id := c.newSession("labs", `(name, beta)`)
	var tk topkResponse
	c.call("GET", "/sessions/"+id+"/topk?k=5", nil, http.StatusOK, &tk)
	if len(tk.Results) != 1 {
		t.Fatalf("survivor lost by background compaction: %+v", tk.Results)
	}
}

// TestDeletePersists: with a disk-backed registry, a delete re-snapshots
// the masked generation (SEDASNAP v4 with the tombstones section), and a
// restarted daemon serves the masked corpus from the snapshot alone.
func TestDeletePersists(t *testing.T) {
	dir := t.TempDir()

	c1 := newDiskClient(t, dir, Options{})
	c1.call("POST", "/collections", collectionRequest{Name: "labs", Documents: labDocs}, http.StatusCreated, nil)
	// Force the build (and first persist), then delete.
	id := c1.newSession("labs", `(name, alpha)`)
	c1.call("GET", "/sessions/"+id+"/topk?k=5", nil, http.StatusOK, nil)
	c1.call("DELETE", "/collections/labs/documents/b.xml", nil, http.StatusOK, nil)

	// The masked re-snapshot is asynchronous; a restarted daemon must
	// eventually stop finding the deleted document. Poll with fresh
	// registries over the same directory.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2 := newDiskClient(t, dir, Options{})
		id2 := c2.newSession("labs", `(name, beta)`)
		var tk topkResponse
		c2.call("GET", "/sessions/"+id2+"/topk?k=5", nil, http.StatusOK, &tk)
		if len(tk.Results) == 0 {
			// And the survivor must still be there.
			id3 := c2.newSession("labs", `(name, alpha)`)
			c2.call("GET", "/sessions/"+id3+"/topk?k=5", nil, http.StatusOK, &tk)
			if len(tk.Results) != 1 {
				t.Fatalf("restarted daemon lost the survivor: %+v", tk.Results)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted daemon still serves the deleted document")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRegistryEngineDuringLifecycleWrite: while a write holds the entry's
// build mutex — an ingest, update, delete or compaction in progress —
// Registry.Engine for the built collection still returns the current
// generation at once, from the lock-free mirror.
func TestRegistryEngineDuringLifecycleWrite(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterCollection("c", testCollection(t), core.Config{}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Engine("c"); err != nil {
		t.Fatal(err)
	}
	cur, err := r.Update("c", "e.xml", []byte(`<r><v>y</v></r>`))
	if err != nil {
		t.Fatal(err)
	}
	e, err := r.lookup("c")
	if err != nil {
		t.Fatal(err)
	}
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	got := make(chan *core.Engine, 1)
	go func() {
		eng, err := r.Engine("c")
		if err != nil {
			t.Error(err)
		}
		got <- eng
	}()
	select {
	case eng := <-got:
		if eng != cur {
			t.Error("Registry.Engine returned another generation than the current one")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Registry.Engine waited on the build mutex of a built collection")
	}
}

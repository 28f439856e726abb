package server

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// Live ingest over the wire: POST /collections/{name}/documents appends to
// a registered collection by deriving a new engine generation. These tests
// cover the serving-tier contract around core's equivalence invariant
// (tested in internal/core): generation swap, session pinning, and
// asynchronous re-snapshot.

func (c *testClient) uploadLabs() {
	c.t.Helper()
	c.call("POST", "/collections", collectionRequest{Name: "labs", Documents: labDocs}, http.StatusCreated, nil)
}

func TestIngestEndpoint(t *testing.T) {
	c := newTestClient(t, Options{})
	c.uploadLabs()

	// Before the append, gamma is not findable.
	id := c.newSession("labs", `(name, gamma)`)
	var tk topkResponse
	c.call("GET", "/sessions/"+id+"/topk?k=5", nil, http.StatusOK, &tk)
	if len(tk.Results) != 0 {
		t.Fatalf("gamma visible before ingest: %+v", tk.Results)
	}

	var resp ingestResponse
	c.call("POST", "/collections/labs/documents", ingestRequest{
		Documents: []documentPayload{{Name: "c.xml", XML: `<lab><name>gamma</name><rating>3</rating></lab>`}},
	}, http.StatusOK, &resp)
	if resp.DocsAdded != 1 || resp.Docs != 3 {
		t.Fatalf("ingest response %+v, want docs_added=1 docs=3", resp)
	}
	if resp.State != StateBuilt {
		t.Fatalf("state %q, want %q", resp.State, StateBuilt)
	}

	// A new session sees the appended document.
	id2 := c.newSession("labs", `(name, gamma)`)
	c.call("GET", "/sessions/"+id2+"/topk?k=5", nil, http.StatusOK, &tk)
	if len(tk.Results) != 1 {
		t.Fatalf("gamma not found after ingest: %+v", tk.Results)
	}
	if !strings.Contains(tk.Results[0].Nodes[0].Text, "gamma") {
		t.Fatalf("unexpected hit: %+v", tk.Results[0])
	}

	// /debug/stats lists the appended document's segment after the base.
	var stats statsResponse
	c.call("GET", "/debug/stats", nil, http.StatusOK, &stats)
	if sh := stats.Collections[0].Shards; len(sh) != 2 || sh[0].Segment || !sh[1].Segment || sh[1].Lo != 2 || sh[1].Hi != 3 {
		t.Errorf("shards after ingest = %+v, want the base over [0, 2) and a segment over [2, 3)", sh)
	}
}

func TestIngestErrors(t *testing.T) {
	c := newTestClient(t, Options{})
	c.uploadLabs()

	// Unknown collection.
	c.call("POST", "/collections/nope/documents", ingestRequest{
		Documents: []documentPayload{{Name: "c.xml", XML: `<a/>`}},
	}, http.StatusNotFound, nil)
	// Empty batch.
	c.call("POST", "/collections/labs/documents", ingestRequest{}, http.StatusBadRequest, nil)
	// Malformed XML aborts the whole batch without changing the collection.
	c.call("POST", "/collections/labs/documents", ingestRequest{
		Documents: []documentPayload{{Name: "bad.xml", XML: `<a>`}},
	}, http.StatusBadRequest, nil)
	var list struct {
		Collections []RegistryInfo `json:"collections"`
	}
	c.call("GET", "/collections", nil, http.StatusOK, &list)
	for _, info := range list.Collections {
		if info.Name == "labs" && info.Docs != 2 {
			t.Fatalf("failed ingest changed the collection: %+v", info)
		}
	}
}

// TestIngestSessionPinning: a session created before an append keeps
// reading the old generation — its repeated top-k does not see the new
// document — while new sessions read the new one.
func TestIngestSessionPinning(t *testing.T) {
	c := newTestClient(t, Options{})
	c.uploadLabs()

	oldSess := c.newSession("labs", `(name, *)`)
	var before topkResponse
	c.call("GET", "/sessions/"+oldSess+"/topk?k=10", nil, http.StatusOK, &before)
	if len(before.Results) != 2 {
		t.Fatalf("want 2 pre-ingest hits, got %d", len(before.Results))
	}

	c.call("POST", "/collections/labs/documents", ingestRequest{
		Documents: []documentPayload{{Name: "c.xml", XML: `<lab><name>gamma</name></lab>`}},
	}, http.StatusOK, nil)

	// The pinned session still answers from the old corpus.
	var after topkResponse
	c.call("GET", "/sessions/"+oldSess+"/topk?k=10", nil, http.StatusOK, &after)
	if len(after.Results) != 2 {
		t.Fatalf("pinned session sees %d hits after ingest, want 2", len(after.Results))
	}

	// A fresh session asking the identical (query, k) reads the new
	// generation.
	newSess := c.newSession("labs", `(name, *)`)
	var fresh topkResponse
	c.call("GET", "/sessions/"+newSess+"/topk?k=10", nil, http.StatusOK, &fresh)
	if len(fresh.Results) != 3 {
		t.Fatalf("new session sees %d hits, want 3", len(fresh.Results))
	}
}

// TestIngestResnapshotsAsync: with a disk-backed registry, an append
// re-persists the new generation, and a restarted daemon serves the
// extended corpus from the snapshot alone.
func TestIngestResnapshotsAsync(t *testing.T) {
	dir := t.TempDir()

	c1 := newDiskClient(t, dir, Options{})
	c1.uploadLabs()
	// Force the build (and the first persist) before ingesting.
	id := c1.newSession("labs", `(name, alpha)`)
	c1.call("GET", "/sessions/"+id+"/topk?k=5", nil, http.StatusOK, nil)
	c1.call("POST", "/collections/labs/documents", ingestRequest{
		Documents: []documentPayload{{Name: "c.xml", XML: `<lab><name>gamma</name></lab>`}},
	}, http.StatusOK, nil)

	// The re-snapshot is asynchronous; poll the stats until it lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats statsResponse
		c1.call("GET", "/debug/stats", nil, http.StatusOK, &stats)
		var info *RegistryInfo
		for i := range stats.Collections {
			if stats.Collections[i].Name == "labs" {
				info = &stats.Collections[i]
			}
		}
		if info == nil {
			t.Fatal("labs missing from stats")
		}
		if info.SnapshotError != "" {
			t.Fatalf("snapshot error: %s", info.SnapshotError)
		}
		if info.State == StateBuilt && info.SnapshotBytes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-snapshot did not land: %+v", *info)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// "Restart": a fresh registry over the same directory must serve gamma
	// from the snapshot (no source registration at all).
	// Retry briefly: the landed snapshot above could in principle still be
	// the pre-ingest one if polling won a race with the async writer.
	deadline = time.Now().Add(5 * time.Second)
	for {
		c2 := newDiskClient(t, dir, Options{})
		id2 := c2.newSession("labs", `(name, gamma)`)
		var tk topkResponse
		c2.call("GET", "/sessions/"+id2+"/topk?k=5", nil, http.StatusOK, &tk)
		if len(tk.Results) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted daemon does not serve the ingested document: %+v", tk.Results)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestIngestOnColdEntry: ingesting into a registered-but-never-built
// collection builds it first, then appends — one request, no 409s.
func TestIngestOnColdEntry(t *testing.T) {
	c := newTestClient(t, Options{})
	c.uploadLabs()
	var resp ingestResponse
	c.call("POST", "/collections/labs/documents", ingestRequest{
		Documents: []documentPayload{{Name: "c.xml", XML: `<lab><name>gamma</name></lab>`}},
	}, http.StatusOK, &resp)
	if resp.Docs != 3 {
		t.Fatalf("docs = %d, want 3", resp.Docs)
	}
}

// TestIngestCatalogSurvives: fact/dimension definitions added before an
// append keep working against the new generation (the catalog is session
// state, shared across generations).
func TestIngestCatalogSurvives(t *testing.T) {
	c := newTestClient(t, Options{BuiltinScale: 0.02})
	col := c.setupWorldFactbook()

	c.call("POST", "/collections/"+col+"/documents", ingestRequest{
		Documents: []documentPayload{{Name: "extra.xml", XML: `<country><name>Atlantis</name><year>2007</year></country>`}},
	}, http.StatusOK, nil)

	// Re-adding the same catalog definitions must now conflict — proof the
	// catalog survived the generation swap.
	c.call("POST", "/collections/"+col+"/catalog", wfCatalog, http.StatusConflict, nil)
}

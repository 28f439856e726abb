package server

import (
	"net/http"
	"reflect"
	"testing"
)

// The serving tier's slice of the sharding work: the per-collection
// "shards" option plumbs through to the engine, /collections and
// /debug/stats expose the per-shard breakdown, /debug/stats reports the
// Go runtime counters, and answers are identical whatever the shard
// count.

func TestCollectionShardsOption(t *testing.T) {
	c := newTestClient(t, Options{})
	c.call("POST", "/collections", collectionRequest{
		Name: "wf", Builtin: "worldfactbook", Scale: 0.02, Shards: 3,
	}, http.StatusCreated, nil)

	// Build the engine by searching, then inspect the shard breakdown.
	var sess sessionResponse
	c.call("POST", "/sessions", sessionRequest{Collection: "wf", Query: `(*, "united states")`}, http.StatusCreated, &sess)
	c.call("GET", "/sessions/"+sess.Session+"/topk?k=5", nil, http.StatusOK, nil)

	var stats statsResponse
	c.call("GET", "/debug/stats", nil, http.StatusOK, &stats)
	if len(stats.Collections) != 1 {
		t.Fatalf("got %d collections", len(stats.Collections))
	}
	info := stats.Collections[0]
	if len(info.Shards) != 3 {
		t.Fatalf("shards = %+v, want 3 entries", info.Shards)
	}
	docs, hi := 0, 0
	for i, sh := range info.Shards {
		if sh.Lo != hi {
			t.Errorf("shard %d starts at %d, want %d", i, sh.Lo, hi)
		}
		hi = sh.Hi
		docs += sh.Docs
		if sh.Docs <= 0 || sh.Terms <= 0 || sh.Postings <= 0 || sh.Bytes <= 0 {
			t.Errorf("shard %d has empty counts: %+v", i, sh)
		}
	}
	if docs != info.Docs {
		t.Errorf("shard docs sum to %d, collection has %d", docs, info.Docs)
	}

	if stats.Runtime.GOMAXPROCS < 1 || stats.Runtime.NumCPU < 1 {
		t.Errorf("runtime stats missing scheduler width: %+v", stats.Runtime)
	}
	if stats.Runtime.HeapAlloc == 0 || stats.Runtime.Sys == 0 {
		t.Errorf("runtime stats missing memory counters: %+v", stats.Runtime)
	}

	// /collections carries the same breakdown.
	var listing struct {
		Collections []RegistryInfo `json:"collections"`
	}
	c.call("GET", "/collections", nil, http.StatusOK, &listing)
	if len(listing.Collections) != 1 || len(listing.Collections[0].Shards) != 3 {
		t.Errorf("listing shards = %+v, want 3 entries", listing.Collections)
	}
}

func TestCollectionShardsValidation(t *testing.T) {
	c := newTestClient(t, Options{})
	c.call("POST", "/collections", collectionRequest{
		Name: "bad", Builtin: "worldfactbook", Shards: MaxShards + 1,
	}, http.StatusBadRequest, nil)
	c.call("POST", "/collections", collectionRequest{
		Name: "bad2", Builtin: "worldfactbook", Shards: -1,
	}, http.StatusBadRequest, nil)
}

// TestShardedAnswersMatchOverHTTP: the same query against a 1-shard and a
// 4-shard registration of the same corpus returns identical wire results.
func TestShardedAnswersMatchOverHTTP(t *testing.T) {
	c := newTestClient(t, Options{})
	c.call("POST", "/collections", collectionRequest{Name: "one", Builtin: "worldfactbook", Scale: 0.02}, http.StatusCreated, nil)
	c.call("POST", "/collections", collectionRequest{Name: "four", Builtin: "worldfactbook", Scale: 0.02, Shards: 4}, http.StatusCreated, nil)

	results := func(col string) topkResponse {
		var sess sessionResponse
		c.call("POST", "/sessions", sessionRequest{Collection: col, Query: `(*, "united states")`}, http.StatusCreated, &sess)
		var tk topkResponse
		c.call("GET", "/sessions/"+sess.Session+"/topk?k=10", nil, http.StatusOK, &tk)
		return tk
	}
	one, four := results("one"), results("four")
	if !reflect.DeepEqual(one.Results, four.Results) {
		t.Errorf("top-k over HTTP diverges between 1 and 4 shards\none: %+v\nfour: %+v", one.Results, four.Results)
	}
}

// TestCollectionResidentBudgetNeedsSnapshots: a resident budget can only
// evict shards saved in a snapshot, so a registry without a snapshot
// directory refuses one; a disk-backed registry accepts it and pages the
// collection's shards from its snapshot.
func TestCollectionResidentBudgetNeedsSnapshots(t *testing.T) {
	mem := newTestClient(t, Options{})
	mem.call("POST", "/collections", collectionRequest{
		Name: "wf", Builtin: "worldfactbook", Scale: 0.02, ResidentBudget: 1,
	}, http.StatusBadRequest, nil)
	mem.call("POST", "/collections", collectionRequest{
		Name: "wf", Builtin: "worldfactbook", Scale: 0.02,
	}, http.StatusCreated, nil)

	disk := newDiskClient(t, t.TempDir(), Options{})
	disk.call("POST", "/collections", collectionRequest{
		Name: "wf", Builtin: "worldfactbook", Scale: 0.02, Shards: 4, ResidentBudget: 1,
	}, http.StatusCreated, nil)
	var sess sessionResponse
	disk.call("POST", "/sessions", sessionRequest{Collection: "wf", Query: `(*, "united states")`}, http.StatusCreated, &sess)
	disk.call("GET", "/sessions/"+sess.Session+"/topk?k=5", nil, http.StatusOK, nil)
	var stats statsResponse
	disk.call("GET", "/debug/stats", nil, http.StatusOK, &stats)
	if len(stats.Collections) != 1 || stats.Collections[0].Paging == nil {
		t.Fatalf("budgeted collection reports no paging: %+v", stats.Collections)
	}
	if p := stats.Collections[0].Paging; p.DiskReads == 0 || p.Evictions == 0 {
		t.Errorf("budgeted disk-backed collection did not page from its snapshot: %+v", p)
	}
}

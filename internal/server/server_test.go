package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// The paper's running example (§1) over the generated World Factbook
// corpus — the same scenario the root integration test walks through the
// library API, here driven over the wire.
const query1 = `(*, "United States") AND (trade_country, *) AND (percentage, *)`

const (
	nameP = "/country/name"
	tcP   = "/country/economy/import_partners/item/trade_country"
	pcP   = "/country/economy/import_partners/item/percentage"
	itP   = "/country/economy/import_partners/item"
)

// wfCatalog is the Figure 3(b) catalog as a catalog-endpoint payload.
var wfCatalog = catalogRequest{
	Dimensions: []defPayload{
		{Name: "country", Contexts: []defContext{{Context: nameP, Key: "(/country/name, /country/year)"}}},
		{Name: "year", Contexts: []defContext{{Context: "/country/year", Key: "(/country/name, /country/year)"}}},
		{Name: "import-country", Contexts: []defContext{{Context: tcP, Key: "(/country/name, /country/year, .)"}}},
	},
	Facts: []defPayload{
		{Name: "import-trade-percentage", Contexts: []defContext{{Context: pcP, Key: "(/country/name, /country/year, ../trade_country)"}}},
	},
}

// testClient wraps an httptest server with JSON helpers.
type testClient struct {
	t  *testing.T
	ts *httptest.Server
}

func newTestClient(t *testing.T, opts Options) *testClient {
	t.Helper()
	if opts.BuiltinScale == 0 {
		opts.BuiltinScale = 0.05
	}
	ts := httptest.NewServer(New(opts))
	t.Cleanup(ts.Close)
	return &testClient{t: t, ts: ts}
}

// call performs one request and decodes the JSON response into out (which
// may be nil). It fails the test unless the status matches wantStatus.
func (c *testClient) call(method, path string, body any, wantStatus int, out any) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			c.t.Fatalf("%s %s: marshal: %v", method, path, err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.ts.URL+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.ts.Client().Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		c.t.Fatalf("%s %s: status %d, want %d; body: %s", method, path, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: invalid JSON %q: %v", method, path, raw, err)
		}
	}
}

// setupWorldFactbook registers the builtin corpus and its catalog,
// returning the collection name.
func (c *testClient) setupWorldFactbook() string {
	c.t.Helper()
	c.call("POST", "/collections", collectionRequest{Name: "wf", Builtin: "worldfactbook"}, http.StatusCreated, nil)
	c.call("POST", "/collections/wf/catalog", wfCatalog, http.StatusOK, nil)
	return "wf"
}

func (c *testClient) newSession(collection, query string) string {
	c.t.Helper()
	var resp sessionResponse
	c.call("POST", "/sessions", sessionRequest{Collection: collection, Query: query}, http.StatusCreated, &resp)
	if resp.Session == "" {
		c.t.Fatal("empty session id")
	}
	return resp.Session
}

// TestFullExplorationLoop drives the complete Figure-6 sequence over HTTP:
// create-session → topk → contexts → refine×3 → topk → connections →
// choose → results → cube → analyze, asserting valid JSON and the paper's
// expected shapes at every step.
func TestFullExplorationLoop(t *testing.T) {
	c := newTestClient(t, Options{})
	col := c.setupWorldFactbook()
	id := c.newSession(col, query1)

	var tk topkResponse
	c.call("GET", "/sessions/"+id+"/topk?k=10", nil, http.StatusOK, &tk)
	if len(tk.Results) == 0 {
		t.Fatal("no top-k results")
	}
	if tk.Cached {
		t.Error("first topk reported cached=true")
	}
	for _, r := range tk.Results {
		if len(r.Nodes) != 3 {
			t.Fatalf("result has %d nodes, want 3 (one per term)", len(r.Nodes))
		}
	}

	var ctxs contextsResponse
	c.call("GET", "/sessions/"+id+"/contexts", nil, http.StatusOK, &ctxs)
	if len(ctxs.Contexts) != 3 {
		t.Fatalf("context buckets = %d, want 3", len(ctxs.Contexts))
	}
	found := false
	for _, e := range ctxs.Contexts[0].Entries {
		if e.Path == nameP {
			found = true
		}
	}
	if !found {
		t.Errorf("US context summary missing %s", nameP)
	}

	// Refine every term to the import interpretation (§5).
	for term, path := range map[int]string{0: nameP, 1: tcP, 2: pcP} {
		var refined sessionResponse
		c.call("POST", "/sessions/"+id+"/refine", refineRequest{Term: term, Paths: []string{path}}, http.StatusOK, &refined)
		if refined.Query == query1 {
			t.Error("refine did not rewrite the query")
		}
	}

	c.call("GET", "/sessions/"+id+"/topk?k=20", nil, http.StatusOK, &tk)
	if len(tk.Results) == 0 {
		t.Fatal("no results after refinement")
	}

	var conns connectionsResponse
	c.call("GET", "/sessions/"+id+"/connections", nil, http.StatusOK, &conns)
	if len(conns.Connections) == 0 {
		t.Fatal("no connections proposed")
	}
	// Pick the §6 same-item join and the name join, as the paper's user
	// does.
	var pick []int
	for _, cn := range conns.Connections {
		if cn.Kind != "tree" {
			continue
		}
		if cn.TermA == 1 && cn.TermB == 2 && cn.JoinPath == itP {
			pick = append(pick, cn.Index)
		}
		if cn.TermA == 0 && cn.TermB == 1 && cn.JoinPath == "/country" {
			pick = append(pick, cn.Index)
		}
	}
	if len(pick) != 2 {
		t.Fatalf("expected same-item and name joins, got %v", pick)
	}
	c.call("POST", "/sessions/"+id+"/choose", chooseRequest{Connections: pick}, http.StatusOK, nil)

	var results struct {
		Table wireTable `json:"table"`
	}
	c.call("GET", "/sessions/"+id+"/results", nil, http.StatusOK, &results)
	if results.Table.RowsTotal == 0 {
		t.Fatal("empty complete result set")
	}

	var cube cubeResponse
	c.call("POST", "/sessions/"+id+"/cube", cubeRequest{}, http.StatusOK, &cube)
	var fact *wireTable
	for i := range cube.Facts {
		for _, col := range cube.Facts[i].Cols {
			if col == "import-trade-percentage" {
				fact = &cube.Facts[i]
			}
		}
	}
	if fact == nil {
		t.Fatalf("no fact table with the measure; facts: %+v", cube.Facts)
	}
	if fact.RowsTotal != results.Table.RowsTotal {
		t.Errorf("fact rows = %d, complete results = %d", fact.RowsTotal, results.Table.RowsTotal)
	}
	if len(cube.Dimensions) == 0 {
		t.Error("no dimension tables")
	}

	var an analyzeResponse
	c.call("POST", "/sessions/"+id+"/analyze", analyzeRequest{
		Measure: "import-trade-percentage",
		Dims:    []string{"year", "trade_country"},
		GroupBy: []string{"year"},
		Agg:     "sum",
	}, http.StatusOK, &an)
	if an.Table.RowsTotal == 0 {
		t.Fatal("no aggregate rows")
	}
	if an.Agg != "SUM" {
		t.Errorf("agg = %q", an.Agg)
	}

	c.call("DELETE", "/sessions/"+id, nil, http.StatusNoContent, nil)
	c.call("GET", "/sessions/"+id, nil, http.StatusNotFound, nil)
}

// TestTopKCacheHit: a session serves an identical repeat of its current
// (query, k) from the results it holds, without a search. Everything else
// searches: a second session asking the same question, another k, and the
// session's own refined query.
func TestTopKCacheHit(t *testing.T) {
	c := newTestClient(t, Options{})
	col := c.setupWorldFactbook()

	a := c.newSession(col, query1)
	b := c.newSession(col, query1)
	searches := func() float64 {
		t.Helper()
		return sampleValue(c, c.scrape(), "seda_topk_searches_total", nil)
	}

	var tk topkResponse
	c.call("GET", "/sessions/"+a+"/topk?k=10", nil, http.StatusOK, &tk)
	if tk.Cached {
		t.Fatal("first request reported cached=true")
	}
	first := tk.Results

	// Same session, identical repeat: served from the session, no search.
	before := searches()
	c.call("GET", "/sessions/"+a+"/topk?k=10", nil, http.StatusOK, &tk)
	if !tk.Cached {
		t.Error("identical repeat in the same session was not served from the session")
	}
	if got := searches(); got != before {
		t.Errorf("identical repeat ran a search: searches_total %v -> %v", before, got)
	}
	if fmt.Sprint(tk.Results) != fmt.Sprint(first) {
		t.Error("session-held results differ from the original")
	}

	// A second session with the same query holds nothing yet: it searches.
	c.call("GET", "/sessions/"+b+"/topk?k=10", nil, http.StatusOK, &tk)
	if tk.Cached {
		t.Error("a second session's first request reported cached=true")
	}
	if got := searches(); got != before+1 {
		t.Errorf("second session: searches_total %v -> %v, want one search", before, got)
	}
	if fmt.Sprint(tk.Results) != fmt.Sprint(first) {
		t.Error("the second session's results differ from the first's")
	}

	// Another k is another question.
	c.call("GET", "/sessions/"+a+"/topk?k=5", nil, http.StatusOK, &tk)
	if tk.Cached {
		t.Error("k=5 was served from the session's k=10 results")
	}

	// A refinement drops the held results: the refined query searches,
	// and the other session still holds its own.
	c.call("POST", "/sessions/"+a+"/refine", refineRequest{Term: 1, Paths: []string{tcP}}, http.StatusOK, nil)
	c.call("GET", "/sessions/"+a+"/topk?k=10", nil, http.StatusOK, &tk)
	if tk.Cached {
		t.Error("refined query was served from the results of its parent query")
	}
	c.call("GET", "/sessions/"+b+"/topk?k=10", nil, http.StatusOK, &tk)
	if !tk.Cached || fmt.Sprint(tk.Results) != fmt.Sprint(first) {
		t.Error("refine in one session changed what another session holds")
	}
}

// TestRepeatedTopKIsReadOnly: re-fetching the identical top-k page (a UI
// re-render) must not clear the session's connection summary, so a
// subsequent choose still works.
func TestRepeatedTopKIsReadOnly(t *testing.T) {
	c := newTestClient(t, Options{})
	col := c.setupWorldFactbook()
	id := c.newSession(col, query1)

	c.call("GET", "/sessions/"+id+"/topk?k=10", nil, http.StatusOK, nil)
	var conns connectionsResponse
	c.call("GET", "/sessions/"+id+"/connections", nil, http.StatusOK, &conns)
	if len(conns.Connections) == 0 {
		t.Fatal("no connections")
	}
	// Identical re-fetch (served from the session), then choose against
	// the summary computed before it.
	var tk topkResponse
	c.call("GET", "/sessions/"+id+"/topk?k=10", nil, http.StatusOK, &tk)
	if !tk.Cached {
		t.Fatal("expected the session's held results")
	}
	c.call("POST", "/sessions/"+id+"/choose", chooseRequest{Connections: []int{0}}, http.StatusOK, nil)

	// A repeated identical GET after the choose must STILL be read-only
	// (served from session state, no recompute), so both the chosen
	// connections and the summary survive.
	c.call("GET", "/sessions/"+id+"/topk?k=10", nil, http.StatusOK, &tk)
	if len(tk.Results) == 0 {
		t.Fatal("no results from session-held top-k")
	}
	c.call("POST", "/sessions/"+id+"/choose", chooseRequest{Connections: []int{0}}, http.StatusOK, nil)
}

// TestExplainKeepsSessionSummaries: an explain request for the (query, k)
// the session already holds runs a real search, but its answer equals the
// held one, so the connection summary computed from it survives and a
// following choose still works.
func TestExplainKeepsSessionSummaries(t *testing.T) {
	c := newTestClient(t, Options{})
	col := c.setupWorldFactbook()
	id := c.newSession(col, query1)

	var held topkResponse
	c.call("GET", "/sessions/"+id+"/topk?k=10", nil, http.StatusOK, &held)
	var conns connectionsResponse
	c.call("GET", "/sessions/"+id+"/connections", nil, http.StatusOK, &conns)
	if len(conns.Connections) == 0 {
		t.Fatal("no connections")
	}
	var tk topkResponse
	c.call("POST", "/sessions/"+id+"/query", queryRequest{K: 10, Explain: true}, http.StatusOK, &tk)
	if tk.Trace == nil || tk.Trace.TopK == nil || len(tk.Trace.TopK.Waves) == 0 {
		t.Fatal("explain did not trace a real search")
	}
	if tk.Trace.Cache != "session" {
		t.Errorf("disposition = %q, want %q", tk.Trace.Cache, "session")
	}
	if fmt.Sprint(tk.Results) != fmt.Sprint(held.Results) {
		t.Fatal("explain answered differently from the held results")
	}
	c.call("POST", "/sessions/"+id+"/choose", chooseRequest{Connections: []int{0}}, http.StatusOK, nil)
}

// TestConcurrentClients runs N goroutines with distinct sessions over one
// shared engine, mixing topk, contexts, refinement, and connections. Run
// with -race; the engine's read-concurrency contract makes this safe.
func TestConcurrentClients(t *testing.T) {
	c := newTestClient(t, Options{})
	col := c.setupWorldFactbook()

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("client %d panicked: %v", i, r)
				}
			}()
			cl := &concClient{ts: c.ts}
			id, err := cl.session(col, query1)
			if err != nil {
				errs <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			steps := []func() error{
				func() error { return cl.get("/sessions/" + id + "/topk?k=10") },
				func() error { return cl.get("/sessions/" + id + "/contexts") },
				func() error { return cl.get("/sessions/" + id + "/connections") },
			}
			if i%2 == 1 {
				// Odd clients refine mid-loop: their next topk runs the
				// rewritten query while even clients keep the original.
				steps = append(steps,
					func() error {
						return cl.post("/sessions/"+id+"/refine", refineRequest{Term: 1, Paths: []string{tcP}})
					},
					func() error { return cl.get("/sessions/" + id + "/topk?k=10") },
					func() error { return cl.get("/sessions/" + id + "/connections") },
				)
			}
			for _, step := range steps {
				if err := step(); err != nil {
					errs <- fmt.Errorf("client %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// concClient is a goroutine-safe minimal client (testing.T helpers are not
// goroutine-safe for Fatal, so errors flow back through channels).
type concClient struct{ ts *httptest.Server }

func (cl *concClient) session(col, query string) (string, error) {
	buf, _ := json.Marshal(sessionRequest{Collection: col, Query: query})
	resp, err := cl.ts.Client().Post(cl.ts.URL+"/sessions", "application/json", bytes.NewReader(buf))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("create session: %d %s", resp.StatusCode, raw)
	}
	var sr sessionResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		return "", err
	}
	return sr.Session, nil
}

func (cl *concClient) get(path string) error {
	resp, err := cl.ts.Client().Get(cl.ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, raw)
	}
	if !json.Valid(raw) {
		return fmt.Errorf("GET %s: invalid JSON", path)
	}
	return nil
}

func (cl *concClient) post(path string, body any) error {
	buf, _ := json.Marshal(body)
	resp, err := cl.ts.Client().Post(cl.ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, raw)
	}
	return nil
}

// TestSessionEviction covers both eviction policies: LRU when the table is
// full, TTL when a session sits idle.
func TestSessionEviction(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	c := newTestClient(t, Options{MaxSessions: 2, SessionTTL: time.Minute, Clock: clock.Now})
	col := c.setupWorldFactbook()

	a := c.newSession(col, query1)
	clock.advance(time.Second)
	b := c.newSession(col, query1)
	clock.advance(time.Second)
	// Third session exceeds MaxSessions=2: a (least recently used) goes.
	d := c.newSession(col, query1)
	c.call("GET", "/sessions/"+a, nil, http.StatusNotFound, nil)
	c.call("GET", "/sessions/"+b, nil, http.StatusOK, nil)

	// b just got touched; d idles past the TTL and expires in place.
	clock.advance(2 * time.Minute)
	c.call("GET", "/sessions/"+d, nil, http.StatusNotFound, nil)

	var stats statsResponse
	c.call("GET", "/debug/stats", nil, http.StatusOK, &stats)
	if stats.Sessions.EvictedLRU == 0 {
		t.Error("no LRU evictions recorded")
	}
	if stats.Sessions.EvictedTTL == 0 {
		t.Error("no TTL evictions recorded")
	}
}

type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// TestUploadedCollection drives the loop over raw XML uploaded through the
// API rather than a builtin corpus.
func TestUploadedCollection(t *testing.T) {
	c := newTestClient(t, Options{})
	docs := []documentPayload{
		{Name: "a.xml", XML: `<lab><name>alpha</name><rating>4</rating></lab>`},
		{Name: "b.xml", XML: `<lab><name>beta</name><rating>5</rating></lab>`},
	}
	c.call("POST", "/collections", collectionRequest{Name: "labs", Documents: docs}, http.StatusCreated, nil)
	id := c.newSession("labs", `(name, "alpha")`)
	var tk topkResponse
	c.call("GET", "/sessions/"+id+"/topk?k=5", nil, http.StatusOK, &tk)
	if len(tk.Results) == 0 {
		t.Fatal("no results over uploaded collection")
	}
	if tk.Results[0].Nodes[0].Text != "alpha" {
		t.Errorf("matched text = %q, want alpha", tk.Results[0].Nodes[0].Text)
	}
}

// TestCubeDefineFailureDoesNotLeak: a cube request whose build fails must
// not leave its 'define' names registered in the shared catalog — the
// identical retry has to be able to proceed past the duplicate check.
func TestCubeDefineFailureDoesNotLeak(t *testing.T) {
	c := newTestClient(t, Options{})
	col := c.setupWorldFactbook()
	id := c.newSession(col, query1)
	// No topk/choose yet: BuildCube fails on missing complete results,
	// after the builder has already registered the definition.
	req := cubeRequest{Define: []definePayload{{
		Name: "leaky", Column: 0, IsFact: true,
		Key: "(/country/name, /country/year)",
	}}}
	c.call("POST", "/sessions/"+id+"/cube", req, http.StatusConflict, nil)
	// Retry must fail for the same reason — not with "already exists".
	var resp errorResponse
	c.call("POST", "/sessions/"+id+"/cube", req, http.StatusConflict, &resp)
	if strings.Contains(resp.Error, "already exists") {
		t.Fatalf("definition leaked into the catalog: %s", resp.Error)
	}
}

// TestErrorPaths pins the HTTP statuses of the failure modes clients
// actually hit.
func TestErrorPaths(t *testing.T) {
	c := newTestClient(t, Options{})
	c.setupWorldFactbook()

	// Unknown session / collection.
	c.call("GET", "/sessions/s-nope/topk", nil, http.StatusNotFound, nil)
	c.call("POST", "/sessions", sessionRequest{Collection: "nope", Query: query1}, http.StatusNotFound, nil)
	// Malformed query.
	c.call("POST", "/sessions", sessionRequest{Collection: "wf", Query: "((("}, http.StatusBadRequest, nil)
	// Duplicate collection name.
	c.call("POST", "/collections", collectionRequest{Name: "wf", Builtin: "worldfactbook"}, http.StatusConflict, nil)
	// Unknown builtin.
	c.call("POST", "/collections", collectionRequest{Name: "x", Builtin: "enron"}, http.StatusBadRequest, nil)
	// Connections before topk.
	id := c.newSession("wf", query1)
	c.call("GET", "/sessions/"+id+"/connections", nil, http.StatusConflict, nil)
	// Bad k.
	c.call("GET", "/sessions/"+id+"/topk?k=zero", nil, http.StatusBadRequest, nil)
	// Analyze before cube.
	c.call("POST", "/sessions/"+id+"/analyze", analyzeRequest{Measure: "m", Dims: []string{"d"}}, http.StatusConflict, nil)
}

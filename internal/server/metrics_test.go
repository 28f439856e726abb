package server

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"testing"

	"seda/internal/obs"
)

// scrape fetches /metrics, validates the exposition against the text
// format grammar, and returns the families keyed by name.
func (c *testClient) scrape() map[string]obs.Family {
	c.t.Helper()
	resp, err := c.ts.Client().Get(c.ts.URL + "/metrics")
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		c.t.Fatalf("/metrics content type %q", ct)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		c.t.Fatalf("/metrics unparseable: %v", err)
	}
	out := make(map[string]obs.Family, len(fams))
	for _, f := range fams {
		out[f.Name] = f
	}
	return out
}

func sampleValue(c *testClient, fams map[string]obs.Family, family string, labels map[string]string) float64 {
	c.t.Helper()
	f, ok := fams[family]
	if !ok {
		c.t.Fatalf("family %q absent from scrape", family)
	}
next:
	for _, s := range f.Samples {
		if s.Name != family {
			continue
		}
		for k, v := range labels {
			if labelValue(s.Labels, k) != v {
				continue next
			}
		}
		return s.Value
	}
	c.t.Fatalf("no %q sample with labels %v", family, labels)
	return 0
}

// TestMetricsExposition drives real traffic and asserts the scrape covers
// every layer's families, parses against the Prometheus grammar (scrape
// does that), and that counters advance monotonically across scrapes.
func TestMetricsExposition(t *testing.T) {
	c := newTestClient(t, Options{})
	col := c.setupWorldFactbook()
	id := c.newSession(col, query1)

	before := c.scrape()
	c.call("GET", "/sessions/"+id+"/topk?k=5", nil, http.StatusOK, nil)
	c.call("GET", "/sessions/"+id+"/topk?k=5", nil, http.StatusOK, nil)
	after := c.scrape()

	// One family per owning layer: topk (search), server (HTTP, serving
	// disposition, sessions), registry (engine lifecycle), core build
	// phases.
	for _, fam := range []string{
		"seda_topk_searches_total",
		"seda_topk_search_duration_seconds",
		"seda_topk_scatter_fanout",
		"seda_http_requests_total",
		"seda_http_request_duration_seconds",
		"seda_http_inflight_requests",
		"seda_topk_served_total",
		"seda_sessions_active",
		"seda_collections",
		"seda_engine_ops_total",
		"seda_engine_phase_seconds",
		"seda_uptime_seconds",
		"seda_build_info",
		"seda_term_cache_hits_total",
		"seda_term_cache_misses_total",
	} {
		if _, ok := after[fam]; !ok {
			t.Errorf("family %q missing from /metrics", fam)
		}
	}
	if got := sampleValue(c, after, "seda_term_cache_misses_total", nil); got == 0 {
		t.Error("term_cache_misses_total = 0 after a search evaluated its terms")
	}

	if got := sampleValue(c, after, "seda_topk_searches_total", nil); got != 1 {
		t.Errorf("searches_total = %v, want 1 (second request served from the session)", got)
	}
	if got := sampleValue(c, after, "seda_topk_served_total", map[string]string{"source": "search"}); got != 1 {
		t.Errorf("served{search} = %v, want 1", got)
	}
	if got := sampleValue(c, after, "seda_topk_served_total", map[string]string{"source": "session"}); got != 1 {
		t.Errorf("served{session} = %v, want 1", got)
	}
	if got := sampleValue(c, after, "seda_sessions_active", nil); got != 1 {
		t.Errorf("sessions_active = %v, want 1", got)
	}
	if got := sampleValue(c, after, "seda_collections", map[string]string{"state": "built"}); got != 1 {
		t.Errorf("collections{built} = %v, want 1", got)
	}
	if got := sampleValue(c, after, "seda_engine_ops_total", map[string]string{"op": "build"}); got != 1 {
		t.Errorf("engine_ops{build} = %v, want 1", got)
	}

	// Counter monotonicity between the two scrapes, for every counter
	// sample present in both.
	for name, bf := range before {
		if bf.Type != "counter" {
			continue
		}
		af, ok := after[name]
		if !ok {
			t.Errorf("counter family %q disappeared", name)
			continue
		}
		afVals := make(map[string]float64, len(af.Samples))
		for _, s := range af.Samples {
			afVals[s.Name+labelKey(s.Labels)] = s.Value
		}
		for _, s := range bf.Samples {
			if v, ok := afVals[s.Name+labelKey(s.Labels)]; ok && v < s.Value {
				t.Errorf("counter %s%v went backwards: %v -> %v", s.Name, s.Labels, s.Value, v)
			}
		}
	}
}

func labelValue(labels []obs.Label, name string) string {
	for _, l := range labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

func labelKey(labels []obs.Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "=" + l.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// TestExplainTrace exercises both explain spellings and the trace shape.
func TestExplainTrace(t *testing.T) {
	c := newTestClient(t, Options{})
	col := c.setupWorldFactbook()
	id := c.newSession(col, query1)

	var tk topkResponse
	c.call("POST", "/sessions/"+id+"/query", queryRequest{K: 5, Explain: true}, http.StatusOK, &tk)
	if tk.Trace == nil {
		t.Fatal("explain returned no trace")
	}
	tr := tk.Trace
	if tr.RequestID == "" {
		t.Error("trace has no request id")
	}
	if tr.Cache != "search" {
		t.Errorf("first query disposition = %q, want %q", tr.Cache, "search")
	}
	if tr.TotalNs <= 0 {
		t.Error("trace total time not positive")
	}
	if tr.TopK == nil || len(tr.TopK.Waves) == 0 || tr.TopK.FetchTasks == 0 {
		t.Fatalf("TA trace not filled: %+v", tr.TopK)
	}
	if len(tr.TopK.PerTermMatches) != 3 {
		t.Errorf("per-term matches = %v, want 3 terms", tr.TopK.PerTermMatches)
	}
	if tr.TopK.KthScore <= 0 {
		t.Error("trace reports no kth score")
	}

	// Second explain reports that a plain request would have been served
	// from the session; results must match the plain spelling.
	var tk2 topkResponse
	c.call("GET", "/sessions/"+id+"/topk?k=5&explain=1", nil, http.StatusOK, &tk2)
	if tk2.Trace == nil {
		t.Fatal("?explain=1 returned no trace")
	}
	if got := tk2.Trace.Cache; got != "session" {
		t.Errorf("repeat disposition = %q, want session", got)
	}
	var plain topkResponse
	c.call("GET", "/sessions/"+id+"/topk?k=5", nil, http.StatusOK, &plain)
	if plain.Trace != nil {
		t.Error("plain request carries a trace")
	}
	if len(plain.Results) != len(tk.Results) {
		t.Fatalf("explain and plain result counts differ: %d vs %d", len(tk.Results), len(plain.Results))
	}
	for i := range plain.Results {
		if plain.Results[i].Score != tk.Results[i].Score {
			t.Errorf("result %d scores differ between explain and plain", i)
		}
	}
}

// TestRequestIDAndAccessLog: every response carries X-Request-ID, ids are
// distinct, and the access-log line ends with the id.
func TestRequestIDAndAccessLog(t *testing.T) {
	var buf bytes.Buffer
	c := newTestClient(t, Options{AccessLog: log.New(&buf, "", 0)})

	get := func(path string) string {
		t.Helper()
		resp, err := c.ts.Client().Get(c.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.Header.Get("X-Request-ID")
	}
	id1 := get("/healthz")
	id2 := get("/healthz")
	if id1 == "" || id2 == "" {
		t.Fatal("missing X-Request-ID header")
	}
	if id1 == id2 {
		t.Fatalf("request ids not unique: %q", id1)
	}
	logged := buf.String()
	if !strings.Contains(logged, id1) || !strings.Contains(logged, id2) {
		t.Errorf("access log lines missing request ids:\n%s", logged)
	}
	if !strings.Contains(logged, "GET /healthz 200") {
		t.Errorf("access log missing method/path/status:\n%s", logged)
	}
}

// TestSlowQueryLog: with a 1ns threshold every search is slow; the log
// line carries the request id and the slow counter advances.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	c := newTestClient(t, Options{
		SlowQueryThreshold: 1, // 1ns: every search qualifies
		SlowQueryLog:       log.New(&buf, "", 0),
	})
	col := c.setupWorldFactbook()
	id := c.newSession(col, query1)
	c.call("GET", "/sessions/"+id+"/topk?k=5", nil, http.StatusOK, nil)
	// Served from session state: no search ran, so no second slow line.
	c.call("GET", "/sessions/"+id+"/topk?k=5", nil, http.StatusOK, nil)

	logged := buf.String()
	if n := strings.Count(logged, "slow query:"); n != 1 {
		t.Fatalf("slow-query lines = %d, want 1:\n%s", n, logged)
	}
	if !strings.Contains(logged, "session="+id) || !strings.Contains(logged, "req=") {
		t.Errorf("slow-query line missing session or request id:\n%s", logged)
	}
	fams := c.scrape()
	if got := sampleValue(c, fams, "seda_http_slow_queries_total", nil); got != 1 {
		t.Errorf("slow_queries_total = %v, want 1", got)
	}
}

// TestStatsBuildInfo: uptime, Go version, and the per-collection state on
// /stats (and its /debug/stats alias).
func TestStatsBuildInfo(t *testing.T) {
	c := newTestClient(t, Options{})
	col := c.setupWorldFactbook()
	id := c.newSession(col, query1)
	c.call("GET", "/sessions/"+id+"/topk?k=5", nil, http.StatusOK, nil)

	for _, path := range []string{"/stats", "/debug/stats"} {
		var stats statsResponse
		c.call("GET", path, nil, http.StatusOK, &stats)
		if !strings.HasPrefix(stats.Runtime.GoVersion, "go") {
			t.Errorf("%s go_version = %q", path, stats.Runtime.GoVersion)
		}
		if stats.Runtime.UptimeSeconds < 0 {
			t.Errorf("%s uptime_seconds = %v", path, stats.Runtime.UptimeSeconds)
		}
		if len(stats.Collections) != 1 || stats.Collections[0].State != StateBuilt {
			t.Errorf("%s collections = %+v", path, stats.Collections)
		}
		var fetches uint64
		for _, sh := range stats.Collections[0].Shards {
			fetches += sh.Fetches
		}
		if fetches == 0 {
			t.Errorf("%s shard fetch counters all zero after a search", path)
		}
		if tc := stats.Collections[0].TermCache; tc == nil || tc.Misses == 0 || tc.Entries == 0 || tc.Budget == 0 {
			t.Errorf("%s term_cache = %+v after a search, want its budget and the evaluated terms", path, tc)
		}
	}
}

// TestPprofGate: the profiling surface exists only when opted in.
func TestPprofGate(t *testing.T) {
	off := newTestClient(t, Options{})
	resp, err := off.ts.Client().Get(off.ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled: status %d, want 404", resp.StatusCode)
	}

	on := newTestClient(t, Options{EnablePprof: true})
	resp, err = on.ts.Client().Get(on.ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("pprof enabled: status %d, body %.60q", resp.StatusCode, body)
	}
}

// TestMetricsConcurrentScrape races query traffic against scrapes under
// -race: every mid-flight exposition must still parse.
func TestMetricsConcurrentScrape(t *testing.T) {
	c := newTestClient(t, Options{})
	col := c.setupWorldFactbook()
	id := c.newSession(col, query1)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			k := 2 + i%5
			resp, err := c.ts.Client().Get(c.ts.URL + "/sessions/" + id + "/topk?k=" + string(rune('0'+k)))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	for i := 0; i < 10; i++ {
		c.scrape() // fails the test on any grammar violation
	}
	<-done
}

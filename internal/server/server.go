// Package server is sedad's HTTP serving tier: the paper's interactive
// exploration loop (Figure 6) exposed as a stateful JSON API.
//
// Three layers sit between the HTTP surface and the core engine:
//
//   - a Registry of named collections whose engines build lazily, exactly
//     once on success, shared by every request (failed builds retry).
//     With Registry.EnableSnapshots the registry is disk-backed: engines
//     persist as versioned snapshots after their first build, snapshots
//     found at boot serve collections from previous runs (uploads survive
//     restarts), and a snapshot whose config fingerprint or source tag no
//     longer matches is rebuilt, never silently served;
//   - a session manager: a concurrent session table with TTL and
//     max-count eviction, locking per session so one session's refinement
//     never blocks another session's top-k. A session keeps the top-k
//     results of its current (query, k), so a repeated request is served
//     from them without a search; every other request searches.
//
// Every response carries an X-Request-ID header that also tags the
// access-log and slow-query-log lines for the request, GET /metrics
// exposes every layer's counters in Prometheus text format, and top-k
// requests accept an opt-in explain flag returning the search's trace
// (stage timings, TA wave evolution, serving disposition).
//
// Endpoints:
//
//	GET    /healthz
//	GET    /metrics                         Prometheus text exposition
//	GET    /stats                           server + runtime statistics
//	GET    /debug/stats                     alias of /stats
//	GET    /debug/pprof/                    profiling (Options.EnablePprof)
//	GET    /collections                     list registered collections
//	POST   /collections                     register a builtin or uploaded corpus
//	POST   /collections/{name}/documents    append documents to a live collection
//	POST   /collections/{name}/catalog      add fact/dimension definitions
//	POST   /sessions                        parse a query, start an exploration
//	GET    /sessions/{id}                   session info
//	DELETE /sessions/{id}                   end a session
//	GET    /sessions/{id}/topk?k=&explain=  ranked results (a repeat is served from the session)
//	POST   /sessions/{id}/query             ranked results; body selects k and explain
//	GET    /sessions/{id}/contexts          context summary (§5)
//	POST   /sessions/{id}/refine            restrict a term to chosen contexts
//	GET    /sessions/{id}/connections       connection summary (§6)
//	POST   /sessions/{id}/choose            fix connection selections
//	GET    /sessions/{id}/results?max_rows= complete result table (§7)
//	POST   /sessions/{id}/cube              build the star schema (§7)
//	POST   /sessions/{id}/analyze           OLAP aggregate over the last cube
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"seda/internal/core"
	"seda/internal/cube"
	"seda/internal/keys"
	"seda/internal/rel"
	"seda/internal/store"
	"seda/internal/topk"
)

// Options tunes a Server. The zero value serves with the defaults below.
type Options struct {
	// SessionTTL evicts sessions idle longer than this (default 30m;
	// negative disables TTL eviction).
	SessionTTL time.Duration
	// MaxSessions caps the session table; the least recently used session
	// is evicted when a create would exceed it (default 1024). A negative
	// value removes the cap: the table then grows without bound, held back
	// only by SessionTTL.
	MaxSessions int
	// BuiltinScale is the corpus scale used when POST /collections selects
	// a builtin without an explicit scale (default 0.05).
	BuiltinScale float64
	// MaxCollections caps registered collections — built engines are
	// pinned for the process lifetime (default 64; negative = unlimited).
	MaxCollections int
	// Parallelism is the worker-pool width for engine builds and top-k
	// searches of collections registered over HTTP without their own
	// setting (0 = runtime.GOMAXPROCS(0); 1 = sequential).
	Parallelism int
	// Shards is the default horizontal index shard count for collections
	// registered over HTTP without their own "shards" option (0 or 1 =
	// single shard; clamped to MaxShards). Shard count never changes
	// query answers — it is the execution-plane layout top-k scatters
	// over, snapshot I/O parallelizes across, and ingest extends the
	// tail of.
	Shards int
	// ResidentBudget is the default per-collection budget in bytes for
	// decoded index runs, for collections registered over HTTP without
	// their own "resident_budget" option and for snapshots discovered at
	// boot. 0 (the default) keeps engines fully resident; > 0 serves the
	// shards of a snapshot-backed engine run by run — each term's postings
	// and each path's node list read from the snapshot on first use — and
	// drops the least-recently-used runs past the budget. Shards not yet saved to a
	// snapshot stay resident, so the budget acts only once the registry
	// has a snapshot directory (EnableSnapshots). Answers are identical
	// at any setting.
	ResidentBudget int64
	// AccessLog, when non-nil, receives one line per completed request:
	// remote address, method, path, status, duration, and request id.
	AccessLog *log.Logger
	// SlowQueryThreshold enables the slow-query log: top-k searches whose
	// engine time reaches it are logged — with the request id, session,
	// query, and wave/termination stats — to SlowQueryLog (0 disables).
	SlowQueryThreshold time.Duration
	// SlowQueryLog overrides where slow queries are logged (default:
	// AccessLog, falling back to the process-wide default logger).
	SlowQueryLog *log.Logger
	// EnablePprof mounts net/http/pprof profiling handlers under
	// /debug/pprof/.
	EnablePprof bool
	// Clock overrides time.Now for eviction tests.
	Clock func() time.Time
}

func (o *Options) defaults() {
	if o.SessionTTL == 0 {
		o.SessionTTL = 30 * time.Minute
	}
	if o.MaxSessions == 0 {
		o.MaxSessions = 1024
	}
	if o.BuiltinScale == 0 {
		o.BuiltinScale = 0.05
	}
	if o.MaxCollections == 0 {
		o.MaxCollections = 64
	}
	// The HTTP surface rejects explicit "shards" beyond MaxShards; the
	// server-wide default must not be a back door past the same cap.
	if o.Shards > MaxShards {
		o.Shards = MaxShards
	}
	if o.Shards < 0 {
		o.Shards = 0
	}
	if o.ResidentBudget < 0 {
		o.ResidentBudget = 0
	}
}

// Server is the sedad HTTP handler. Create one with New; it is safe for
// concurrent use.
type Server struct {
	opts     Options
	registry *Registry
	sessions *sessionManager
	mux      *http.ServeMux
	started  time.Time
	now      func() time.Time

	metrics *serverMetrics
	build   buildMeta
	slowLog *log.Logger

	reqPrefix string
	reqSeq    atomic.Uint64
}

// New returns a ready-to-serve handler.
func New(opts Options) *Server {
	opts.defaults()
	now := opts.Clock
	if now == nil {
		now = time.Now
	}
	reg := NewRegistry()
	if opts.MaxCollections > 0 {
		reg.MaxEntries = opts.MaxCollections
	}
	reg.ResidentBudget = opts.ResidentBudget
	s := &Server{
		opts:      opts,
		registry:  reg,
		sessions:  newSessionManager(opts.SessionTTL, opts.MaxSessions, opts.Clock),
		mux:       http.NewServeMux(),
		started:   now(),
		now:       now,
		build:     readBuildMeta(),
		reqPrefix: newRequestPrefix(),
	}
	s.metrics = newServerMetrics(s)
	// The registry installs the shared search, paging and term-cache
	// metric sets on every engine it adopts and reports lifecycle phase
	// timings back into the same exposition registry.
	reg.SetObservers(s.metrics.search, s.metrics.paging, s.metrics.terms, s.metrics.observeEngineOp)
	s.slowLog = opts.SlowQueryLog
	if s.slowLog == nil {
		s.slowLog = opts.AccessLog
	}
	if s.slowLog == nil {
		s.slowLog = log.Default()
	}
	s.routes()
	return s
}

// Registry exposes the collection registry so embedders (and cmd/sedad
// flags) can pre-register corpora before serving.
func (s *Server) Registry() *Registry { return s.registry }

// ctxKeyRequestID carries the middleware-assigned request id through the
// request context to handlers (the explain trace and slow-query log).
type ctxKeyRequestID struct{}

// requestIDFrom returns the id ServeHTTP assigned, or "" outside a request.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID{}).(string)
	return id
}

// statusWriter captures the status code a handler writes so the
// middleware can label its request counter and access-log line.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP is the instrumentation middleware around the route mux: it
// assigns the request id (echoed as X-Request-ID), tracks in-flight
// requests, and — after the handler returns — counts the request under
// its route pattern and status, observes its latency, and writes the
// access-log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := s.nextRequestID()
	w.Header().Set("X-Request-ID", id)
	r = r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID{}, id))
	sw := &statusWriter{ResponseWriter: w}
	s.metrics.inflight.Add(1)
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	elapsed := time.Since(start)
	s.metrics.inflight.Add(-1)
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	// r.Pattern is the matched route ("GET /sessions/{id}/topk"), filled
	// in by the mux; using it as the endpoint label keeps the metric
	// cardinality at the route count, not the URL count.
	endpoint := r.Pattern
	if endpoint == "" {
		endpoint = "unmatched"
	}
	s.metrics.requests.With(endpoint, strconv.Itoa(sw.status)).Inc()
	s.metrics.duration.With(endpoint).Observe(elapsed.Seconds())
	if s.opts.AccessLog != nil {
		s.opts.AccessLog.Printf("%s %s %s %d %s %s",
			r.RemoteAddr, r.Method, r.URL.Path, sw.status,
			elapsed.Round(time.Microsecond), id)
	}
}

func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%d", s.reqPrefix, s.reqSeq.Add(1))
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /debug/stats", s.handleStats)
	if s.opts.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux.HandleFunc("GET /collections", s.handleListCollections)
	s.mux.HandleFunc("POST /collections", s.handleCreateCollection)
	s.mux.HandleFunc("POST /collections/{name}/documents", s.handleIngestDocuments)
	s.mux.HandleFunc("DELETE /collections/{name}/documents/{doc}", s.handleDeleteDocument)
	s.mux.HandleFunc("PUT /collections/{name}/documents/{doc}", s.handleUpdateDocument)
	s.mux.HandleFunc("POST /collections/{name}/compact", s.handleCompactCollection)
	s.mux.HandleFunc("POST /collections/{name}/catalog", s.handleCatalog)
	s.mux.HandleFunc("POST /sessions", s.handleCreateSession)
	s.mux.HandleFunc("GET /sessions/{id}", s.handleSessionInfo)
	s.mux.HandleFunc("DELETE /sessions/{id}", s.handleDeleteSession)
	s.mux.HandleFunc("GET /sessions/{id}/topk", s.handleTopK)
	s.mux.HandleFunc("POST /sessions/{id}/query", s.handleQuery)
	s.mux.HandleFunc("GET /sessions/{id}/contexts", s.handleContexts)
	s.mux.HandleFunc("POST /sessions/{id}/refine", s.handleRefine)
	s.mux.HandleFunc("GET /sessions/{id}/connections", s.handleConnections)
	s.mux.HandleFunc("POST /sessions/{id}/choose", s.handleChoose)
	s.mux.HandleFunc("GET /sessions/{id}/results", s.handleResults)
	s.mux.HandleFunc("POST /sessions/{id}/cube", s.handleCube)
	s.mux.HandleFunc("POST /sessions/{id}/analyze", s.handleAnalyze)
}

// --- plumbing ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is gone; nothing left to do on error
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxTopK caps GET /topk's k so one request cannot force an arbitrarily
// large search.
const maxTopK = 1000

// MaxShards caps the per-collection shard count: beyond the core count
// extra shards only add scatter overhead, and the cap keeps one request
// (or a misconfigured server default) from forcing thousands of snapshot
// sections. Explicit requests beyond it are rejected; an Options.Shards
// default beyond it is clamped.
const MaxShards = 64

// maxBodyBytes caps request bodies (collection uploads are the largest
// legitimate payload); beyond it the daemon answers 413 instead of
// buffering an unbounded body into memory.
const maxBodyBytes = 64 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// getSession resolves {id}, writing 404 when the session is unknown or
// expired.
func (s *Server) getSession(w http.ResponseWriter, r *http.Request) *session {
	sess, err := s.sessions.get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return nil
	}
	return sess
}

func queryInt(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %v", name, err)
	}
	return n, nil
}

// --- health and stats ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	uptime := s.now().Sub(s.started)
	writeJSON(w, http.StatusOK, statsResponse{
		Uptime:      uptime.Round(time.Millisecond).String(),
		Collections: s.registry.List(),
		Sessions:    s.sessions.stats(),
		Runtime: runtimeStats{
			UptimeSeconds: uptime.Seconds(),
			GoVersion:     s.build.GoVersion,
			VCSRevision:   s.build.VCSRevision,
			VCSTime:       s.build.VCSTime,
			VCSModified:   s.build.VCSModified,
			GOMAXPROCS:    runtime.GOMAXPROCS(0),
			NumCPU:        runtime.NumCPU(),
			NumGC:         m.NumGC,
			HeapAlloc:     m.HeapAlloc,
			Sys:           m.Sys,
		},
	})
}

// handleMetrics serves the Prometheus text exposition. The registry
// renders into a buffer first so a slow client can never observe a
// half-written scrape with a non-200 status.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	if err := s.metrics.reg.WritePrometheus(&b); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// --- collections ---

func (s *Server) handleListCollections(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"collections": s.registry.List(),
		"builtins":    BuiltinNames(),
	})
}

func (s *Server) handleCreateCollection(w http.ResponseWriter, r *http.Request) {
	var req collectionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "collection name is required")
		return
	}
	if req.Parallelism < 0 {
		writeError(w, http.StatusBadRequest, "parallelism must be >= 0")
		return
	}
	if req.Shards < 0 || req.Shards > MaxShards {
		writeError(w, http.StatusBadRequest, "shards must be in 0..%d", MaxShards)
		return
	}
	if req.ResidentBudget < 0 {
		writeError(w, http.StatusBadRequest, "resident_budget must be >= 0 bytes")
		return
	}
	if req.ResidentBudget > 0 && !s.registry.snapshotsEnabled() {
		writeError(w, http.StatusBadRequest, "resident_budget needs a snapshot directory: only shards saved in a snapshot can be evicted")
		return
	}
	par := req.Parallelism
	if par == 0 {
		par = s.opts.Parallelism
	}
	shards := req.Shards
	if shards == 0 {
		shards = s.opts.Shards
	}
	budget := req.ResidentBudget
	if budget == 0 {
		budget = s.opts.ResidentBudget
	}
	cfg := core.Config{
		DataguideThreshold: req.DataguideThreshold,
		Parallelism:        par,
		Shards:             shards,
		ResidentBudget:     budget,
	}
	var err error
	switch {
	case req.Builtin != "" && len(req.Documents) > 0:
		writeError(w, http.StatusBadRequest, "specify builtin or documents, not both")
		return
	case req.Builtin != "":
		scale := req.Scale
		if scale == 0 {
			scale = s.opts.BuiltinScale
		}
		err = s.registry.RegisterBuiltin(req.Name, req.Builtin, scale, cfg)
	case len(req.Documents) > 0:
		col := store.NewCollection()
		for _, d := range req.Documents {
			if _, aerr := col.AddXML(d.Name, []byte(d.XML)); aerr != nil {
				writeError(w, http.StatusBadRequest, "document %q: %v", d.Name, aerr)
				return
			}
		}
		err = s.registry.RegisterCollection(req.Name, col, cfg, uploadSource(req.Documents))
	default:
		writeError(w, http.StatusBadRequest, "specify a builtin corpus or upload documents")
		return
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrAlreadyRegistered) {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, RegistryInfo{Name: req.Name, Builtin: req.Builtin, State: StateCold})
}

// handleIngestDocuments appends uploaded documents to a live collection.
// The registry swaps in a new engine generation built by incremental
// ingest (core.Engine.AddDocuments): sessions created before the swap keep
// reading the old generation, and new sessions see the extended corpus.
func (s *Server) handleIngestDocuments(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req ingestRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Documents) == 0 {
		writeError(w, http.StatusBadRequest, "at least one document is required")
		return
	}
	eng, err := s.registry.Ingest(name, req.Documents)
	if err != nil {
		status := http.StatusBadRequest // the documents themselves were rejected
		switch {
		case errors.Is(err, ErrUnknownCollection):
			status = http.StatusNotFound
		case errors.Is(err, errColdBuildFailed):
			status = http.StatusInternalServerError
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		Collection: name,
		DocsAdded:  len(req.Documents),
		Docs:       eng.NumLiveDocs(),
		Nodes:      eng.Collection().NumNodes(),
		State:      StateBuilt,
	})
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req catalogRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	eng, err := s.registry.Engine(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	// Two phases so a malformed definition rejects the whole request
	// before anything is applied — a client can fix and resend the same
	// payload without tripping over half-registered names. (Racing
	// catalog requests can still interleave; the catalog's own duplicate
	// check is the arbiter then.)
	type parsedDef struct {
		name    string
		isFact  bool
		entries []cube.ContextEntry
	}
	var defs []parsedDef
	seen := make(map[string]bool)
	parse := func(payloads []defPayload, isFact bool) bool {
		for _, d := range payloads {
			entries := make([]cube.ContextEntry, 0, len(d.Contexts))
			for _, c := range d.Contexts {
				key, kerr := keys.Parse(c.Key)
				if kerr != nil {
					writeError(w, http.StatusBadRequest, "definition %q: %v", d.Name, kerr)
					return false
				}
				entries = append(entries, cube.ContextEntry{Context: c.Context, Key: key})
			}
			if seen[d.Name] || eng.Catalog().Lookup(d.Name) != nil {
				writeError(w, http.StatusConflict, "definition %q already exists", d.Name)
				return false
			}
			seen[d.Name] = true
			defs = append(defs, parsedDef{name: d.Name, isFact: isFact, entries: entries})
		}
		return true
	}
	if !parse(req.Facts, true) || !parse(req.Dimensions, false) {
		return
	}
	for _, d := range defs {
		var aerr error
		if d.isFact {
			aerr = eng.Catalog().AddFact(d.name, d.entries...)
		} else {
			aerr = eng.Catalog().AddDimension(d.name, d.entries...)
		}
		if aerr != nil {
			writeError(w, http.StatusConflict, "%v", aerr)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"collection": name,
		"facts":      len(eng.Catalog().Facts()),
		"dimensions": len(eng.Catalog().Dimensions()),
	})
}

// --- session lifecycle ---

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Collection == "" || req.Query == "" {
		writeError(w, http.StatusBadRequest, "collection and query are required")
		return
	}
	eng, err := s.registry.Engine(req.Collection)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	cs, err := eng.NewSession(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sess := s.sessions.create(req.Collection, eng, cs)
	writeJSON(w, http.StatusCreated, sessionResponse{
		Session:    sess.id,
		Collection: sess.collection,
		Query:      req.Query,
		Created:    sess.created,
	})
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	q := sess.queryStringLocked()
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, sessionResponse{
		Session:    sess.id,
		Collection: sess.collection,
		Query:      q,
		Created:    sess.created,
	})
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	s.sessions.remove(r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

// --- the Figure-6 loop ---

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	k, err := queryInt(r, "k", 10)
	if err != nil || k <= 0 || k > maxTopK {
		writeError(w, http.StatusBadRequest, "parameter k must be an integer in 1..%d", maxTopK)
		return
	}
	explain := r.URL.Query().Get("explain")
	s.serveTopK(w, r, k, explain == "1" || explain == "true")
}

// handleQuery is the POST spelling of top-k: the body selects k and the
// opt-in per-request trace.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	if k <= 0 || k > maxTopK {
		writeError(w, http.StatusBadRequest, "k must be an integer in 1..%d", maxTopK)
		return
	}
	s.serveTopK(w, r, k, req.Explain)
}

// serveTopK answers both top-k spellings. Without explain it serves the
// results the session already holds for its current (query, k), or runs a
// fresh search. With explain it always runs a real traced search (a trace
// of held results would explain nothing) and reports where a plain request
// would have been served from as the trace's disposition.
func (s *Server) serveTopK(w http.ResponseWriter, r *http.Request, k int, explain bool) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	q := sess.queryStringLocked()
	held := sess.heldK == k && sess.heldQuery == q
	resp := topkResponse{Session: sess.id, Query: q, K: k}
	var rs []topk.Result
	var searched time.Duration
	var trace *topk.Trace
	if held && !explain {
		// A repeated request is truly read-only: it serves the held
		// results and leaves the downstream summaries (connections etc.)
		// intact.
		rs = sess.sess.TopKResults()
		resp.Cached = true
		s.metrics.served.With("session").Inc()
	} else {
		t0 := time.Now()
		var err error
		if explain {
			trace = new(topk.Trace)
			rs, err = sess.sess.TopKTraced(k, trace)
		} else {
			rs, err = sess.sess.TopK(k)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		searched = time.Since(t0)
		s.metrics.served.With("search").Inc()
		sess.heldQuery, sess.heldK = q, k
	}
	if explain {
		disposition := "search"
		if held {
			disposition = "session"
		}
		resp.Trace = &wireTrace{
			RequestID: requestIDFrom(r.Context()),
			Cache:     disposition,
			TotalNs:   searched.Nanoseconds(),
			TopK:      trace,
		}
	}
	if t := s.opts.SlowQueryThreshold; t > 0 && searched >= t {
		s.metrics.slow.Inc()
		s.logSlowQuery(r, sess.id, q, k, searched, trace)
	}
	resp.Results = wireResults(sess.eng.Collection(), rs)
	writeJSON(w, http.StatusOK, resp)
}

// logSlowQuery writes one slow-query-log line; with an explain trace in
// hand it appends the TA stats that say where the time went.
func (s *Server) logSlowQuery(r *http.Request, sessID, q string, k int, d time.Duration, tr *topk.Trace) {
	line := fmt.Sprintf("slow query: %s session=%s k=%d query=%q req=%s",
		d.Round(time.Microsecond), sessID, k, q, requestIDFrom(r.Context()))
	if tr != nil {
		line += fmt.Sprintf(" waves=%d units=%d/%d tuples=%d early=%t",
			len(tr.Waves), tr.UnitsScanned, tr.UnitsCandidates, tr.TuplesScored, tr.EarlyTerminated)
	}
	s.slowLog.Print(line)
}

func (s *Server) handleContexts(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	ctxs := sess.sess.ContextSummary()
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, contextsResponse{
		Session:  sess.id,
		Contexts: wireContexts(ctxs),
	})
}

func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	var req refineRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := sess.sess.RefineContexts(req.Term, req.Paths...); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The refinement cleared the session's results; the next top-k
	// request searches again.
	sess.star = nil
	sess.heldQuery, sess.heldK = "", 0
	writeJSON(w, http.StatusOK, sessionResponse{
		Session:    sess.id,
		Collection: sess.collection,
		Query:      sess.queryStringLocked(),
		Created:    sess.created,
	})
}

func (s *Server) handleConnections(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	conns, err := sess.sess.ConnectionSummary()
	var dot string
	if err == nil && r.URL.Query().Get("dot") == "1" {
		dot, _ = sess.sess.ConnectionsDOT()
	}
	col := sess.eng.Collection()
	sess.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, connectionsResponse{
		Session:     sess.id,
		Connections: wireConnections(col, conns),
		DOT:         dot,
	})
}

func (s *Server) handleChoose(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	var req chooseRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := sess.sess.ChooseConnections(req.Connections...); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Choosing connections cannot change the session's top-k results, so
	// they stay held.
	sess.star = nil
	writeJSON(w, http.StatusOK, map[string]any{
		"session": sess.id,
		"chosen":  req.Connections,
	})
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	maxRows, err := queryInt(r, "max_rows", 100)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sess.mu.Lock()
	table, terr := sess.sess.ResultTable()
	sess.mu.Unlock()
	if terr != nil {
		writeError(w, http.StatusConflict, "%v", terr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"session": sess.id,
		"table":   wireTableOf(table, maxRows),
	})
}

func (s *Server) handleCube(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	var req cubeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	maxRows := req.MaxRows
	if maxRows == 0 {
		maxRows = 100
	}
	opts := cube.Options{
		AddFacts:         req.AddFacts,
		AddDimensions:    req.AddDimensions,
		RemoveFacts:      req.RemoveFacts,
		RemoveDimensions: req.RemoveDimensions,
	}
	for _, d := range req.Define {
		// The builder registers defined names in the shared catalog as a
		// side effect; reject duplicates up front so a failed build plus
		// retry cannot trip over its own half-applied definitions.
		if sess.eng.Catalog().Lookup(d.Name) != nil {
			writeError(w, http.StatusConflict, "definition %q already exists", d.Name)
			return
		}
		opts.Define = append(opts.Define, cube.NewDef{
			Name: d.Name, Column: d.Column, IsFact: d.IsFact, Key: d.Key,
		})
	}
	sess.mu.Lock()
	star, err := sess.sess.BuildCube(opts)
	if err == nil {
		sess.star = star
	}
	sess.mu.Unlock()
	if err != nil {
		// Best-effort compensation: the builder may have registered the
		// request's definitions before failing; remove them so an
		// identical retry starts clean. (A racing request defining the
		// same name in this window loses its copy too — the same TOCTOU
		// the catalog endpoint documents.)
		for _, d := range req.Define {
			sess.eng.Catalog().Remove(d.Name)
		}
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	resp := cubeResponse{Session: sess.id, SQL: star.SQL, Warnings: star.Warnings}
	for _, t := range star.FactTables {
		resp.Facts = append(resp.Facts, wireTableOf(t, maxRows))
	}
	for _, t := range star.DimTables {
		resp.Dimensions = append(resp.Dimensions, wireTableOf(t, maxRows))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	var req analyzeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Measure == "" || len(req.Dims) == 0 {
		writeError(w, http.StatusBadRequest, "measure and dims are required")
		return
	}
	agg := rel.Sum
	if req.Agg != "" {
		agg = rel.AggFn(strings.ToUpper(req.Agg))
		switch agg {
		case rel.Sum, rel.Count, rel.Avg, rel.Min, rel.Max:
		default:
			writeError(w, http.StatusBadRequest, "unknown aggregate %q", req.Agg)
			return
		}
	}
	groupBy := req.GroupBy
	if len(groupBy) == 0 {
		groupBy = req.Dims
	}
	maxRows := req.MaxRows
	if maxRows == 0 {
		maxRows = 100
	}
	sess.mu.Lock()
	star := sess.star
	sess.mu.Unlock()
	if star == nil {
		writeError(w, http.StatusConflict, "build a cube before analyzing (POST /sessions/{id}/cube)")
		return
	}
	oc, err := sess.eng.Analyze(star, req.Measure, req.Dims)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	table, err := oc.Aggregate(groupBy, agg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, analyzeResponse{
		Session: sess.id,
		Measure: req.Measure,
		Dims:    req.Dims,
		Agg:     string(agg),
		GroupBy: groupBy,
		Table:   wireTableOf(table, maxRows),
	})
}

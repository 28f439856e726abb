// Package core assembles SEDA's execution engine (paper §4, Figures 4 and
// 6): the top-k search unit, context and connection summary generators,
// complete result set generator, and data cube processor, wired over the
// storage and indexing component.
//
// An Engine owns the per-collection state (indexes, data graph, dataguide
// summary, fact/dimension catalog). A Session owns one exploration: the
// Figure 6 loop of query → top-k → summaries → refinement → complete
// results → cube.
//
// # Concurrency
//
// An Engine is safe for concurrent use by many Sessions once NewEngine
// returns. The collection, indexes, data graph, and dataguide summary are
// immutable after construction; the two pieces of engine state that ARE
// mutated during query processing — the fact/dimension catalog (users
// expand it while exploring) and the connection summarizer's path-pair
// cache (§6.1) — synchronize internally. BuildTimings is written only
// during NewEngine and must not be mutated afterwards.
//
// A Session is NOT safe for concurrent use: it is one user's exploration
// state machine, and callers running the same session from several
// goroutines (e.g. a server handling requests for one session id) must
// serialize access themselves. Distinct sessions over one engine need no
// external locking.
//
// The package is annotated //seda:hot: sedalint's nilgate analyzer
// enforces the nil-gated observability contract on every hot path here.
//
//seda:hot
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"seda/internal/cube"
	"seda/internal/dataguide"
	"seda/internal/graph"
	"seda/internal/index"
	"seda/internal/olap"
	"seda/internal/query"
	"seda/internal/rel"
	"seda/internal/store"
	"seda/internal/summary"
	"seda/internal/topk"
	"seda/internal/twig"
)

// ValueLink declares a value-based (PK/FK) relationship to materialize in
// the data graph — the paper assumes these "are provided as input into the
// system".
type ValueLink struct {
	FromPath, ToPath, Label string
}

// Config tunes engine construction. The zero value gives the paper's
// defaults.
type Config struct {
	// DataguideThreshold is the overlap merge threshold (default 0.40, the
	// paper's Table 1 setting).
	DataguideThreshold float64
	// Discover configures ID/IDREF/XLink attribute names.
	Discover graph.DiscoverOptions
	// ValueLinks are value-based edges to add before summarization.
	ValueLinks []ValueLink
	// SkipDataguides skips summary construction (for benchmarks that only
	// need search).
	SkipDataguides bool
	// Parallelism bounds the worker goroutines used during construction
	// (index sharding, overlapped phases) and is the default worker count
	// for the engine's top-k searches. 0 means runtime.GOMAXPROCS(0); 1
	// forces fully sequential execution. The built engine and all query
	// results are identical at every setting.
	Parallelism int
	// Shards is the number of horizontal index shards: self-contained
	// fragments over contiguous document ranges that top-k search
	// scatters across, snapshot I/O encodes and decodes concurrently, and
	// incremental ingest extends one of (the tail). 0 or 1 keeps the
	// single-shard layout; the count is clamped to the number of
	// documents. Like Parallelism, Shards is execution-plane only: every
	// query answer is byte-identical at any setting, and it is excluded
	// from the snapshot fingerprint (a loaded engine adopts the layout
	// stored in the snapshot).
	Shards int
	// ResidentBudget bounds the total exact encoded bytes of index shards
	// whose decoded form is held in memory. 0 (the default) keeps every
	// shard fully resident. A positive budget enables paging: shards
	// decode on first touch and the least-recently-touched ones are
	// evicted back to their encoded payloads when the budget is exceeded.
	// Those payloads are re-read from the snapshot file whenever the
	// engine has one (a load, or a built engine after its first save) and
	// stay on the heap otherwise. Like Parallelism, it is environment,
	// not identity: answers are byte-identical at every budget, the field
	// is excluded from the snapshot fingerprint, and it is never
	// persisted.
	ResidentBudget int64
}

// Engine is the per-collection SEDA runtime.
type Engine struct {
	col      *store.Collection
	ix       *index.Index
	g        *graph.Graph
	dg       *dataguide.Set
	searcher *topk.Searcher
	summz    *summary.Summarizer
	eval     *twig.Evaluator
	catalog  *cube.Catalog
	builder  *cube.Builder
	entities *summary.EntityRegistry

	// parallelism is the resolved Config.Parallelism, reused as the default
	// worker count for the engine's top-k searches.
	parallelism int

	// cfg is the resolved construction config (defaults applied). Engine
	// snapshots persist it and compare its fingerprint on load.
	cfg Config

	// id is the process-local engine serial (see ID).
	id uint64

	// pager, when non-nil, enforces cfg.ResidentBudget over the index's
	// decoded shards (see internal/index.Pager). Ingest-derived
	// generations share it, so the budget spans the shards actually
	// serving queries.
	pager *index.Pager

	// ingestMu serializes AddDocuments calls against this engine (each call
	// derives a new generation; see ingest.go).
	ingestMu sync.Mutex

	// searchMetrics, when set, is threaded into every session top-k search
	// as topk.Options.Metrics. It is an atomic pointer so a serving tier
	// can install one shared family set after the engine is built or
	// loaded, and so ingest-derived generations inherit it without locks —
	// sharing keeps the counters monotonic across generation swaps.
	searchMetrics atomic.Pointer[topk.Metrics]

	// BuildTimings records how long each construction phase took. With
	// Parallelism > 1 the index phase overlaps the graph and dataguide
	// phases, so the entries are per-phase wall times, not a sum.
	BuildTimings map[string]time.Duration
}

// NewEngine indexes the collection and precomputes the dataguide summary
// (§6.1: "The dataguide summary is precomputed on the entire data graph").
//
// Construction parallelizes along the phase dependency structure: the
// index build (itself sharded across documents) runs concurrently with the
// graph discovery → dataguide chain, bounded by cfg.Parallelism.
func NewEngine(col *store.Collection, cfg Config) (*Engine, error) {
	if col == nil || col.NumDocs() == 0 {
		return nil, fmt.Errorf("core: empty collection")
	}
	cfg = cfg.resolved()
	par := resolveParallelism(cfg.Parallelism)
	e := &Engine{col: col, cfg: cfg, parallelism: par, BuildTimings: make(map[string]time.Duration)}

	// The graph → dataguide chain is sequential, so when it overlaps the
	// index build it takes one worker and the index the rest — total
	// construction workers never exceed cfg.Parallelism. Without a
	// dataguide phase there is nothing worth overlapping (graph discovery
	// is cheap), so the index keeps the full budget.
	overlap := par > 1 && !cfg.SkipDataguides
	indexPar := par
	if overlap {
		indexPar = par - 1
	}
	var indexDone chan struct{}
	var indexTime time.Duration
	if overlap {
		indexDone = make(chan struct{})
		go func() {
			defer close(indexDone)
			t0 := time.Now()
			e.ix = index.BuildSharded(col, cfg.Shards, indexPar)
			indexTime = time.Since(t0)
		}()
	} else {
		t0 := time.Now()
		e.ix = index.BuildSharded(col, cfg.Shards, indexPar)
		indexTime = time.Since(t0)
	}

	t0 := time.Now()
	e.g = graph.New(col)
	e.g.DiscoverLinks(cfg.Discover)
	for _, vl := range cfg.ValueLinks {
		e.g.AddValueLinks(vl.FromPath, vl.ToPath, vl.Label)
	}
	e.BuildTimings["graph"] = time.Since(t0)

	if !cfg.SkipDataguides {
		t0 = time.Now()
		dg, err := dataguide.Build(col, e.g, cfg.DataguideThreshold)
		if err != nil {
			if indexDone != nil {
				<-indexDone // don't leak the index builder on error
			}
			return nil, err
		}
		e.dg = dg
		e.BuildTimings["dataguide"] = time.Since(t0)
	}

	if indexDone != nil {
		<-indexDone
	}
	e.BuildTimings["index"] = indexTime

	// A freshly built engine is fully resident; attaching the pager
	// immediately evicts down to the configured budget.
	if p := index.NewPager(cfg.ResidentBudget); p != nil {
		e.pager = p
		e.ix.AttachPager(p)
	}

	e.finish()
	return e, nil
}

// resolved returns cfg with the construction defaults applied; NewEngine
// and the snapshot loader both work on resolved configs so snapshots
// fingerprint identically however the defaults were spelled.
func (cfg Config) resolved() Config {
	if cfg.DataguideThreshold == 0 {
		cfg.DataguideThreshold = 0.40
	}
	cfg.Discover = cfg.Discover.Resolved()
	return cfg
}

// engineSerial issues process-unique engine ids.
var engineSerial atomic.Uint64

// ID returns a process-local serial distinguishing this engine from every
// other engine ever constructed or loaded in this process. It is not
// persisted: the same snapshot loaded twice yields two ids. Serving-tier
// caches key on it so results computed against one engine can never be
// served for a different engine registered under the same name.
func (e *Engine) ID() uint64 { return e.id }

// finish wires the cheap derived components — searcher, twig evaluator,
// summarizer, catalog, entity registry — over col/ix/g/dg, which must
// already be set. It is shared by NewEngine and the snapshot loader.
func (e *Engine) finish() {
	e.id = engineSerial.Add(1)
	if e.dg != nil && e.summz == nil {
		e.summz = summary.NewSummarizer(e.dg, e.g)
	}
	e.searcher = topk.New(e.ix, e.g)
	e.eval = twig.New(e.ix, e.g)
	e.catalog = cube.NewCatalog()
	e.builder = cube.NewBuilder(e.col, e.catalog)
	e.entities = summary.NewEntityRegistry()
}

// SetSearchMetrics installs the metric family set threaded into every
// session top-k search (nil disables instrumentation, the default).
// Safe to call concurrently with searches; typically the serving tier
// calls it once right after build or load.
func (e *Engine) SetSearchMetrics(m *topk.Metrics) { e.searchMetrics.Store(m) }

// SearchMetrics returns the installed metric family set (nil when search
// instrumentation is off).
func (e *Engine) SearchMetrics() *topk.Metrics { return e.searchMetrics.Load() }

// SetPagingMetrics installs the paging metric family set on the engine's
// pager (a no-op for fully resident engines). Like SetSearchMetrics, the
// serving tier calls it once after build or load; ingest-derived
// generations share the pager and therefore the metrics.
func (e *Engine) SetPagingMetrics(m *index.PagingMetrics) {
	if e.pager != nil {
		e.pager.SetMetrics(m)
	}
}

// PagerStats snapshots the pager's accounting. ok is false when the
// engine is fully resident (no budget configured).
func (e *Engine) PagerStats() (st index.PagerStats, ok bool) {
	if e.pager == nil {
		return index.PagerStats{}, false
	}
	return e.pager.Stats(), true
}

// Collection returns the engine's collection.
func (e *Engine) Collection() *store.Collection { return e.col }

// Index returns the full-text indexes.
func (e *Engine) Index() *index.Index { return e.ix }

// NumShards returns the number of horizontal index shards.
func (e *Engine) NumShards() int { return e.ix.NumShards() }

// ShardStats reports per-shard document, term, posting, and byte counts
// in shard order (the /debug/stats surface).
func (e *Engine) ShardStats() []index.ShardStats { return e.ix.ShardStats() }

// Graph returns the data graph overlay.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Dataguides returns the dataguide summary (nil when skipped).
func (e *Engine) Dataguides() *dataguide.Set { return e.dg }

// Catalog returns the fact/dimension catalog.
func (e *Engine) Catalog() *cube.Catalog { return e.catalog }

// Summarizer returns the connection summarizer (nil when dataguides were
// skipped).
func (e *Engine) Summarizer() *summary.Summarizer { return e.summz }

// Entities returns the registry of real-world entity labels shown in
// context summaries (§5's context abstraction).
func (e *Engine) Entities() *summary.EntityRegistry { return e.entities }

// Analyze wraps a star schema's fact table as an OLAP cube (§7's final
// hand-off: "we feed these tables into an OLAP-tool").
func (e *Engine) Analyze(star *cube.Star, measure string, dims []string) (*olap.Cube, error) {
	ft := star.FactTable(measure)
	if ft == nil {
		return nil, fmt.Errorf("core: star schema has no measure %q", measure)
	}
	return olap.New(ft, dims, measure)
}

// Aggregate is a convenience running one aggregation over a star's measure.
func (e *Engine) Aggregate(star *cube.Star, measure string, groupBy []string, fn rel.AggFn) (*rel.Table, error) {
	ft := star.FactTable(measure)
	if ft == nil {
		return nil, fmt.Errorf("core: star schema has no measure %q", measure)
	}
	return ft.GroupBy(groupBy, []rel.AggSpec{{Fn: fn, Col: measure}})
}

// Session is one Figure 6 exploration loop. It is not safe for concurrent
// use; see the package comment.
type Session struct {
	eng   *Engine
	query query.Query

	topK        []topk.Result
	contexts    []summary.ContextBucket
	connections []summary.Connection
	chosen      []summary.Connection
	complete    []twig.Tuple

	// Timings records the latency of each control-flow phase for the E3
	// experiment.
	Timings map[string]time.Duration
}

// NewSession parses the query and starts an exploration.
func (e *Engine) NewSession(q string) (*Session, error) {
	parsed, err := query.Parse(q)
	if err != nil {
		return nil, err
	}
	return &Session{eng: e, query: parsed, Timings: make(map[string]time.Duration)}, nil
}

// NewSessionFromQuery starts an exploration from an already-built query.
func (e *Engine) NewSessionFromQuery(q query.Query) *Session {
	return &Session{eng: e, query: q, Timings: make(map[string]time.Duration)}
}

// Query returns the session's current (possibly refined) query.
func (s *Session) Query() query.Query { return s.query }

// TopK runs the top-k search unit and caches the results. The search's
// worker pool inherits the engine's Config.Parallelism, and its counters
// feed the engine's installed search metrics (if any).
func (s *Session) TopK(k int) ([]topk.Result, error) { return s.topKTrace(k, nil) }

// TopKTraced is TopK with an opt-in execution trace: tr is filled with the
// search's scatter dimensions, phase timings, and wave-by-wave TA
// threshold evolution. Results are identical to TopK's.
func (s *Session) TopKTraced(k int, tr *topk.Trace) ([]topk.Result, error) {
	if tr == nil {
		return nil, fmt.Errorf("core: TopKTraced needs a trace to fill")
	}
	return s.topKTrace(k, tr)
}

func (s *Session) topKTrace(k int, tr *topk.Trace) ([]topk.Result, error) {
	t0 := time.Now()
	rs, err := s.eng.searcher.Search(s.query, topk.Options{
		K:           k,
		Parallelism: s.eng.parallelism,
		Metrics:     s.eng.searchMetrics.Load(),
		Trace:       tr,
	})
	if err != nil {
		return nil, err
	}
	s.Timings["topk"] += time.Since(t0)
	s.topK = rs
	// Top-k changed: downstream summaries are stale.
	s.connections = nil
	s.complete = nil
	return rs, nil
}

// TopKResults returns the session's current top-k results (nil before the
// first TopK/SetTopK, or after a refinement cleared them). The slice must
// be treated as read-only.
func (s *Session) TopKResults() []topk.Result { return s.topK }

// SetTopK installs externally-computed top-k results — e.g. results a
// serving tier found in its cache for an identical (query, k) — exactly as
// if TopK had produced them: downstream summaries are invalidated. The
// slice is retained and read, never written, so cached results may be
// shared between sessions.
func (s *Session) SetTopK(rs []topk.Result) {
	s.topK = rs
	s.connections = nil
	s.complete = nil
}

// ContextSummary computes the per-term context buckets (§5), annotated
// with entity labels from the engine's registry.
func (s *Session) ContextSummary() []summary.ContextBucket {
	t0 := time.Now()
	s.contexts = summary.Contexts(s.eng.ix, s.query)
	s.eng.entities.Annotate(s.contexts)
	s.Timings["contexts"] += time.Since(t0)
	return s.contexts
}

// RefineContexts restricts a term to the chosen context paths and clears
// stale downstream state; the caller re-runs TopK (the Figure 6 feedback
// loop).
func (s *Session) RefineContexts(term int, paths ...string) error {
	if term < 0 || term >= len(s.query.Terms) {
		return fmt.Errorf("core: term %d out of range", term)
	}
	if len(paths) == 0 {
		return fmt.Errorf("core: select at least one context path")
	}
	s.query.Terms[term] = s.query.Terms[term].RestrictTo(paths...)
	s.topK = nil
	s.connections = nil
	s.chosen = nil
	s.complete = nil
	return nil
}

// ConnectionSummary derives the candidate connections from the current
// top-k results (§6). TopK must have run.
func (s *Session) ConnectionSummary() ([]summary.Connection, error) {
	if s.eng.summz == nil {
		return nil, fmt.Errorf("core: engine built without dataguides")
	}
	if s.topK == nil {
		return nil, fmt.Errorf("core: run TopK before the connection summary")
	}
	t0 := time.Now()
	s.connections = s.eng.summz.Connections(s.topK)
	s.Timings["connections"] += time.Since(t0)
	return s.connections, nil
}

// ChooseConnections fixes the user's connection selections (indexes into
// the last ConnectionSummary).
func (s *Session) ChooseConnections(idx ...int) error {
	if s.connections == nil {
		return fmt.Errorf("core: no connection summary computed")
	}
	var chosen []summary.Connection
	for _, i := range idx {
		if i < 0 || i >= len(s.connections) {
			return fmt.Errorf("core: connection %d out of range", i)
		}
		chosen = append(chosen, s.connections[i])
	}
	s.chosen = chosen
	s.complete = nil
	return nil
}

// ChooseConnectionValues fixes explicit connections (for programmatic
// callers that construct them directly).
func (s *Session) ChooseConnectionValues(conns ...summary.Connection) {
	s.chosen = conns
	s.complete = nil
}

// ConnectionsDOT renders the last connection summary as a Graphviz
// digraph (the §6 "visual graph representation").
func (s *Session) ConnectionsDOT() (string, error) {
	if s.connections == nil {
		return "", fmt.Errorf("core: no connection summary computed")
	}
	return summary.ExportDOT(s.eng.col.Dict(), s.connections), nil
}

// ResultTable renders the complete result set in the shape of the paper's
// Figure 3(a): per query term a node-id column and a path column.
func (s *Session) ResultTable() (*rel.Table, error) {
	tuples, err := s.CompleteResults()
	if err != nil {
		return nil, err
	}
	m := len(s.query.Terms)
	cols := make([]string, 0, 2*m)
	for i := 0; i < m; i++ {
		cols = append(cols, fmt.Sprintf("nodeid%d", i+1), fmt.Sprintf("path%d", i+1))
	}
	t := rel.NewTable("R(q)", cols...)
	dict := s.eng.col.Dict()
	for _, tp := range tuples {
		row := make([]rel.Value, 0, 2*m)
		for i := 0; i < m; i++ {
			row = append(row, rel.S(tp.Nodes[i].String()), rel.S(dict.Path(tp.Paths[i])))
		}
		t.Insert(row...)
	}
	return t, nil
}

// CompleteResults materializes the full result set R(q) under the chosen
// contexts and connections (§7).
func (s *Session) CompleteResults() ([]twig.Tuple, error) {
	if s.complete != nil {
		return s.complete, nil
	}
	if len(s.query.Terms) > 1 && len(s.chosen) == 0 {
		return nil, fmt.Errorf("core: choose connections before computing complete results")
	}
	t0 := time.Now()
	tuples, err := s.eng.eval.ComputeAll(twig.Plan{Terms: s.query.Terms, Connections: s.chosen})
	if err != nil {
		return nil, err
	}
	s.Timings["complete"] += time.Since(t0)
	s.complete = tuples
	return tuples, nil
}

// BuildCube runs the §7 matching/augmentation/extraction pipeline over the
// complete results.
func (s *Session) BuildCube(opts cube.Options) (*cube.Star, error) {
	tuples, err := s.CompleteResults()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	star, err := s.eng.builder.Build(tuples, opts)
	if err != nil {
		return nil, err
	}
	s.Timings["cube"] += time.Since(t0)
	return star, nil
}

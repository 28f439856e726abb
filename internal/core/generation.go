// Engine generations. Every engine is a generation: NewEngine makes a
// root from source, AddDocuments, DeleteDocuments, UpdateDocumentXML and
// Compact each derive the next one from an existing engine, and a
// snapshot load rebuilds a root from its sections. The first five go
// through derive and all six end in seal, so the contract below holds
// by construction:
//
//   - Generations are immutable. The receiver engine is never modified
//     (the shared path dictionary is append-only and internally
//     synchronized); sessions and caches holding the old generation keep
//     reading a fully consistent corpus while and after the new one is
//     assembled.
//   - Equivalence. A generation reached by any sequence of operations
//     answers every query — top-k, context summaries, connection
//     summaries — byte-identically to an engine built from scratch over
//     its live documents in the same order (the equivalence suites in
//     ingest_test.go and lifecycle_test.go, run under -race; measured by
//     bench/'s lifecycle.churn workload).
//   - Session state carries over. The fact/dimension catalog, the entity
//     registry, the search and term-cache metric sets and the pager are
//     user or serving state, not derived data: a derived generation
//     shares them with its predecessor, so definitions added while
//     exploring survive an op, counters stay monotonic, and the resident
//     budget spans the shards actually serving queries. The term cache
//     itself is derived data: each generation's index starts its own,
//     empty, so no cached answer outlives the generation it describes.

package core

import (
	"time"

	"seda/internal/cube"
	"seda/internal/dataguide"
	"seda/internal/graph"
	"seda/internal/index"
	"seda/internal/store"
	"seda/internal/summary"
	"seda/internal/topk"
	"seda/internal/twig"
	"seda/internal/xmldoc"
)

// step describes one generation for derive.
type step struct {
	// op prefixes the BuildTimings keys ("<op>-index", …) and names the
	// total; "" is a from-source build, whose layer keys are bare and
	// which records no total.
	op string
	// start is when the op began, so the total covers its collection step.
	start time.Time
	// col is the new generation's collection.
	col *store.Collection
	// added are the documents col appends to the previous generation's.
	added []*xmldoc.Document
}

// layers are the derived data a generation serves.
type layers struct {
	col *store.Collection
	ix  *index.Index
	g   *graph.Graph
	dg  *dataguide.Set
}

// derive assembles the generation that follows prev (nil for a
// from-source build) under cfg. The layers run in one order for every
// op: the index with the full Parallelism, then the link graph, then the
// dataguide summary. Each layer is a base plus segments and one fold,
// and derive only picks where each starts: from empty over the whole
// collection when there is no prev or a compaction renumbered the
// documents (the index at the configured shard count), otherwise from
// prev's layer, whose Extend folds the appended documents as a segment
// and handles the documents col masks since prev. The index only masks
// those; the graph and the dataguide, order-dependent folds
// (first-occurrence-wins id tables, §6.1 absorption), re-fold from the
// oldest segment holding one, or from empty when one sits in the base
// (see internal/graph/fold.go and internal/dataguide/fold.go).
func derive(prev *Engine, cfg Config, s step) (*Engine, error) {
	timings := make(map[string]time.Duration)
	key := func(layer string) string {
		if s.op == "" {
			return layer
		}
		return s.op + "-" + layer
	}
	l := layers{col: s.col}

	t := time.Now()
	var err error
	switch par := resolveParallelism(cfg.Parallelism); {
	case prev == nil, s.op == "compact":
		// A compaction lays out the configured base again, folding the
		// segments ingests appended into it.
		l.ix = index.BuildSharded(s.col, cfg.Shards, par)
	default:
		if l.ix, err = prev.ix.Extend(s.col, s.added); err != nil {
			return nil, err
		}
	}
	timings[key("index")] = time.Since(t)

	var g *graph.Graph
	var dg *dataguide.Set
	docs := s.added
	if prev == nil || s.op == "compact" {
		g, dg = graph.New(s.col, cfg.Discover, cfg.ValueLinks), &dataguide.Set{Threshold: cfg.DataguideThreshold}
		docs = s.col.LiveDocs()
	} else {
		g, dg = prev.g, prev.dg
	}
	t = time.Now()
	l.g = g.Extend(s.col, docs)
	timings[key("graph")] = time.Since(t)

	t = time.Now()
	if l.dg, err = dg.Extend(s.col, l.g, docs); err != nil {
		return nil, err
	}
	timings[key("dataguide")] = time.Since(t)

	e := seal(prev, cfg, l, timings)
	if s.op != "" {
		timings[s.op] = time.Since(s.start)
	}
	return e, nil
}

// seal makes the Engine serving l — the one place an Engine is
// constructed. It wires the cheap derived components (searcher, twig
// evaluator, summarizer, cube builder) and the session state: fresh for a
// root (prev == nil), whose pager is created under cfg.ResidentBudget,
// and inherited from prev otherwise. Attaching the pager makes it the run
// cache of the index's shards that are served from a snapshot section;
// the resident others join when a save binds them (BindBacking).
func seal(prev *Engine, cfg Config, l layers, timings map[string]time.Duration) *Engine {
	e := &Engine{
		col:          l.col,
		ix:           l.ix,
		g:            l.g,
		dg:           l.dg,
		searcher:     topk.New(l.ix, l.g),
		summz:        summary.NewSummarizer(l.dg, l.g),
		eval:         twig.New(l.ix, l.g),
		cfg:          cfg,
		id:           engineSerial.Add(1),
		BuildTimings: timings,
	}
	if prev == nil {
		e.catalog = cube.NewCatalog()
		e.entities = summary.NewEntityRegistry()
		e.pager = index.NewPager(cfg.ResidentBudget)
	} else {
		e.catalog, e.entities, e.pager = prev.catalog, prev.entities, prev.pager
		e.searchMetrics.Store(prev.searchMetrics.Load())
		e.ix.SetTermCacheMetrics(prev.ix.TermCacheMetrics())
	}
	e.builder = cube.NewBuilder(l.col, e.catalog)
	e.ix.AttachPager(e.pager)
	return e
}

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
	// restart is the first document id col renumbers: prev's documents
	// below it keep their ids, and from it on col holds prev's live
	// documents renumbered contiguously (a compaction), then added. It is
	// prev's document count when nothing is renumbered.
	restart xmldoc.DocID
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
// and derive only picks where each starts: from prev's layer, whose
// Extend folds the appended documents as a segment, handles the
// documents col masks since prev, and keeps every part before s.restart
// when col renumbers; or from empty over the whole collection, the index
// at the configured shard count, when there is no prev or a renumbering
// cannot keep the index's base (index.KeepsBase). The index only masks
// the newly dead documents; the graph and the dataguide, order-dependent
// folds (first-occurrence-wins id tables, §6.1 absorption), re-fold from
// the oldest segment holding one or the restart, or from empty when the
// base does (see internal/graph/fold.go and internal/dataguide/fold.go).
func derive(prev *Engine, cfg Config, s step) (*Engine, error) {
	timings := make(map[string]time.Duration)
	key := func(layer string) string {
		if s.op == "" {
			return layer
		}
		return s.op + "-" + layer
	}
	l := layers{col: s.col}

	from := prev
	if prev != nil && !prev.ix.KeepsBase(s.restart, cfg.Shards) {
		from = nil
	}
	t := time.Now()
	var err error
	if from == nil {
		l.ix = index.BuildSharded(s.col, cfg.Shards, resolveParallelism(cfg.Parallelism))
	} else if l.ix, err = from.ix.Extend(s.col, s.restart, s.added); err != nil {
		return nil, err
	}
	timings[key("index")] = time.Since(t)

	var g *graph.Graph
	var dg *dataguide.Set
	docs := s.added
	if from == nil {
		g, dg = graph.New(s.col, cfg.Discover, cfg.ValueLinks), &dataguide.Set{Threshold: cfg.DataguideThreshold}
		docs = s.col.LiveDocs()
	} else {
		g, dg = from.g, from.dg
	}
	t = time.Now()
	l.g = g.Extend(s.col, s.restart, docs)
	timings[key("graph")] = time.Since(t)

	t = time.Now()
	if l.dg, err = dg.Extend(s.col, l.g, s.restart, docs); err != nil {
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

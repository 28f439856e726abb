// Package seda is a from-scratch reproduction of SEDA — "Search Driven
// Analysis of Heterogeneous XML Data" (Balmin, Colby, Curtmola, Li, Özcan;
// CIDR 2009) — as a reusable Go library.
//
// SEDA lets a user explore a heterogeneous XML corpus with keyword-style
// query terms, disambiguate what the terms mean (context summaries) and how
// the matches relate (connection summaries), then materialize the complete
// result set and derive a star schema — facts and dimensions with relative
// XML keys — that an OLAP engine analyzes.
//
// The top-level flow (paper Figure 6):
//
//	col := seda.WorldFactbook(0.1)                  // or load your own XML
//	eng, _ := seda.NewEngine(col, seda.Config{})
//	s, _ := eng.NewSession(`(*, "United States") AND (trade_country, *) AND (percentage, *)`)
//	top, _ := s.TopK(10)                            // ranked tuples
//	ctxs := s.ContextSummary()                      // what can each term mean?
//	s.RefineContexts(1, "/country/economy/import_partners/item/trade_country")
//	s.TopK(10)
//	conns, _ := s.ConnectionSummary()               // how do matches relate?
//	s.ChooseConnections(0, 1)
//	star, _ := s.BuildCube(seda.CubeOptions{})      // fact + dimension tables
//	cube, _ := eng.Analyze(star, "percentage", []string{"name", "year"})
//
// Everything is implemented on the Go standard library: the XML store and
// Dewey identifiers, the full-text and context indexes, the data graph with
// IDREF/XLink/value edges, dataguide summaries with overlap merging, the
// TA-style top-k search, holistic twig joins, relative XML keys, star
// schema construction, an OLAP substrate, versioned engine snapshots
// (SaveEngine/LoadEngine) that persist every derived layer to disk, and
// incremental ingest ((*Engine).AddDocuments) that appends documents to a
// live engine by deriving a new generation instead of rebuilding.
package seda

import (
	"io"
	"os"
	"path/filepath"
	"sort"

	"seda/internal/core"
	"seda/internal/cube"
	"seda/internal/datagen"
	"seda/internal/dataguide"
	"seda/internal/graph"
	"seda/internal/keys"
	"seda/internal/olap"
	"seda/internal/query"
	"seda/internal/rel"
	"seda/internal/server"
	"seda/internal/store"
	"seda/internal/summary"
	"seda/internal/topk"
	"seda/internal/twig"
	"seda/internal/xmldoc"
)

// Core engine types.
type (
	// Engine is the per-collection SEDA runtime: indexes, data graph,
	// dataguide summary, and the fact/dimension catalog.
	Engine = core.Engine
	// Session is one exploration loop: query → top-k → summaries →
	// refinement → complete results → cube.
	Session = core.Session
	// Config tunes engine construction.
	Config = core.Config
	// ValueLink declares a value-based (PK/FK) edge for the data graph.
	ValueLink = core.ValueLink
	// IngestDoc is one raw XML document for (*Engine).AddDocumentsXML —
	// the incremental ingest path that derives a new engine generation
	// without a full rebuild.
	IngestDoc = core.IngestDoc
)

// Storage and model types.
type (
	// Collection is an indexed set of XML documents.
	Collection = store.Collection
	// Document is one parsed XML document.
	Document = xmldoc.Document
	// Node is an XML element or attribute node.
	Node = xmldoc.Node
	// NodeRef addresses a node across the collection (document + Dewey id).
	NodeRef = xmldoc.NodeRef
	// DiscoverOptions configures ID/IDREF/XLink link discovery.
	DiscoverOptions = graph.DiscoverOptions
	// ValueLinkOptions tunes automatic PK/FK value-link discovery.
	ValueLinkOptions = graph.ValueLinkOptions
	// ValueLinkCandidate is one discovered PK/FK relationship.
	ValueLinkCandidate = graph.ValueLinkCandidate
	// EntityRegistry labels context paths with real-world entity names
	// shown in context summaries (§5's abstraction).
	EntityRegistry = summary.EntityRegistry
)

// Query and result types.
type (
	// Query is a set of (context, search) query terms.
	Query = query.Query
	// Term is one query term.
	Term = query.Term
	// SearchResult is one ranked top-k tuple.
	SearchResult = topk.Result
	// SearchOptions tunes the top-k search.
	SearchOptions = topk.Options
	// ContextBucket is one term's context summary.
	ContextBucket = summary.ContextBucket
	// Connection is one proposed relationship between term matches.
	Connection = summary.Connection
	// Tuple is one complete-result row (Figure 3(a)'s nodeid/path pairs).
	Tuple = twig.Tuple
)

// Cube and analysis types.
type (
	// Catalog is the fact/dimension catalog (paper's F and D sets).
	Catalog = cube.Catalog
	// ContextEntry is one (context, key) row of a definition.
	ContextEntry = cube.ContextEntry
	// CubeOptions steers cube construction (augmentation, new defs).
	CubeOptions = cube.Options
	// NewDef defines a user-created fact or dimension from a result column.
	NewDef = cube.NewDef
	// Star is a generated star schema.
	Star = cube.Star
	// Key is a relative XML key.
	Key = keys.Key
	// Table is a relational table (fact or dimension).
	Table = rel.Table
	// Cube is an analyzable OLAP cube.
	Cube = olap.Cube
	// DataguideSet is the dataguide summary of a collection.
	DataguideSet = dataguide.Set
)

// Serving tier types (the cmd/sedad daemon; see internal/server).
type (
	// Server is the HTTP/JSON serving tier exposing the Figure 6 loop as
	// stateful endpoints, with an engine registry, a TTL/LRU-evicted
	// session table, and a bounded top-k result cache.
	Server = server.Server
	// ServerOptions tunes session TTL, table capacity, cache size, build
	// and search parallelism, and the default builtin corpus scale.
	ServerOptions = server.Options
	// EngineRegistry maps collection names to lazily-built engines.
	EngineRegistry = server.Registry
)

// MaxShards caps a collection's horizontal index shard count on the
// serving tier (explicit requests beyond it are rejected, server
// defaults are clamped).
const MaxShards = server.MaxShards

// NewServer returns an http.Handler serving the SEDA exploration API.
// Register collections up front via (*Server).Registry() or at runtime
// with POST /collections.
func NewServer(opts ServerOptions) *Server { return server.New(opts) }

// NewEngine indexes a collection and prepares all SEDA components.
func NewEngine(col *Collection, cfg Config) (*Engine, error) {
	return core.NewEngine(col, cfg)
}

// NewCollection returns an empty collection; add documents with
// (*Collection).AddXML or (*Collection).AddDocument.
func NewCollection() *Collection { return store.NewCollection() }

// Engine snapshots: every derived layer of an engine — path dictionary,
// collection with statistics, full-text indexes, link graph, dataguide
// summary — persisted as one versioned, checksummed container, so a
// process restart costs O(read) instead of O(rebuild). Only the current
// container version is read; any other version, or a file that is not a
// snapshot, is an error, and the caller rebuilds from source.

// LoadedEngine is the result of LoadEngineAuto: the engine plus the
// config and source tag the snapshot stored.
type LoadedEngine = core.LoadedEngine

// ErrSnapshotConfigMismatch reports an engine snapshot built under a
// different Config than the caller's (dataguide threshold, link
// discovery, value links); the caller should rebuild instead of loading.
var ErrSnapshotConfigMismatch = core.ErrConfigMismatch

// SaveEngine writes an engine snapshot to w.
func SaveEngine(w io.Writer, e *Engine) error { return core.SaveEngine(w, e, "") }

// SaveEngineFile writes an engine snapshot to path atomically (temp file
// plus rename): readers never observe a partial snapshot.
func SaveEngineFile(path string, e *Engine) error { return core.SaveEngineFile(path, e, "") }

// LoadEngine reads an engine snapshot, verifying it was built under cfg;
// a mismatch returns ErrSnapshotConfigMismatch. cfg.Parallelism applies
// to the loaded engine's searches.
func LoadEngine(r io.Reader, cfg Config) (*Engine, error) { return core.LoadEngine(r, cfg, "") }

// LoadEngineFile is LoadEngine over a file.
func LoadEngineFile(path string, cfg Config) (*Engine, error) {
	return core.LoadEngineFile(path, cfg, "")
}

// LoadEngineAuto loads an engine snapshot from path adopting its stored
// config. Only env's environment fields apply: Parallelism,
// ResidentBudget and Backing.
func LoadEngineAuto(path string, env Config) (*LoadedEngine, error) {
	return core.LoadEngineAuto(path, env)
}

// LoadXMLDir loads every *.xml file under dir (sorted for determinism)
// into a fresh collection.
func LoadXMLDir(dir string) (*Collection, error) {
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && filepath.Ext(path) == ".xml" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	col := store.NewCollection()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		if _, err := col.AddXML(filepath.Base(f), data); err != nil {
			return nil, err
		}
	}
	return col, nil
}

// ParseQuery parses the textual query syntax, e.g.
// `(*, "United States") AND (trade_country, *)`.
func ParseQuery(s string) (Query, error) { return query.Parse(s) }

// ParseKey parses a relative XML key such as
// "(/country, /country/year, ../trade_country)".
func ParseKey(s string) (Key, error) { return keys.Parse(s) }

// DiscoverKey searches for a relative key for the nodes at contextPath —
// the GORDIAN-style automation the paper lists as future work.
func DiscoverKey(col *Collection, contextPath string) (Key, bool) {
	return keys.Discover(col, contextPath, keys.DiscoverOptions{})
}

// Corpus generators reproducing the paper's four evaluation datasets at a
// given scale (1.0 = paper size). See internal/datagen for the calibrated
// statistics.

// WorldFactbook generates the six annual releases of the World Factbook
// corpus (scale 1.0 = 1600 documents).
func WorldFactbook(scale float64) *Collection { return datagen.WorldFactbook(scale) }

// Mondial generates the linked geography corpus (scale 1.0 = 5563
// documents). Use MondialConfig for the matching link discovery settings.
func Mondial(scale float64) *Collection { return datagen.Mondial(scale) }

// MondialConfig returns the engine Config whose link discovery resolves
// Mondial's reference attributes. It shares the dataset→config mapping
// with the serving registry, so engines built through either fingerprint
// identically and can exchange snapshots.
func MondialConfig() Config {
	return Config{Discover: datagen.DiscoverOptionsFor("mondial")}
}

// GoogleBase generates the flat, regular product-listing corpus (scale
// 1.0 = 10000 documents in 88 item types).
func GoogleBase(scale float64) *Collection { return datagen.GoogleBase(scale) }

// RecipeML generates the recipe corpus (scale 1.0 = 10988 documents in 3
// structural families).
func RecipeML(scale float64) *Collection { return datagen.RecipeML(scale) }

// BuildDataguides computes the dataguide summary of a collection at the
// given overlap threshold (the paper's Table 1 uses 0.40).
func BuildDataguides(col *Collection, threshold float64) (*DataguideSet, error) {
	return dataguide.Build(col, nil, threshold)
}

// Aggregate names re-exported for OLAP calls.
const (
	Sum   = rel.Sum
	Count = rel.Count
	Avg   = rel.Avg
	Min   = rel.Min
	Max   = rel.Max
)

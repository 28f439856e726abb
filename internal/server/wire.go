// Wire types: the JSON request and response shapes of the sedad HTTP API,
// plus the converters from the engine's internal types. Responses render
// node references, interned paths, and relational values into plain JSON
// so clients need none of the library's types.
package server

import (
	"time"
	"unicode/utf8"

	"seda/internal/rel"
	"seda/internal/store"
	"seda/internal/summary"
	"seda/internal/topk"
)

// --- requests ---

type collectionRequest struct {
	Name string `json:"name"`
	// Builtin selects a generated corpus (worldfactbook, mondial,
	// googlebase, recipeml) at Scale; Documents uploads raw XML instead.
	Builtin   string            `json:"builtin,omitempty"`
	Scale     float64           `json:"scale,omitempty"`
	Documents []documentPayload `json:"documents,omitempty"`
	// DataguideThreshold overrides the 0.40 overlap merge default.
	DataguideThreshold float64 `json:"dataguide_threshold,omitempty"`
	// Parallelism overrides the server's worker-pool width for this
	// collection's engine build and searches (0 = server default).
	Parallelism int `json:"parallelism,omitempty"`
	// Shards overrides the server's horizontal index shard count for this
	// collection (0 = server default, 1 = single shard). Answers are
	// identical at any setting; shards parallelize search scatter,
	// snapshot I/O, and keep ingest cost shard-local.
	Shards int `json:"shards,omitempty"`
	// ResidentBudget overrides the server's run-cache budget in bytes for
	// this collection (0 = server default). A positive budget reads index
	// runs from the collection's snapshot on first use and drops the
	// least-recently-used past the budget, so it is refused
	// on a registry without a snapshot directory; answers are identical at
	// any setting.
	ResidentBudget int64 `json:"resident_budget,omitempty"`
}

type documentPayload struct {
	Name string `json:"name"`
	XML  string `json:"xml"`
}

type ingestRequest struct {
	// Documents are appended to the collection in order (incremental
	// ingest; see POST /collections/{name}/documents).
	Documents []documentPayload `json:"documents"`
}

type updateRequest struct {
	// XML is the replacement document body for
	// PUT /collections/{name}/documents/{doc}; the document name comes
	// from the URL.
	XML string `json:"xml"`
}

type catalogRequest struct {
	Facts      []defPayload `json:"facts,omitempty"`
	Dimensions []defPayload `json:"dimensions,omitempty"`
}

type defPayload struct {
	Name     string       `json:"name"`
	Contexts []defContext `json:"contexts"`
}

type defContext struct {
	Context string `json:"context"`
	Key     string `json:"key"`
}

type sessionRequest struct {
	Collection string `json:"collection"`
	Query      string `json:"query"`
}

type queryRequest struct {
	// K defaults to 10; Explain opts into the per-request search trace.
	K       int  `json:"k,omitempty"`
	Explain bool `json:"explain,omitempty"`
}

type refineRequest struct {
	Term  int      `json:"term"`
	Paths []string `json:"paths"`
}

type chooseRequest struct {
	Connections []int `json:"connections"`
}

type cubeRequest struct {
	AddFacts         []string        `json:"add_facts,omitempty"`
	AddDimensions    []string        `json:"add_dimensions,omitempty"`
	RemoveFacts      []string        `json:"remove_facts,omitempty"`
	RemoveDimensions []string        `json:"remove_dimensions,omitempty"`
	Define           []definePayload `json:"define,omitempty"`
	// MaxRows caps rows returned per table (default 100; -1 = unlimited).
	MaxRows int `json:"max_rows,omitempty"`
}

type definePayload struct {
	Name   string `json:"name"`
	Column int    `json:"column"`
	IsFact bool   `json:"is_fact"`
	Key    string `json:"key"`
}

type analyzeRequest struct {
	Measure string   `json:"measure"`
	Dims    []string `json:"dims"`
	// GroupBy/Agg run one aggregate over the cube (default: group by all
	// dims with SUM).
	GroupBy []string `json:"group_by,omitempty"`
	Agg     string   `json:"agg,omitempty"`
	MaxRows int      `json:"max_rows,omitempty"`
}

// --- responses ---

type errorResponse struct {
	Error string `json:"error"`
}

type ingestResponse struct {
	Collection string `json:"collection"`
	DocsAdded  int    `json:"docs_added"`
	Docs       int    `json:"docs"`  // live documents after the append
	Nodes      int    `json:"nodes"` // total nodes after the append
	State      string `json:"state"`
}

// lifecycleResponse answers the document-lifecycle endpoints (DELETE and
// PUT on /collections/{name}/documents/{doc}, POST
// /collections/{name}/compact).
type lifecycleResponse struct {
	Collection string `json:"collection"`
	Document   string `json:"document,omitempty"`
	// DocsDeleted counts documents masked by a DELETE (several live
	// documents can share a name).
	DocsDeleted int `json:"docs_deleted,omitempty"`
	// Docs counts LIVE documents; Tombstones the masked ids still
	// occupying id space until the next compaction.
	Docs           int     `json:"docs"`
	Tombstones     int     `json:"tombstones"`
	TombstoneRatio float64 `json:"tombstone_ratio,omitempty"`
	State          string  `json:"state"`
}

type sessionResponse struct {
	Session    string    `json:"session"`
	Collection string    `json:"collection"`
	Query      string    `json:"query"`
	Created    time.Time `json:"created"`
}

type topkResponse struct {
	Session string       `json:"session"`
	Query   string       `json:"query"`
	K       int          `json:"k"`
	Cached  bool         `json:"cached"`
	Results []wireResult `json:"results"`
	// Trace is the opt-in explain payload ("explain": true / ?explain=1).
	Trace *wireTrace `json:"trace,omitempty"`
}

// wireTrace is the per-request query trace: the request id (matching the
// X-Request-ID header and log lines), where a plain request would have
// been served from ("session" or "search"), the end-to-end
// search time, and the TA search's own stage timings, per-term fetch
// counts, and wave-by-wave threshold evolution.
type wireTrace struct {
	RequestID string      `json:"request_id,omitempty"`
	Cache     string      `json:"cache"`
	TotalNs   int64       `json:"total_ns"`
	TopK      *topk.Trace `json:"topk,omitempty"`
}

type wireResult struct {
	Rank         int        `json:"rank"`
	Score        float64    `json:"score"`
	ContentScore float64    `json:"content_score"`
	Compactness  float64    `json:"compactness"`
	Nodes        []wireNode `json:"nodes"`
}

type wireNode struct {
	Node string `json:"node"` // "n3@1.2.2.1" — document + Dewey id
	Path string `json:"path"`
	Text string `json:"text,omitempty"`
}

type contextsResponse struct {
	Session  string              `json:"session"`
	Contexts []wireContextBucket `json:"contexts"`
}

type wireContextBucket struct {
	Term    string             `json:"term"`
	Entries []wireContextEntry `json:"entries"`
}

type wireContextEntry struct {
	Path        string `json:"path"`
	DocFreq     int    `json:"doc_freq"`
	Occurrences int    `json:"occurrences"`
	Entity      string `json:"entity,omitempty"`
}

type connectionsResponse struct {
	Session     string           `json:"session"`
	Connections []wireConnection `json:"connections"`
	DOT         string           `json:"dot,omitempty"`
}

type wireConnection struct {
	Index         int    `json:"index"` // position for POST .../choose
	TermA         int    `json:"term_a"`
	TermB         int    `json:"term_b"`
	Kind          string `json:"kind"` // "tree" or "link"
	Description   string `json:"description"`
	PathA         string `json:"path_a"`
	PathB         string `json:"path_b"`
	JoinPath      string `json:"join_path,omitempty"`
	LinkLabel     string `json:"link_label,omitempty"`
	Length        int    `json:"length"`
	Support       int    `json:"support"`
	FalsePositive bool   `json:"false_positive"`
}

type cubeResponse struct {
	Session    string      `json:"session"`
	Facts      []wireTable `json:"facts"`
	Dimensions []wireTable `json:"dimensions"`
	SQL        []string    `json:"sql,omitempty"`
	Warnings   []string    `json:"warnings,omitempty"`
}

type analyzeResponse struct {
	Session string    `json:"session"`
	Measure string    `json:"measure"`
	Dims    []string  `json:"dims"`
	Agg     string    `json:"agg"`
	GroupBy []string  `json:"group_by"`
	Table   wireTable `json:"table"`
}

type wireTable struct {
	Name      string   `json:"name"`
	Cols      []string `json:"cols"`
	RowsTotal int      `json:"rows_total"`
	// Rows holds up to the request's max_rows rows; cells are JSON
	// strings, numbers, or null.
	Rows [][]any `json:"rows"`
}

type statsResponse struct {
	Uptime      string         `json:"uptime"`
	Collections []RegistryInfo `json:"collections"`
	Sessions    sessionStats   `json:"sessions"`
	Runtime     runtimeStats   `json:"runtime"`
}

// runtimeStats surfaces the process's identity and the Go runtime's view
// of it on /stats and /debug/stats: build provenance (toolchain version
// and VCS stamp), uptime, the scheduler width capacity planning cares
// about, and the memory counters that show engine footprint and GC
// pressure.
type runtimeStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	VCSRevision   string  `json:"vcs_revision,omitempty"`
	VCSTime       string  `json:"vcs_time,omitempty"`
	VCSModified   bool    `json:"vcs_modified,omitempty"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"num_cpu"`
	NumGC         uint32  `json:"num_gc"`
	HeapAlloc     uint64  `json:"heap_alloc_bytes"`
	Sys           uint64  `json:"sys_bytes"`
}

// --- converters ---

// maxNodeText caps the matched-node excerpt returned on the wire.
const maxNodeText = 160

func wireResults(col *store.Collection, rs []topk.Result) []wireResult {
	dict := col.Dict()
	out := make([]wireResult, len(rs))
	for i, r := range rs {
		wr := wireResult{
			Rank:         i + 1,
			Score:        r.Score,
			ContentScore: r.ContentScore,
			Compactness:  r.Compactness,
			Nodes:        make([]wireNode, len(r.Nodes)),
		}
		for j, ref := range r.Nodes {
			text := col.Content(ref)
			if len(text) > maxNodeText {
				cut := maxNodeText
				// Back off to a rune boundary so the cut never splits a
				// multi-byte character into U+FFFD garbage.
				for cut > 0 && !utf8.RuneStart(text[cut]) {
					cut--
				}
				text = text[:cut] + "…"
			}
			wr.Nodes[j] = wireNode{
				Node: ref.String(),
				Path: dict.Path(r.Paths[j]),
				Text: text,
			}
		}
		out[i] = wr
	}
	return out
}

func wireContexts(buckets []summary.ContextBucket) []wireContextBucket {
	out := make([]wireContextBucket, len(buckets))
	for i, b := range buckets {
		wb := wireContextBucket{
			Term:    b.Term.String(),
			Entries: make([]wireContextEntry, len(b.Entries)),
		}
		for j, e := range b.Entries {
			wb.Entries[j] = wireContextEntry{
				Path:        e.PathString,
				DocFreq:     e.DocFreq,
				Occurrences: e.Occurrences,
				Entity:      e.Entity,
			}
		}
		out[i] = wb
	}
	return out
}

func wireConnections(col *store.Collection, conns []summary.Connection) []wireConnection {
	dict := col.Dict()
	out := make([]wireConnection, len(conns))
	for i, c := range conns {
		wc := wireConnection{
			Index:         i,
			TermA:         c.TermA,
			TermB:         c.TermB,
			Description:   c.Describe(dict),
			PathA:         dict.Path(c.PathA),
			PathB:         dict.Path(c.PathB),
			Length:        c.Length,
			Support:       c.Support,
			FalsePositive: c.FalsePositive,
		}
		if c.Kind == summary.Tree {
			wc.Kind = "tree"
			wc.JoinPath = dict.Path(c.JoinPath)
		} else {
			wc.Kind = "link"
			wc.LinkLabel = c.Link.Label
		}
		out[i] = wc
	}
	return out
}

func wireTableOf(t *rel.Table, maxRows int) wireTable {
	wt := wireTable{Name: t.Name, Cols: t.Cols, RowsTotal: len(t.Rows)}
	n := len(t.Rows)
	if maxRows >= 0 && n > maxRows {
		n = maxRows
	}
	wt.Rows = make([][]any, n)
	for i := 0; i < n; i++ {
		row := make([]any, len(t.Rows[i]))
		for j, v := range t.Rows[i] {
			row[j] = wireValue(v)
		}
		wt.Rows[i] = row
	}
	return wt
}

func wireValue(v rel.Value) any {
	switch {
	case v.IsNull:
		return nil
	case v.IsNum:
		return v.Num
	default:
		return v.Str
	}
}

package summary

import (
	"fmt"
	"sort"
	"sync"

	"seda/internal/dataguide"
	"seda/internal/dewey"
	"seda/internal/graph"
	"seda/internal/pathdict"
	"seda/internal/topk"
)

// ConnKind distinguishes tree connections (join through a common ancestor
// element) from link connections (IDREF/XLink/value edges).
type ConnKind uint8

// Connection kinds.
const (
	Tree ConnKind = iota
	LinkEdge
)

// Connection is one proposed relationship between the matches of two query
// terms (paper §6: "instead of computing connected graphs, we show pairwise
// connections between the matching nodes").
type Connection struct {
	TermA, TermB int // query term indexes, TermA < TermB
	PathA, PathB pathdict.PathID
	Kind         ConnKind
	// JoinPath is the common-ancestor path instances join through (Tree
	// connections). The §6 example yields two: .../item ("same item") and
	// .../import_partners ("across items").
	JoinPath pathdict.PathID
	// Link describes the edge for LinkEdge connections.
	Link dataguide.Link
	// Length is the number of edges on the connection (shortest in the
	// dataguide, per §6.1).
	Length int
	// Support counts top-k result tuples instantiating this connection.
	Support int
	// FalsePositive marks connections proposed by the dataguide summary
	// with no instantiation in the top-k results (§6.1: merged guides and
	// keyword restrictions cause these).
	FalsePositive bool
}

// Describe renders a human-readable description of the connection.
func (c Connection) Describe(dict *pathdict.Dict) string {
	switch c.Kind {
	case Tree:
		return fmt.Sprintf("%s ~ %s via %s", dict.Path(c.PathA), dict.Path(c.PathB), dict.Path(c.JoinPath))
	default:
		return fmt.Sprintf("%s -[%s:%s]- %s", dict.Path(c.PathA), c.Link.Kind, c.Link.Label, dict.Path(c.PathB))
	}
}

// Summarizer computes connection summaries against a dataguide set and a
// data graph. It caches per path-pair candidates, the optimization §6.1
// describes ("we cache the connections we discover so that we can leverage
// the cache for later query hits"). The cache is shared across every
// session of one engine, so Connections is safe for concurrent use; the
// instrumentation counters are only coherent to read once callers are
// quiescent.
type Summarizer struct {
	dg   *dataguide.Set
	g    *graph.Graph
	dict *pathdict.Dict

	mu    sync.Mutex
	cache map[[2]pathdict.PathID][]Connection // guarded by mu
	// CacheHits and CacheMisses instrument the cache.
	CacheHits   int // guarded by mu
	CacheMisses int // guarded by mu
}

// NewSummarizer returns a Summarizer over the given summaries and graph.
func NewSummarizer(dg *dataguide.Set, g *graph.Graph) *Summarizer {
	return &Summarizer{
		dg:    dg,
		g:     g,
		dict:  g.Collection().Dict(),
		cache: make(map[[2]pathdict.PathID][]Connection),
	}
}

// Connections computes the connection summary for a set of top-k results:
// for every query-term pair and every distinct (path, path) combination
// observed in the results, the dataguide-derived candidate connections,
// with per-candidate support counts and false-positive marks.
func (s *Summarizer) Connections(results []topk.Result) []Connection {
	if len(results) == 0 {
		return nil
	}
	m := len(results[0].Nodes)
	type pairKey struct {
		a, b   int
		pa, pb pathdict.PathID
	}
	agg := make(map[pairKey][]Connection)
	var edges []graph.Edge // scratch for support
	for _, r := range results {
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				k := pairKey{a: i, b: j, pa: r.Paths[i], pb: r.Paths[j]}
				cands, ok := agg[k]
				if !ok {
					cands = s.candidates(k.pa, k.pb)
					// Re-tag with term indexes.
					for x := range cands {
						cands[x].TermA, cands[x].TermB = i, j
					}
					agg[k] = cands
				}
				// Attribute this instance pair to the matching candidate.
				s.support(&edges, agg[k], r, i, j)
			}
		}
	}
	var out []Connection
	for _, cands := range agg {
		for _, c := range cands {
			c.FalsePositive = c.Support == 0
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		if a.Length != b.Length {
			return a.Length < b.Length
		}
		return a.Describe(s.dict) < b.Describe(s.dict)
	})
	return out
}

// candidates returns the possible connections between two paths, from the
// cache when warm.
func (s *Summarizer) candidates(pa, pb pathdict.PathID) []Connection {
	key := [2]pathdict.PathID{pa, pb}
	s.mu.Lock()
	if cs, ok := s.cache[key]; ok {
		s.CacheHits++
		out := cloneConns(cs)
		s.mu.Unlock()
		return out
	}
	s.CacheMisses++
	s.mu.Unlock()
	var out []Connection
	// Tree connections from every guide containing both paths. Multiple
	// guides can propose the same join path; dedupe keeping the shortest
	// (§6.1: "If there are multiple paths between two dataguide nodes, the
	// algorithm chooses the one with the shortest path").
	seenJoin := make(map[pathdict.PathID]bool)
	for _, g := range s.dg.GuidesContaining(pa) {
		if !g.Contains(pb) {
			continue
		}
		for _, join := range g.TreeConnections(s.dict, pa, pb) {
			if seenJoin[join] {
				continue
			}
			seenJoin[join] = true
			length := (s.dict.Depth(pa) - s.dict.Depth(join)) + (s.dict.Depth(pb) - s.dict.Depth(join))
			out = append(out, Connection{
				PathA: pa, PathB: pb, Kind: Tree, JoinPath: join, Length: length,
			})
		}
	}
	// Link connections: an edge whose endpoint paths are ancestors-or-self
	// of pa and pb connects the pair (the matched nodes reach the edge
	// endpoints through tree steps). Length counts those tree steps plus
	// the edge. Links are deduplicated on (paths, kind, label): the same
	// relationship between different guide pairs is one user-facing
	// connection.
	seenLink := make(map[string]bool)
	for _, l := range s.dg.Links() {
		var fromDepth, toDepth int
		switch {
		case s.dict.IsPrefixOf(l.FromPath, pa) && s.dict.IsPrefixOf(l.ToPath, pb):
			fromDepth, toDepth = s.dict.Depth(pa)-s.dict.Depth(l.FromPath), s.dict.Depth(pb)-s.dict.Depth(l.ToPath)
		case s.dict.IsPrefixOf(l.FromPath, pb) && s.dict.IsPrefixOf(l.ToPath, pa):
			fromDepth, toDepth = s.dict.Depth(pb)-s.dict.Depth(l.FromPath), s.dict.Depth(pa)-s.dict.Depth(l.ToPath)
		default:
			continue
		}
		lk := fmt.Sprintf("%d|%d|%d|%s", l.FromPath, l.ToPath, l.Kind, l.Label)
		if seenLink[lk] {
			continue
		}
		seenLink[lk] = true
		out = append(out, Connection{
			PathA: pa, PathB: pb, Kind: LinkEdge, Link: l, Length: fromDepth + toDepth + 1,
		})
	}
	s.mu.Lock()
	s.cache[key] = cloneConns(out)
	s.mu.Unlock()
	return out
}

// support attributes one result tuple's (i, j) node pair to the candidate
// connection it instantiates. edges is the caller's scratch for the link
// edges of the first node's document.
func (s *Summarizer) support(edges *[]graph.Edge, cands []Connection, r topk.Result, i, j int) {
	a, b := r.Nodes[i], r.Nodes[j]
	if a.Doc == b.Doc {
		l := dewey.LCA(a.Dewey, b.Dewey)
		joinPath := s.dict.AncestorAtDepth(r.Paths[i], l.Level())
		for x := range cands {
			if cands[x].Kind == Tree && cands[x].JoinPath == joinPath {
				cands[x].Support++
				return
			}
		}
		return
	}
	// Cross-document: find a link edge between ancestors-or-self of the two
	// nodes.
	for x := range cands {
		if cands[x].Kind != LinkEdge {
			continue
		}
		*edges = s.g.EdgesOfDoc((*edges)[:0], a.Doc)
		for _, e := range *edges {
			touchesA := e.From.Doc == a.Doc && e.From.Dewey.IsAncestorOrSelf(a.Dewey) ||
				e.To.Doc == a.Doc && e.To.Dewey.IsAncestorOrSelf(a.Dewey)
			touchesB := e.From.Doc == b.Doc && e.From.Dewey.IsAncestorOrSelf(b.Dewey) ||
				e.To.Doc == b.Doc && e.To.Dewey.IsAncestorOrSelf(b.Dewey)
			if touchesA && touchesB && e.Label == cands[x].Link.Label && e.Kind == cands[x].Link.Kind {
				cands[x].Support++
				return
			}
		}
	}
}

func cloneConns(cs []Connection) []Connection {
	out := make([]Connection, len(cs))
	copy(out, cs)
	return out
}

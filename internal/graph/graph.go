// Package graph implements SEDA's data graph (paper §3, Definition 2).
//
// The data graph G(V,E) has the collection's element/attribute nodes as
// vertices and four kinds of edges: (1) parent/child, (2) IDREF links,
// (3) XLink/XPointer links, and (4) value-based (primary key/foreign key)
// relationships. Parent/child edges are implicit — Dewey identifiers encode
// them — so the graph materializes only the non-tree ("link") edges, which
// is also how the paper's Figure 1 draws them (dashed lines).
//
// The package further provides the distance machinery used by the top-k
// scorer (compactness of the subgraph connecting a candidate tuple) and by
// relationship discovery: tree distances via Dewey arithmetic, cross-
// document distances via a portal graph over link-edge endpoints, and a
// Steiner-weight approximation for connecting whole tuples.
package graph

import (
	"fmt"
	"slices"
	"sort"

	"seda/internal/store"
	"seda/internal/xmldoc"
)

// EdgeKind classifies non-tree edges (Definition 2, cases 2-4).
type EdgeKind uint8

// Edge kinds.
const (
	IDRef EdgeKind = iota
	XLink
	Value
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case IDRef:
		return "idref"
	case XLink:
		return "xlink"
	case Value:
		return "value"
	}
	return fmt.Sprintf("EdgeKind(%d)", uint8(k))
}

// Edge is a directed non-tree edge between two data nodes. Label carries
// the relationship name shown to users (the paper's Figure 1 labels its
// dashed edges "bordering", "trade partner", ...).
type Edge struct {
	From, To xmldoc.NodeRef
	Kind     EdgeKind
	Label    string
}

// Graph is the link-edge overlay of a collection. Build it once after the
// collection is loaded; reads are then safe for concurrent use. Published
// graphs are shared across engine generations, so writes outside the
// build/extend/decode paths are sedalint diagnostics (genimmutable).
//
//seda:immutable
type Graph struct {
	col   *store.Collection
	edges []Edge
	out   map[string][]int // refKey -> indexes into edges
	in    map[string][]int
	// outByDoc lists, per document, the edge indexes whose From node lives
	// in that document. It feeds the portal graph for cross-document
	// distances.
	outByDoc map[xmldoc.DocID][]int
	inByDoc  map[xmldoc.DocID][]int

	// disc is the retained link-discovery state (ids seen, references that
	// did not resolve) enabling incremental extension. DiscoverLinks
	// populates it; decoded snapshots carry none, so the first incremental
	// ingest after a load rebuilds it by rescanning (see ingest.go).
	disc *discoveryState
	// vls retains per-call value-link join state, in AddValueLinks call
	// order, for the same purpose.
	vls []*valueLinkState
}

// New returns an empty overlay for col.
func New(col *store.Collection) *Graph {
	return &Graph{
		col:      col,
		out:      make(map[string][]int),
		in:       make(map[string][]int),
		outByDoc: make(map[xmldoc.DocID][]int),
		inByDoc:  make(map[xmldoc.DocID][]int),
	}
}

// Collection returns the underlying collection.
func (g *Graph) Collection() *store.Collection { return g.col }

// AddEdge inserts a link edge after validating both endpoints resolve.
//
//seda:constructor
func (g *Graph) AddEdge(from, to xmldoc.NodeRef, kind EdgeKind, label string) error {
	if g.col.Node(from) == nil {
		return fmt.Errorf("graph: dangling source %v", from)
	}
	if g.col.Node(to) == nil {
		return fmt.Errorf("graph: dangling target %v", to)
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{From: from, To: to, Kind: kind, Label: label})
	fk, tk := key(from), key(to)
	g.out[fk] = append(g.out[fk], idx)
	g.in[tk] = append(g.in[tk], idx)
	g.outByDoc[from.Doc] = append(g.outByDoc[from.Doc], idx)
	g.inByDoc[to.Doc] = append(g.inByDoc[to.Doc], idx)
	return nil
}

// LinkedDocs appends to dst the other documents that at least one link
// edge joins doc to, in either direction, ascending and without repeats.
// It reads doc's own edge lists, so it costs doc's degree.
func (g *Graph) LinkedDocs(dst []xmldoc.DocID, doc xmldoc.DocID) []xmldoc.DocID {
	start := len(dst)
	for _, i := range g.outByDoc[doc] {
		if d := g.edges[i].To.Doc; d != doc {
			dst = append(dst, d)
		}
	}
	for _, i := range g.inByDoc[doc] {
		if d := g.edges[i].From.Doc; d != doc {
			dst = append(dst, d)
		}
	}
	slices.Sort(dst[start:])
	return dst[:start+len(slices.Compact(dst[start:]))]
}

// NumEdges returns the number of link edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edges returns all link edges; the slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// EdgesFrom returns the link edges whose source is ref.
func (g *Graph) EdgesFrom(ref xmldoc.NodeRef) []Edge { return g.pick(g.out[key(ref)]) }

// EdgesTo returns the link edges whose target is ref.
func (g *Graph) EdgesTo(ref xmldoc.NodeRef) []Edge { return g.pick(g.in[key(ref)]) }

// EdgesOfDoc returns the link edges touching a document (either endpoint).
func (g *Graph) EdgesOfDoc(doc xmldoc.DocID) []Edge {
	seen := make(map[int]struct{})
	var idxs []int
	for _, i := range g.outByDoc[doc] {
		if _, ok := seen[i]; !ok {
			seen[i] = struct{}{}
			idxs = append(idxs, i)
		}
	}
	for _, i := range g.inByDoc[doc] {
		if _, ok := seen[i]; !ok {
			seen[i] = struct{}{}
			idxs = append(idxs, i)
		}
	}
	sort.Ints(idxs)
	return g.pick(idxs)
}

func (g *Graph) pick(idxs []int) []Edge {
	if len(idxs) == 0 {
		return nil
	}
	out := make([]Edge, len(idxs))
	for i, idx := range idxs {
		out[i] = g.edges[idx]
	}
	return out
}

// DocsConnected reports whether two documents are linked by a chain of at
// most maxHops link edges (in either direction). Same document is trivially
// connected.
func (g *Graph) DocsConnected(a, b xmldoc.DocID, maxHops int) bool {
	if a == b {
		return true
	}
	visited := map[xmldoc.DocID]struct{}{a: {}}
	frontier := []xmldoc.DocID{a}
	for hop := 0; hop < maxHops && len(frontier) > 0; hop++ {
		var next []xmldoc.DocID
		for _, d := range frontier {
			for _, i := range g.outByDoc[d] {
				nd := g.edges[i].To.Doc
				if _, ok := visited[nd]; !ok {
					if nd == b {
						return true
					}
					visited[nd] = struct{}{}
					next = append(next, nd)
				}
			}
			for _, i := range g.inByDoc[d] {
				nd := g.edges[i].From.Doc
				if _, ok := visited[nd]; !ok {
					if nd == b {
						return true
					}
					visited[nd] = struct{}{}
					next = append(next, nd)
				}
			}
		}
		frontier = next
	}
	return false
}

func key(r xmldoc.NodeRef) string { return fmt.Sprintf("%d|%s", r.Doc, r.Dewey) }

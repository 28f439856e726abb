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

// Graph is the link-edge overlay of a collection: a base followed by
// segments, oldest first, each the layer of edges and fold state one fold
// added (see fold.go). Derive it with Extend; reads are then safe for
// concurrent use, and a graph no write derived from is its base alone.
// Published graphs and their layers are shared across engine generations,
// so writes outside the fold and decode paths are sedalint diagnostics
// (genimmutable).
//
//seda:immutable
type Graph struct {
	col    *store.Collection
	layers []*layer

	// opts (resolved) and specs configure the fold.
	opts  DiscoverOptions
	specs []ValueLinkSpec
}

// New returns an overlay for col with no documents folded yet: a
// from-source build is New(col, opts, specs).Extend(col, 0, col.LiveDocs()).
// opts names the ID/IDREF/XLink attributes (zero value: defaults) and
// specs the value-based relationships joined by every later fold.
func New(col *store.Collection, opts DiscoverOptions, specs []ValueLinkSpec) *Graph {
	opts.defaults()
	return &Graph{col: col, opts: opts, specs: specs}
}

// Collection returns the underlying collection.
func (g *Graph) Collection() *store.Collection { return g.col }

// AddEdge inserts a link edge after validating both endpoints resolve. It
// writes the newest layer, or a base without fold state on a graph that
// has none (the decode path).
//
//seda:constructor
func (g *Graph) AddEdge(from, to xmldoc.NodeRef, kind EdgeKind, label string) error {
	if g.col.Node(from) == nil {
		return fmt.Errorf("graph: dangling source %v", from)
	}
	if g.col.Node(to) == nil {
		return fmt.Errorf("graph: dangling target %v", to)
	}
	if len(g.layers) == 0 {
		g.layers = []*layer{newLayer(0, xmldoc.DocID(g.col.NumDocs()), nil)}
	}
	g.layers[len(g.layers)-1].add(Edge{From: from, To: to, Kind: kind, Label: label})
	return nil
}

// LinkedDocs appends to dst the other documents that at least one link
// edge joins doc to, in either direction, ascending and without repeats.
// It reads doc's own edge lists, so it costs doc's degree.
func (g *Graph) LinkedDocs(dst []xmldoc.DocID, doc xmldoc.DocID) []xmldoc.DocID {
	start := len(dst)
	for _, l := range g.layers {
		for _, i := range l.outByDoc[doc] {
			if d := l.edges[i].To.Doc; d != doc {
				dst = append(dst, d)
			}
		}
		for _, i := range l.inByDoc[doc] {
			if d := l.edges[i].From.Doc; d != doc {
				dst = append(dst, d)
			}
		}
	}
	slices.Sort(dst[start:])
	return dst[:start+len(slices.Compact(dst[start:]))]
}

// NumEdges returns the number of link edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, l := range g.layers {
		n += len(l.edges)
	}
	return n
}

// Edges returns all link edges, layer by layer; the slice must not be
// modified. A graph of more than one layer returns a fresh concatenation.
func (g *Graph) Edges() []Edge {
	if len(g.layers) == 1 {
		return g.layers[0].edges
	}
	var out []Edge
	for _, l := range g.layers {
		out = append(out, l.edges...)
	}
	return out
}

// EdgesOfDoc appends to dst the link edges touching doc (either
// endpoint), in Edges order and each once. Within a layer doc's two edge
// lists are both ascending, and an edge sits in both only when both its
// ends are in doc, so one merge that takes such an edge once needs no
// set; with a dst of sufficient capacity it allocates nothing.
func (g *Graph) EdgesOfDoc(dst []Edge, doc xmldoc.DocID) []Edge {
	for _, l := range g.layers {
		out, in := l.outByDoc[doc], l.inByDoc[doc]
		for len(out) > 0 || len(in) > 0 {
			var i int
			switch {
			case len(in) == 0 || len(out) > 0 && out[0] < in[0]:
				i, out = out[0], out[1:]
			case len(out) > 0 && out[0] == in[0]:
				i, out, in = out[0], out[1:], in[1:]
			default:
				i, in = in[0], in[1:]
			}
			dst = append(dst, l.edges[i])
		}
	}
	return dst
}

package graph

import (
	"fmt"

	"seda/internal/snapcodec"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// Binary codec (engine snapshots). Only the link-edge list is persisted,
// layer by layer. Decode replays AddEdge into one base, which rebuilds
// the per-document edge indexes and re-validates that every endpoint
// still resolves in the decoded collection (a structural integrity check
// on the snapshot). The fold state is not persisted: the decoded graph's
// first Extend rebuilds it.

// codecVersion is the layer format version written by Encode.
const codecVersion = 1

// Encode appends the graph overlay to w in its versioned binary form.
func (g *Graph) Encode(w *snapcodec.Writer) {
	w.Int(codecVersion)
	w.Int(g.NumEdges())
	for _, l := range g.layers {
		for _, e := range l.edges {
			w.Int(int(e.From.Doc))
			w.Dewey(e.From.Dewey)
			w.Int(int(e.To.Doc))
			w.Dewey(e.To.Dewey)
			w.Byte(byte(e.Kind))
			w.String(e.Label)
		}
	}
}

// Decode reads a graph overlay previously written by Encode, re-binding
// it to col, with the discovery options and value-link specs it was
// derived under.
//
//seda:constructor
func Decode(r *snapcodec.Reader, col *store.Collection, opts DiscoverOptions, specs []ValueLinkSpec) (*Graph, error) {
	if v := r.Int(); r.Err() == nil && v != codecVersion {
		return nil, fmt.Errorf("graph: unsupported codec version %d", v)
	}
	g := New(col, opts, specs)
	g.layers = []*layer{newLayer(0, xmldoc.DocID(col.NumDocs()), nil)} // it covers col even without edges
	numEdges := r.Count(7)
	for i := 0; i < numEdges; i++ {
		from := xmldoc.NodeRef{Doc: xmldoc.DocID(r.Int()), Dewey: r.Dewey()}
		to := xmldoc.NodeRef{Doc: xmldoc.DocID(r.Int()), Dewey: r.Dewey()}
		kind := EdgeKind(r.Byte())
		label := r.String()
		if r.Err() != nil {
			break
		}
		if kind > Value {
			return nil, fmt.Errorf("graph: decode: invalid edge kind %d", kind)
		}
		if err := g.AddEdge(from, to, kind, label); err != nil {
			return nil, fmt.Errorf("graph: decode edge %d: %w", i, err)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	return g, nil
}

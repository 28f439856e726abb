package graph

import (
	"maps"
	"slices"
	"sort"
	"strings"

	"seda/internal/segments"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// The link graph is one left fold over documents in id order, kept as
// layers: a base, then segments, each holding the edges one fold added
// (edges it gave older documents included), per-document indexes into
// them, and the fold state its documents contributed — the ids they
// defined first, their references still dangling when they were folded,
// and per value-link spec their join sources and targets, all keyed by
// value. Folding more documents reads the older layers' state by value
// and writes only a new layer: the new documents' ids and references,
// older dangling references a new id resolves, and joins between new and
// older value-link endpoints. So an ingest costs the documents it adds.
//
// A delete re-folds from the oldest segment holding a newly dead
// document, and a compaction from the oldest holding the first document
// it renumbers: the segments from there on are dropped and the live
// documents they covered, with any appended by the same write, are folded
// as one new segment on top of the kept prefix, whose ids no compaction
// changes. This is not an undo. The id table is first-occurrence-wins and
// every edge is derived by the later of its two documents, so the kept
// prefix's state and edges depend on its own documents only, and the fold
// over the survivors is that state followed by the survivors after it —
// exactly the from-scratch fold. A dead or renumbered base document, or a
// base decoded without fold state, restarts the fold from empty over the
// live documents.
//
// Segments merge under the policy of package segments, sized by their
// document-id ranges; the base never merges. Batches reach the same edge
// multiset as one fold (edges resolved late sit in later layers, which no
// consumer observes: distances take minima and the dataguide aggregates
// before sorting), and the one fold over a collection orders its edges as
// references in document order, then each spec's joins — the order the
// snapshot bytes pin.

// layer is one fold's share of a graph. Layers are immutable once a fold
// returns them.
//
//seda:immutable
type layer struct {
	lo, hi xmldoc.DocID // the document ids [lo, hi) it folded
	edges  []Edge
	// outByDoc lists, per document, the indexes of the layer's edges whose
	// From node lives in that document, and inByDoc those whose To node
	// does.
	outByDoc map[xmldoc.DocID][]int
	inByDoc  map[xmldoc.DocID][]int
	// state is nil on a decoded base until Extend rebuilds it.
	state *foldState
}

// foldState is what a layer's documents contributed to the fold.
type foldState struct {
	// ids maps an id attribute value the layer's documents defined before
	// any older layer's to the element owning it (first occurrence in
	// document order wins).
	ids map[string]xmldoc.NodeRef
	// dangling holds, per id value, the layer's references whose target no
	// document up to the layer defines, in document order.
	dangling map[string][]danglingRef
	// joins holds one value-link join per spec, in spec order.
	joins []valueJoin
}

// danglingRef is one unresolved ID/IDREF or XLink reference.
type danglingRef struct {
	src   xmldoc.NodeRef // the referencing element
	kind  EdgeKind
	label string // the referencing element's tag (the edge label)
}

// valueJoin is one value-link spec's endpoints, by trimmed content value,
// in (doc, Dewey) order.
type valueJoin struct {
	srcs, targets map[string][]xmldoc.NodeRef
}

//seda:constructor
func newLayer(lo, hi xmldoc.DocID, st *foldState) *layer {
	return &layer{lo: lo, hi: hi, outByDoc: make(map[xmldoc.DocID][]int), inByDoc: make(map[xmldoc.DocID][]int), state: st}
}

//seda:constructor
func newFoldState(specs int) *foldState {
	st := &foldState{ids: make(map[string]xmldoc.NodeRef), dangling: make(map[string][]danglingRef), joins: make([]valueJoin, specs)}
	for i := range st.joins {
		st.joins[i] = valueJoin{srcs: make(map[string][]xmldoc.NodeRef), targets: make(map[string][]xmldoc.NodeRef)}
	}
	return st
}

// add appends e to the layer and its edge indexes.
//
//seda:constructor
func (l *layer) add(e Edge) {
	idx := len(l.edges)
	l.edges = append(l.edges, e)
	l.outByDoc[e.From.Doc] = append(l.outByDoc[e.From.Doc], idx)
	l.inByDoc[e.To.Doc] = append(l.inByDoc[e.To.Doc], idx)
}

// Extend returns the graph of col, which must hold the receiver's
// documents below restart with their ids, and from restart on the
// receiver's live documents renumbered contiguously (store.Compacted),
// then docs, the live documents appended since, in id order; restart is
// the receiver's document count when col renumbers none (store.Extend),
// and col may then mask documents the receiver folded
// (store.WithTombstones). When nothing died or moved, docs are folded as
// a new segment on top of the receiver's layers; otherwise the fold
// restarts at the oldest segment holding the renumbered restart or else
// the oldest newly dead document (see above); when the base holds it, or
// the receiver has no layers, the result is one base over col's live
// documents. The receiver is not modified and its layers are shared,
// never appended into, so every generation derived from it, and readers
// of its own, are undisturbed. A decoded receiver carries no fold state;
// the result's base first rebuilds it by folding the base's documents
// without adding edges, which already exist.
//
//seda:constructor
func (g *Graph) Extend(col *store.Collection, restart xmldoc.DocID, docs []*xmldoc.Document) *Graph {
	ng := &Graph{col: col, opts: g.opts, specs: g.specs}
	if len(g.layers) == 0 {
		ng.layers = []*layer{ng.fold(nil, 0, docs, true)}
		return ng
	}
	below, lo := g.layers, xmldoc.DocID(g.col.NumDocs())
	from, ok := restart, restart < lo
	if !ok {
		from, ok = col.Tombstones().FirstAdded(g.col.Tombstones())
	}
	if ok {
		k := segments.Keep(below, int(from), func(l *layer) int { return int(l.hi) })
		if k == 0 {
			return New(col, g.opts, g.specs).Extend(col, 0, col.LiveDocs())
		}
		below, lo = below[:k], below[k].lo
		docs = col.LiveDocsFrom(lo)
	}
	if len(docs) == 0 && int(lo) == col.NumDocs() {
		ng.layers = below // they cover col
		return ng
	}
	if base := below[0]; base.state == nil {
		live := col.LiveDocs()
		live = live[:sort.Search(len(live), func(i int) bool { return live[i].ID >= base.hi })]
		rebuilt := *base
		rebuilt.state = ng.fold(nil, 0, live, false).state
		below = append([]*layer{&rebuilt}, below[1:]...)
	}
	// Merging layers cannot fail.
	segs, _ := segments.Push(below[1:], ng.fold(below, lo, docs, true), func(l *layer) int { return int(l.hi - l.lo) }, mergeLayers)
	ng.layers = append([]*layer{below[0]}, segs...)
	return ng
}

// fold returns the layer folding docs, which start at id lo, on top of
// below, whose fold state must be present: their ids, then the older
// dangling references those ids resolve, then their own references, then
// each value-link join. The layer covers ids up to the end of g's
// collection. addEdges is off only while a decoded base's state is
// rebuilt.
//
//seda:constructor
func (g *Graph) fold(below []*layer, lo xmldoc.DocID, docs []*xmldoc.Document, addEdges bool) *layer {
	st := newFoldState(len(g.specs))
	l := newLayer(lo, xmldoc.DocID(g.col.NumDocs()), st)
	link := func(from, to xmldoc.NodeRef, kind EdgeKind, label string) {
		if addEdges {
			l.add(Edge{From: from, To: to, Kind: kind, Label: label})
		}
	}
	owner := func(v string) (xmldoc.NodeRef, bool) {
		for _, b := range below {
			if ref, ok := b.state.ids[v]; ok {
				return ref, true
			}
		}
		ref, ok := st.ids[v]
		return ref, ok
	}

	var fresh []string // ids no older document defines, in document order
	for _, doc := range docs {
		doc.Walk(func(n *xmldoc.Node) bool {
			if n.Kind == xmldoc.Attribute && isOneOf(n.Tag, g.opts.IDAttrs) {
				if v := strings.TrimSpace(n.Text); v != "" {
					if _, dup := owner(v); !dup {
						st.ids[v] = store.RefOf(doc, n.Parent) // the edge target is the owning element
						fresh = append(fresh, v)
					}
				}
			}
			return true
		})
	}

	// Older references that now resolve: a new document may define the id
	// an older document was already pointing at.
	for _, v := range fresh {
		for _, b := range below {
			for _, ref := range b.state.dangling[v] {
				link(ref.src, st.ids[v], ref.kind, ref.label)
			}
		}
	}

	for _, doc := range docs {
		doc.Walk(func(n *xmldoc.Node) bool {
			if n.Kind != xmldoc.Attribute {
				return true
			}
			ref := danglingRef{src: store.RefOf(doc, n.Parent), label: n.Parent.Tag}
			var values []string
			switch {
			case isOneOf(n.Tag, g.opts.IDRefAttrs):
				ref.kind, values = IDRef, strings.Fields(n.Text)
			case isOneOf(n.Tag, g.opts.XLinkAttrs):
				// Only "#id" resolves inside the collection; other URIs are
				// external.
				if v, ok := strings.CutPrefix(strings.TrimSpace(n.Text), "#"); ok {
					ref.kind, values = XLink, []string{v}
				}
			}
			for _, v := range values {
				if target, ok := owner(v); ok {
					link(ref.src, target, ref.kind, ref.label)
				} else {
					st.dangling[v] = append(st.dangling[v], ref)
				}
			}
			return true
		})
	}

	for i, spec := range g.specs {
		j := &st.joins[i]
		srcs, order := collectJoin(g.col, spec, docs, j.targets)
		if addEdges {
			// New sources against older and new targets, in (doc, Dewey)
			// order.
			for _, s := range srcs {
				for _, b := range below {
					joinTo(link, s, b.state.joins[i].targets[s.value], spec.Label)
				}
				joinTo(link, s, j.targets[s.value], spec.Label)
			}
			// Older sources against new targets only; new against new was
			// covered above.
			for _, v := range order {
				for _, b := range below {
					for _, ref := range b.state.joins[i].srcs[v] {
						joinTo(link, valueNode{ref: ref, value: v}, j.targets[v], spec.Label)
					}
				}
			}
		}
		for _, s := range srcs {
			j.srcs[s.value] = append(j.srcs[s.value], s.ref)
		}
	}
	return l
}

// joinTo links s to every target but itself.
func joinTo(link func(from, to xmldoc.NodeRef, kind EdgeKind, label string), s valueNode, targets []xmldoc.NodeRef, label string) {
	for _, t := range targets {
		if !s.ref.Equal(t) {
			link(s.ref, t, Value, label)
		}
	}
}

// valueNode is a source node paired with its trimmed content value.
type valueNode struct {
	ref   xmldoc.NodeRef
	value string
}

// collectJoin gathers spec's source nodes among docs, in document order,
// and adds its target nodes to targets by value, returning the source
// nodes and the target values in order of first appearance; nodes with
// empty content never join. The path ids are looked up on every call: a
// path may not exist until a later ingest introduces it.
func collectJoin(col *store.Collection, spec ValueLinkSpec, docs []*xmldoc.Document, targets map[string][]xmldoc.NodeRef) ([]valueNode, []string) {
	dict := col.Dict()
	fp := dict.LookupPath(spec.FromPath)
	tp := dict.LookupPath(spec.ToPath)
	var srcs []valueNode
	var order []string
	if fp == 0 && tp == 0 {
		return nil, nil
	}
	for _, doc := range docs {
		doc.Walk(func(n *xmldoc.Node) bool {
			if tp != 0 && n.Path == tp {
				if v := strings.TrimSpace(n.Content()); v != "" {
					if len(targets[v]) == 0 {
						order = append(order, v)
					}
					targets[v] = append(targets[v], store.RefOf(doc, n))
				}
			}
			if fp != 0 && n.Path == fp {
				if v := strings.TrimSpace(n.Content()); v != "" {
					srcs = append(srcs, valueNode{ref: store.RefOf(doc, n), value: v})
				}
			}
			return true
		})
	}
	return srcs, order
}

// mergeLayers returns the layer of a's documents followed by b's, where b
// was folded on top of a. Neither is written.
//
//seda:constructor
func mergeLayers(a, b *layer) (*layer, error) {
	m := &layer{
		lo:       a.lo,
		hi:       b.hi,
		edges:    slices.Concat(a.edges, b.edges),
		outByDoc: mergeDocIdx(a.outByDoc, b.outByDoc, len(a.edges)),
		inByDoc:  mergeDocIdx(a.inByDoc, b.inByDoc, len(a.edges)),
		state: &foldState{
			ids:      maps.Clone(a.state.ids),
			dangling: maps.Clone(a.state.dangling),
			joins:    make([]valueJoin, len(a.state.joins)),
		},
	}
	maps.Copy(m.state.ids, b.state.ids)
	for v := range b.state.ids {
		delete(m.state.dangling, v) // b resolved them
	}
	concatByValue(m.state.dangling, b.state.dangling)
	for i, j := range a.state.joins {
		m.state.joins[i] = valueJoin{srcs: maps.Clone(j.srcs), targets: maps.Clone(j.targets)}
		concatByValue(m.state.joins[i].srcs, b.state.joins[i].srcs)
		concatByValue(m.state.joins[i].targets, b.state.joins[i].targets)
	}
	return m, nil
}

// concatByValue appends add's lists to dst's, value by value, into fresh
// slices: dst's lists may be shared with another layer.
func concatByValue[T any](dst, add map[string][]T) {
	for v, xs := range add {
		dst[v] = slices.Concat(dst[v], xs)
	}
}

// mergeDocIdx returns a's edge indexes followed by b's shifted by off.
func mergeDocIdx(a, b map[xmldoc.DocID][]int, off int) map[xmldoc.DocID][]int {
	out := maps.Clone(a)
	for doc, idxs := range b {
		merged := slices.Grow(slices.Clip(out[doc]), len(idxs))
		for _, i := range idxs {
			merged = append(merged, i+off)
		}
		out[doc] = merged
	}
	return out
}

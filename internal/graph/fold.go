package graph

import (
	"maps"
	"slices"
	"strings"

	"seda/internal/store"
	"seda/internal/xmldoc"
)

// The link graph is one left fold over documents in id order. The fold
// retains what it derived along the way — the id table, the references
// that did not resolve, and per value-link spec the source and target
// nodes — so folding more documents touches only state incident to them:
// their ids and references, previously dangling references a new document
// may have just given a target, and joins between new and old value-link
// endpoints. A build folds the whole collection into an empty graph; an
// ingest folds the appended documents into the previous generation's
// graph; a delete, which cannot be un-folded, folds the survivors into an
// empty graph. Batches reach the same edge multiset as one fold (edges
// resolved late sit later in the slice, which no consumer observes:
// distances take minima and the dataguide aggregates before sorting), and
// the one fold over a collection orders its edges as references in
// document order, then each spec's joins — the order the snapshot bytes
// pin.

// foldState is the retained state of the documents folded so far.
type foldState struct {
	// ids maps an id attribute value to the element owning it (first
	// occurrence in document order wins).
	ids map[string]xmldoc.NodeRef
	// dangling holds references whose target id is still unknown, in
	// document order.
	dangling []danglingRef
	// joins holds one value-link join per spec, in spec order.
	joins []valueJoin
}

// danglingRef is one unresolved ID/IDREF or XLink reference.
type danglingRef struct {
	src   xmldoc.NodeRef // the referencing element
	value string         // the id value looked for
	kind  EdgeKind
	label string // the referencing element's tag (the edge label)
}

// valueJoin is one value-link spec's join tables.
type valueJoin struct {
	srcs    []valueNode                 // source nodes in (doc, Dewey) order
	targets map[string][]xmldoc.NodeRef // value -> target nodes in (doc, Dewey) order
}

// valueNode is a source node paired with its trimmed content value.
type valueNode struct {
	ref   xmldoc.NodeRef
	value string
}

func newFoldState(specs int) *foldState {
	st := &foldState{ids: make(map[string]xmldoc.NodeRef), joins: make([]valueJoin, specs)}
	for i := range st.joins {
		st.joins[i].targets = make(map[string][]xmldoc.NodeRef)
	}
	return st
}

func (st *foldState) clone() *foldState {
	ns := &foldState{ids: maps.Clone(st.ids), dangling: slices.Clone(st.dangling), joins: make([]valueJoin, len(st.joins))}
	for i, j := range st.joins {
		ns.joins[i] = valueJoin{srcs: slices.Clone(j.srcs), targets: make(map[string][]xmldoc.NodeRef, len(j.targets))}
		for v, refs := range j.targets {
			ns.joins[i].targets[v] = slices.Clone(refs)
		}
	}
	return ns
}

// Extend returns the graph of col, which must hold every document the
// receiver folded plus docs, the live documents to fold now, in id order
// (store.Extend guarantees the former). The receiver is not modified: the
// result owns copies of its edges, edge indexes and fold state, so
// readers of the receiver's generation are undisturbed. A decoded
// receiver carries no fold state; the copy first rebuilds it by folding
// the receiver's live documents without adding edges, which already
// exist.
//
//seda:constructor
func (g *Graph) Extend(col *store.Collection, docs []*xmldoc.Document) *Graph {
	ng := &Graph{
		col:      col,
		edges:    slices.Clone(g.edges),
		outByDoc: cloneDocIdx(g.outByDoc),
		inByDoc:  cloneDocIdx(g.inByDoc),
		opts:     g.opts,
		specs:    g.specs,
	}
	if g.state != nil {
		ng.state = g.state.clone()
	} else {
		ng.state = newFoldState(len(g.specs))
		ng.fold(g.col.LiveDocs(), false)
	}
	ng.fold(docs, true)
	return ng
}

func cloneDocIdx(m map[xmldoc.DocID][]int) map[xmldoc.DocID][]int {
	out := make(map[xmldoc.DocID][]int, len(m))
	for k, v := range m {
		out[k] = slices.Clone(v)
	}
	return out
}

// fold folds docs into g's state: their ids, then the dangling references
// they resolve, then their own references, then each value-link join.
// addEdges is off only while a decoded graph's state is rebuilt.
//
//seda:constructor
func (g *Graph) fold(docs []*xmldoc.Document, addEdges bool) {
	st := g.state
	link := func(from, to xmldoc.NodeRef, kind EdgeKind, label string) {
		if addEdges {
			_ = g.AddEdge(from, to, kind, label) // fold endpoints always resolve
		}
	}

	for _, doc := range docs {
		doc.Walk(func(n *xmldoc.Node) bool {
			if n.Kind == xmldoc.Attribute && isOneOf(n.Tag, g.opts.IDAttrs) {
				if v := strings.TrimSpace(n.Text); v != "" {
					if _, dup := st.ids[v]; !dup {
						st.ids[v] = store.RefOf(doc, n.Parent) // the edge target is the owning element
					}
				}
			}
			return true
		})
	}

	// Old references that now resolve: a new document may define the id an
	// earlier document was already pointing at.
	still := st.dangling[:0]
	for _, ref := range st.dangling {
		if target, ok := st.ids[ref.value]; ok {
			link(ref.src, target, ref.kind, ref.label)
		} else {
			still = append(still, ref)
		}
	}
	st.dangling = still

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
				if target, ok := st.ids[v]; ok {
					link(ref.src, target, ref.kind, ref.label)
				} else {
					ref.value = v
					st.dangling = append(st.dangling, ref)
				}
			}
			return true
		})
	}

	for i, spec := range g.specs {
		j := &st.joins[i]
		srcs, targets := collectJoin(g.col, spec, docs)
		// Targets merge first so new sources see old and new targets in
		// (doc, Dewey) order.
		for v, refs := range targets {
			j.targets[v] = append(j.targets[v], refs...)
		}
		if addEdges {
			for _, s := range srcs {
				for _, t := range j.targets[s.value] {
					if !s.ref.Equal(t) {
						link(s.ref, t, Value, spec.Label)
					}
				}
			}
			// Old sources against new targets only; new against new was
			// covered above.
			for _, s := range j.srcs {
				for _, t := range targets[s.value] {
					if !s.ref.Equal(t) {
						link(s.ref, t, Value, spec.Label)
					}
				}
			}
		}
		j.srcs = append(j.srcs, srcs...)
	}
}

// collectJoin gathers spec's source and target nodes among docs; nodes
// with empty content never join. The path ids are looked up on every
// call: a path may not exist until a later ingest introduces it.
func collectJoin(col *store.Collection, spec ValueLinkSpec, docs []*xmldoc.Document) ([]valueNode, map[string][]xmldoc.NodeRef) {
	dict := col.Dict()
	fp := dict.LookupPath(spec.FromPath)
	tp := dict.LookupPath(spec.ToPath)
	var srcs []valueNode
	targets := make(map[string][]xmldoc.NodeRef)
	if fp == 0 && tp == 0 {
		return nil, targets
	}
	for _, doc := range docs {
		doc.Walk(func(n *xmldoc.Node) bool {
			if tp != 0 && n.Path == tp {
				if v := strings.TrimSpace(n.Content()); v != "" {
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
	return srcs, targets
}

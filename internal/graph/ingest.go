package graph

import (
	"strings"

	"seda/internal/store"
	"seda/internal/xmldoc"
)

// Incremental extension of the link overlay: instead of re-running the
// collection-global discovery scans, the graph retains the two tables the
// scans derive — the id table and the references that did not resolve —
// and, for value links, the per-value source/target node lists. Extending
// then touches only state incident to the new documents: their ids and
// references, plus previously-dangling references a new document may have
// just given a target. The resulting edge SET is identical to a
// from-scratch discovery over the extended collection (edge slice order
// may differ for references resolved late, which no consumer observes:
// distances take minima and the dataguide aggregates before sorting).

// discoveryState is the retained outcome of a DiscoverLinks scan.
type discoveryState struct {
	// opts are the resolved options the scan ran under; an extension under
	// different options rebuilds the state instead of extending it.
	opts DiscoverOptions
	// ids maps an id attribute value to the element owning it (first
	// occurrence in document order wins).
	ids map[string]xmldoc.NodeRef
	// dangling holds references whose target id was unknown at scan time,
	// in document order.
	dangling []danglingRef
}

// danglingRef is one unresolved ID/IDREF or XLink reference.
type danglingRef struct {
	src   xmldoc.NodeRef // the referencing element
	value string         // the id value looked for
	kind  EdgeKind
	label string // the referencing element's tag (the edge label)
}

func (st *discoveryState) clone() *discoveryState {
	ns := &discoveryState{
		opts:     st.opts,
		ids:      make(map[string]xmldoc.NodeRef, len(st.ids)),
		dangling: append([]danglingRef(nil), st.dangling...),
	}
	for v, ref := range st.ids {
		ns.ids[v] = ref
	}
	return ns
}

// valueLinkState retains one AddValueLinks call's join tables.
type valueLinkState struct {
	fromPath, toPath, label string
	srcs                    []valueNode                 // source nodes in (doc, Dewey) order
	targets                 map[string][]xmldoc.NodeRef // value -> target nodes in (doc, Dewey) order
}

// valueNode is a source node paired with its trimmed content value.
type valueNode struct {
	ref   xmldoc.NodeRef
	value string
}

func (st *valueLinkState) clone() *valueLinkState {
	ns := &valueLinkState{
		fromPath: st.fromPath, toPath: st.toPath, label: st.label,
		srcs:    append([]valueNode(nil), st.srcs...),
		targets: make(map[string][]xmldoc.NodeRef, len(st.targets)),
	}
	for v, refs := range st.targets {
		ns.targets[v] = append([]xmldoc.NodeRef(nil), refs...)
	}
	return ns
}

// collect gathers the source and target nodes of docs for this spec. The
// path ids are re-looked-up on every call: a path may not exist until a
// later ingest introduces it.
func (st *valueLinkState) collect(col *store.Collection, docs []*xmldoc.Document) ([]valueNode, map[string][]xmldoc.NodeRef) {
	dict := col.Dict()
	fp := dict.LookupPath(st.fromPath)
	tp := dict.LookupPath(st.toPath)
	var srcs []valueNode
	targets := make(map[string][]xmldoc.NodeRef)
	if fp == 0 && tp == 0 {
		return nil, targets
	}
	for _, d := range docs {
		if !col.Alive(d.ID) {
			continue // masked documents contribute no value-link endpoints
		}
		doc := d
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

// CloneFor returns a deep copy of the overlay re-bound to col, which must
// contain every document the receiver's collection does (store.Extend
// guarantees this). The receiver is not modified; the copy owns its edge
// list, adjacency maps, and retained discovery state, so extending the
// copy never disturbs readers of the original generation.
//
//seda:constructor
func (g *Graph) CloneFor(col *store.Collection) *Graph {
	ng := &Graph{
		col:      col,
		edges:    append([]Edge(nil), g.edges...),
		out:      cloneIdx(g.out),
		in:       cloneIdx(g.in),
		outByDoc: cloneDocIdx(g.outByDoc),
		inByDoc:  cloneDocIdx(g.inByDoc),
	}
	if g.disc != nil {
		ng.disc = g.disc.clone()
	}
	for _, st := range g.vls {
		ng.vls = append(ng.vls, st.clone())
	}
	return ng
}

func cloneIdx(m map[string][]int) map[string][]int {
	out := make(map[string][]int, len(m))
	for k, v := range m {
		out[k] = append([]int(nil), v...)
	}
	return out
}

func cloneDocIdx(m map[xmldoc.DocID][]int) map[xmldoc.DocID][]int {
	out := make(map[xmldoc.DocID][]int, len(m))
	for k, v := range m {
		out[k] = append([]int(nil), v...)
	}
	return out
}

// DiscoverIncremental extends link discovery to newDocs, the suffix the
// graph's collection just gained: the new documents' ids are recorded
// (first occurrence across the whole collection still wins), previously
// dangling references that now have a target become edges, and the new
// documents' own references are resolved against the full id table. When
// the graph carries no retained state (it was decoded from a snapshot, or
// the options changed), the state is first rebuilt by rescanning the old
// documents — a one-time cost far below a full engine rebuild, after
// which the graph is incremental again.
func (g *Graph) DiscoverIncremental(opts DiscoverOptions, newDocs []*xmldoc.Document) DiscoverStats {
	opts.defaults()
	if g.disc == nil || !sameDiscoverOptions(g.disc.opts, opts) {
		g.rebuildDiscovery(opts, len(newDocs))
	}
	st := g.disc
	var stats DiscoverStats

	// Pass 1: ids of the new documents.
	for _, d := range newDocs {
		doc := d
		doc.Walk(func(n *xmldoc.Node) bool {
			st.collectID(doc, n, &stats)
			return true
		})
	}

	// Old references that now resolve: a new document may define the id an
	// existing document was already pointing at.
	still := st.dangling[:0]
	for _, ref := range st.dangling {
		target, ok := st.ids[ref.value]
		if !ok {
			still = append(still, ref)
			continue
		}
		if err := g.AddEdge(ref.src, target, ref.kind, ref.label); err == nil {
			switch ref.kind {
			case IDRef:
				stats.IDRefs++
			case XLink:
				stats.XLinks++
			}
		}
	}
	st.dangling = still

	// Pass 2: references of the new documents.
	for _, d := range newDocs {
		doc := d
		doc.Walk(func(n *xmldoc.Node) bool {
			g.resolveNode(st, doc, n, true, &stats)
			return true
		})
	}
	return stats
}

// rebuildDiscovery reconstructs the retained discovery state from every
// document except the trailing excludeSuffix ones (the documents about to
// be ingested), recording ids and dangling references without touching the
// edge list — those edges already exist.
//
//seda:constructor
func (g *Graph) rebuildDiscovery(opts DiscoverOptions, excludeSuffix int) {
	docs := g.col.Docs()
	docs = docs[:len(docs)-excludeSuffix]
	st := &discoveryState{opts: opts, ids: make(map[string]xmldoc.NodeRef)}
	for _, d := range docs {
		if !g.col.Alive(d.ID) {
			continue // masked documents neither define nor hold ids
		}
		doc := d
		doc.Walk(func(n *xmldoc.Node) bool {
			st.collectID(doc, n, nil)
			return true
		})
	}
	for _, d := range docs {
		if !g.col.Alive(d.ID) {
			continue
		}
		doc := d
		doc.Walk(func(n *xmldoc.Node) bool {
			g.resolveNode(st, doc, n, false, nil)
			return true
		})
	}
	g.disc = st
}

func sameDiscoverOptions(a, b DiscoverOptions) bool {
	return sameStrings(a.IDAttrs, b.IDAttrs) &&
		sameStrings(a.IDRefAttrs, b.IDRefAttrs) &&
		sameStrings(a.XLinkAttrs, b.XLinkAttrs)
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ValueLinkSpec names one value-based (PK/FK) relationship, as given to
// AddValueLinks and ExtendValueLinks; core.ValueLink is an alias.
type ValueLinkSpec struct {
	FromPath, ToPath, Label string
}

// ExtendValueLinks extends the value-link edges to newDocs for the given
// specs (which must be the same specs, in the same order, as the
// AddValueLinks calls that built the graph). New sources join against all
// targets and existing sources join against new targets, so the edge set
// matches a from-scratch AddValueLinks over the extended collection. When
// the retained state is missing (snapshot-loaded graph), it is rebuilt
// from the old documents first. Returns the number of edges added.
func (g *Graph) ExtendValueLinks(specs []ValueLinkSpec, newDocs []*xmldoc.Document) int {
	if len(specs) == 0 {
		return 0
	}
	if !g.valueStateMatches(specs) {
		g.rebuildValueState(specs, len(newDocs))
	}
	added := 0
	for _, st := range g.vls {
		newSrcs, newTgts := st.collect(g.col, newDocs)
		// Merge targets first so new sources see old and new targets in
		// (doc, Dewey) order.
		for v, refs := range newTgts {
			st.targets[v] = append(st.targets[v], refs...)
		}
		for _, s := range newSrcs {
			for _, t := range st.targets[s.value] {
				if s.ref.Equal(t) {
					continue
				}
				if err := g.AddEdge(s.ref, t, Value, st.label); err == nil {
					added++
				}
			}
		}
		// Existing sources against new targets only (new x new was covered
		// above).
		for _, s := range st.srcs {
			for _, t := range newTgts[s.value] {
				if s.ref.Equal(t) {
					continue
				}
				if err := g.AddEdge(s.ref, t, Value, st.label); err == nil {
					added++
				}
			}
		}
		st.srcs = append(st.srcs, newSrcs...)
	}
	return added
}

// valueStateMatches reports whether the retained value-link states line up
// one-to-one with specs.
func (g *Graph) valueStateMatches(specs []ValueLinkSpec) bool {
	if len(g.vls) != len(specs) {
		return false
	}
	for i, st := range g.vls {
		s := specs[i]
		if st.fromPath != s.FromPath || st.toPath != s.ToPath || st.label != s.Label {
			return false
		}
	}
	return true
}

// rebuildValueState reconstructs the value-link join tables from every
// document except the trailing excludeSuffix ones, without adding edges.
//
//seda:constructor
func (g *Graph) rebuildValueState(specs []ValueLinkSpec, excludeSuffix int) {
	docs := g.col.Docs()
	docs = docs[:len(docs)-excludeSuffix]
	g.vls = g.vls[:0]
	for _, s := range specs {
		st := &valueLinkState{fromPath: s.FromPath, toPath: s.ToPath, label: s.Label}
		st.srcs, st.targets = st.collect(g.col, docs)
		g.vls = append(g.vls, st)
	}
}

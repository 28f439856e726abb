package dataguide

import (
	"slices"

	"seda/internal/graph"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// Incremental extension: the §6.1 merge algorithm is a left fold over
// documents in id order, so continuing the fold from the existing guide
// set over the appended documents yields exactly the summary a
// from-scratch build over the extended collection would — no
// re-profiling of old documents. Only the cross-guide links are
// recomputed (an O(edges) aggregation over the already-extended graph),
// because a new document can both add link edges and change its guide
// assignment's endpoints.

// Extend returns a new Set summarizing col, which must be the receiver's
// collection extended with newDocs (see store.Extend), using g as the
// already-extended data graph (nil to skip links). The receiver is
// deep-copied first — guides, repeatability marks, and document
// assignments — so the old generation keeps serving concurrent readers
// unchanged while the new documents are absorbed.
//
//seda:constructor
func (s *Set) Extend(col *store.Collection, g *graph.Graph, newDocs []*xmldoc.Document) (*Set, error) {
	ns := &Set{
		col:       col,
		Threshold: s.Threshold,
		docGuide:  make(map[xmldoc.DocID]int, len(s.docGuide)+len(newDocs)),
	}
	for d, i := range s.docGuide {
		ns.docGuide[d] = i
	}
	ns.Guides = make([]*Guide, len(s.Guides))
	for i, gd := range s.Guides {
		ng := *gd
		ng.Docs = slices.Clone(gd.Docs)
		ng.paths = slices.Clone(gd.paths)
		ng.repeatable = slices.Clone(gd.repeatable)
		ns.Guides[i] = &ng
	}
	for _, doc := range newDocs {
		ns.absorb(doc.ID, docProfile(doc))
	}
	if g != nil {
		ns.buildLinks(g)
	}
	return ns, nil
}

package dataguide

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"seda/internal/graph"
	"seda/internal/segments"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// The summary is one left fold over documents in id order (§6.1), kept
// as parts: a base, then segments, each holding what one fold changed —
// the guide list after it, sharing every guide it did not change and
// holding copies of those it did, its documents' guide assignments, and
// the tally of cross-guide links its documents' edges add. An ingest
// folds the appended documents as a new segment, so it copies the guide
// pointers and the guides it touches, not the corpus.
//
// A delete re-folds from the oldest segment holding a newly dead
// document, and a compaction from the oldest holding the first document
// it renumbers: the segments from there on are dropped and the live
// documents they covered, with any appended by the same write, are folded
// as one new segment on top of the kept prefix, whose ids no compaction
// changes. §6.1 absorption is a left fold in id order, so the kept
// prefix's guides depend on its own documents only, and the fold over the
// survivors is that state followed by the survivors after it — exactly
// the from-scratch summary. A dead or renumbered base document restarts
// the fold from empty over the live documents.
//
// A link is tallied by the part of its edge's later document, which is
// the document whose fold derived the edge (see the graph's fold), so a
// part's tally depends on documents up to it only and survives the same
// deletes its guides do. Links is the merge of every part's tally, in
// the total order below. Segments merge under the policy of package
// segments, sized by their document-id ranges; the base never merges.

// part is one fold's share of a Set. Parts are immutable once a fold
// returns them.
//
//seda:immutable
type part struct {
	lo xmldoc.DocID
	// guideOf holds the guide of document lo+i, or -1 for a document not
	// folded (dead when the part was folded).
	guideOf []int32
	// guides is the guide list after the part's fold.
	guides []*Guide
	// tally counts the part's cross-guide links, keyed by a Link without
	// its Count.
	tally map[Link]int
}

// hi is the end of the part's document-id range.
func (p *part) hi() xmldoc.DocID { return p.lo + xmldoc.DocID(len(p.guideOf)) }

// guideIn returns the guide id parts assign doc to.
func guideIn(parts []*part, doc xmldoc.DocID) (int, bool) {
	for i := len(parts) - 1; i >= 0; i-- {
		if p := parts[i]; doc >= p.lo {
			if doc >= p.hi() || p.guideOf[doc-p.lo] < 0 {
				return 0, false
			}
			return int(p.guideOf[doc-p.lo]), true
		}
	}
	return 0, false
}

// Extend returns the summary of col, which must hold the receiver's
// documents below restart with their ids, and from restart on the
// receiver's live documents renumbered contiguously (store.Compacted),
// then docs, the live documents appended since, in id order — absorption
// order determines guide merging; restart is the receiver's document
// count when col renumbers none (store.Extend), and col may then mask
// documents the receiver folded (store.WithTombstones). When nothing died
// or moved, docs are absorbed as a new segment on top of the receiver's
// parts; otherwise the fold restarts at the oldest segment holding the
// renumbered restart or else the oldest newly dead document (see above);
// when the base holds it, or the receiver has no parts, the result is one
// base over col's live documents. Each way it is exactly the summary one
// fold over col's live documents reaches, with no re-profiling of the
// documents it keeps. The receiver is not modified and its parts are
// shared, never appended into. g, the data graph already derived for col,
// may be nil; its edges are aggregated into cross-guide Links, so the
// connection summary can propose IDREF/XLink/value relationships (§6.1:
// "a set of links between the dataguides corresponding to the external
// edges between documents").
//
//seda:constructor
func (s *Set) Extend(col *store.Collection, g *graph.Graph, restart xmldoc.DocID, docs []*xmldoc.Document) (*Set, error) {
	if s.Threshold < 0 || s.Threshold > 1 {
		return nil, fmt.Errorf("dataguide: threshold %v outside [0,1]", s.Threshold)
	}
	ns := &Set{col: col, Threshold: s.Threshold}
	below, lo := s.parts, xmldoc.DocID(0)
	if len(below) > 0 {
		lo = xmldoc.DocID(s.col.NumDocs())
		from, ok := restart, restart < lo
		if !ok {
			from, ok = col.Tombstones().FirstAdded(s.col.Tombstones())
		}
		if ok {
			k := segments.Keep(below, int(from), func(p *part) int { return int(p.hi()) })
			if k == 0 {
				return (&Set{Threshold: s.Threshold}).Extend(col, g, 0, col.LiveDocs())
			}
			below, lo = below[:k], below[k].lo
			docs = col.LiveDocsFrom(lo)
		}
		if len(docs) == 0 && int(lo) == col.NumDocs() {
			ns.parts, ns.Guides = below, below[len(below)-1].guides // they cover col
			return ns, nil
		}
	}
	p := ns.fold(below, lo, docs, g)
	if len(below) == 0 {
		ns.parts = []*part{p}
	} else {
		// Merging parts cannot fail.
		segs, _ := segments.Push(below[1:], p, func(p *part) int { return len(p.guideOf) }, mergeParts)
		ns.parts = append([]*part{below[0]}, segs...)
	}
	ns.Guides = p.guides
	return ns, nil
}

// fold returns the part absorbing docs, which start at id lo, on top of
// below, and tallies the links of g's edges whose later document is one
// of docs. The part covers ids up to the end of s's collection.
//
//seda:constructor
func (s *Set) fold(below []*part, lo xmldoc.DocID, docs []*xmldoc.Document, g *graph.Graph) *part {
	p := &part{lo: lo, guideOf: make([]int32, s.col.NumDocs()-int(lo)), tally: make(map[Link]int)}
	for i := range p.guideOf {
		p.guideOf[i] = -1
	}
	f := folder{threshold: s.Threshold}
	if len(below) > 0 {
		f.guides = slices.Clone(below[len(below)-1].guides)
		f.own = make([]bool, len(f.guides))
	}
	for _, doc := range docs {
		p.guideOf[doc.ID-lo] = int32(f.absorb(docProfile(doc)))
	}
	p.guides = f.guides
	if g == nil {
		return p
	}
	parts := append(slices.Clip(below), p)
	var edges []graph.Edge
	for _, doc := range docs {
		edges = g.EdgesOfDoc(edges[:0], doc.ID)
		for _, e := range edges {
			if max(e.From.Doc, e.To.Doc) != doc.ID {
				continue // the later document's part tallies it
			}
			fg, okF := guideIn(parts, e.From.Doc)
			tg, okT := guideIn(parts, e.To.Doc)
			if okF && okT {
				p.tally[Link{FromGuide: fg, ToGuide: tg, FromPath: s.col.PathOf(e.From), ToPath: s.col.PathOf(e.To), Kind: e.Kind, Label: e.Label}]++
			}
		}
	}
	return p
}

// folder is the §6.1 fold's working state: the guide list, and which of
// its guides the fold owns — copied or created by it, so writable.
type folder struct {
	threshold float64
	guides    []*Guide
	own       []bool
}

// writable returns guide i, copying it first unless the fold owns it.
//
//seda:constructor
func (f *folder) writable(i int) *Guide {
	if !f.own[i] {
		g := *f.guides[i]
		g.paths, g.repeatable = slices.Clone(g.paths), slices.Clone(g.repeatable)
		f.guides[i], f.own[i] = &g, true
	}
	return f.guides[i]
}

// absorb merges one document profile into the guide list following §6.1
// and returns the document's guide: the first guide containing every
// document path absorbs it unchanged; otherwise the guide with the
// strictly best overlap at or above the threshold merges it; otherwise it
// starts a new guide.
//
//seda:constructor
func (f *folder) absorb(pr profile) int {
	bestIdx, bestOverlap := -1, 0.0
	for i, g := range f.guides {
		common := pr.paths.common(g.paths)
		if common == pr.size {
			// Subset or equal: no further processing needed.
			g := f.writable(i)
			g.docs++
			g.repeatable.union(pr.rep)
			return i
		}
		if ov := overlap(common, pr.size, g.size); ov > bestOverlap {
			bestIdx, bestOverlap = i, ov
		}
	}
	if bestIdx >= 0 && bestOverlap >= f.threshold && f.threshold > 0 {
		g := f.writable(bestIdx)
		g.size += g.paths.union(pr.paths)
		g.repeatable.union(pr.rep)
		g.docs++
		return bestIdx
	}
	f.guides = append(f.guides, &Guide{ID: len(f.guides), docs: 1, paths: pr.paths, size: pr.size, repeatable: pr.rep})
	f.own = append(f.own, true)
	return len(f.guides) - 1
}

// profile is one document's path set, its size, and its repeatability
// marks: the unit the §6.1 fold absorbs.
type profile struct {
	paths, rep pathSet
	size       int
}

// docProfile extracts a document's profile.
//
//seda:constructor
func docProfile(doc *xmldoc.Document) profile {
	var pr profile
	var sib pathSet // child paths seen under the current node
	doc.Walk(func(n *xmldoc.Node) bool {
		if pr.paths.add(n.Path) {
			pr.size++
		}
		if len(n.Children) > 1 {
			for _, c := range n.Children {
				if !sib.add(c.Path) {
					pr.rep.add(c.Path)
				}
			}
			for _, c := range n.Children {
				sib[c.Path>>6] = 0
			}
		}
		return true
	})
	return pr
}

// mergeParts returns the part of a's documents followed by b's, where b
// was folded on top of a. Neither is written.
//
//seda:constructor
func mergeParts(a, b *part) (*part, error) {
	m := &part{lo: a.lo, guideOf: slices.Concat(a.guideOf, b.guideOf), guides: b.guides, tally: maps.Clone(a.tally)}
	for l, n := range b.tally {
		m.tally[l] += n
	}
	return m, nil
}

// Links returns the cross-guide links: every part's tally merged, in a
// total order (most frequent first). A write does not pay for the merge:
// it runs on a generation's first call, and later calls share its
// result; the slice must not be modified.
func (s *Set) Links() []Link {
	if l := s.links.Load(); l != nil {
		return *l
	}
	out := mergeLinks(s.parts)
	s.links.Store(&out)
	return out
}

// mergeLinks merges the parts' tallies into a sorted Link list.
func mergeLinks(parts []*part) []Link {
	if len(parts) == 0 {
		return nil
	}
	agg := parts[0].tally
	if len(parts) > 1 {
		agg = maps.Clone(agg)
		for _, p := range parts[1:] {
			for l, n := range p.tally {
				agg[l] += n
			}
		}
	}
	var out []Link
	for l, n := range agg {
		l.Count = n
		out = append(out, l)
	}
	// The sort is a total order: the input comes off a map, so any tie left
	// to the aggregation order would make Links — and the connection
	// summaries derived from them — nondeterministic across builds (and
	// break the incremental-vs-scratch equivalence invariant).
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.FromGuide != b.FromGuide {
			return a.FromGuide < b.FromGuide
		}
		if a.ToGuide != b.ToGuide {
			return a.ToGuide < b.ToGuide
		}
		if a.FromPath != b.FromPath {
			return a.FromPath < b.FromPath
		}
		if a.ToPath != b.ToPath {
			return a.ToPath < b.ToPath
		}
		return a.Kind < b.Kind
	})
	return out
}

package dataguide

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"

	"seda/internal/graph"
	"seda/internal/pathdict"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// pathSet is a dense bitset over PathID: bit p%64 of word p/64 is set when
// path p is a member. Dictionaries hold a few thousand paths, so a set is
// a few dozen words and the §6.1 overlap count is a word-parallel
// popcount. Sets of different lengths compare over the shorter one (the
// missing words are zero).
type pathSet []uint64

// has reports whether p is a member.
func (s pathSet) has(p pathdict.PathID) bool {
	i := uint(p) >> 6 // a negative id wraps past len(s)
	return i < uint(len(s)) && s[i]&(1<<(uint(p)&63)) != 0
}

// common returns |s ∩ o|.
func (s pathSet) common(o pathSet) int {
	if len(o) < len(s) {
		s, o = o, s
	}
	o = o[:len(s)]
	n := 0
	for i, w := range s {
		n += bits.OnesCount64(w & o[i])
	}
	return n
}

// ids returns the members in ascending order.
func (s pathSet) ids() []pathdict.PathID {
	var out []pathdict.PathID
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, pathdict.PathID(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// add inserts p, growing the set as needed, and reports whether p is new.
//
//seda:constructor
func (s *pathSet) add(p pathdict.PathID) bool {
	i := int(p) >> 6
	if i >= len(*s) {
		*s = append(*s, make(pathSet, i+1-len(*s))...)
	}
	m := uint64(1) << (uint(p) & 63)
	isNew := (*s)[i]&m == 0
	(*s)[i] |= m
	return isNew
}

// union adds every member of o and returns how many were new.
//
//seda:constructor
func (s *pathSet) union(o pathSet) int {
	if len(o) > len(*s) {
		*s = append(*s, make(pathSet, len(o)-len(*s))...)
	}
	added := 0
	for i, w := range o {
		added += bits.OnesCount64(w &^ (*s)[i])
		(*s)[i] |= w
	}
	return added
}

// Guide is one merged dataguide: a path set plus the documents it
// summarizes and per-path occurrence facts needed by connection discovery.
// Immutable once its Set is published (sedalint genimmutable).
//
//seda:immutable
type Guide struct {
	ID    int
	Docs  []xmldoc.DocID
	paths pathSet
	size  int // |paths|, kept by the fold
	// repeatable marks paths that can occur more than once under a single
	// parent instance (e.g. item under import_partners). Connection
	// discovery uses it to find alternative join points (§6).
	repeatable pathSet
}

// Paths returns the guide's path set as a sorted slice.
func (g *Guide) Paths() []pathdict.PathID { return g.paths.ids() }

// Size returns the number of distinct paths in the guide.
func (g *Guide) Size() int { return g.size }

// Contains reports whether the guide has the path.
func (g *Guide) Contains(p pathdict.PathID) bool { return g.paths.has(p) }

// Repeatable reports whether nodes at path p may repeat under one parent
// instance somewhere in the guide's documents.
func (g *Guide) Repeatable(p pathdict.PathID) bool { return g.repeatable.has(p) }

// TreeConnections enumerates the possible join paths connecting instances
// of paths a and b within documents of this guide, deepest first. The
// deepest candidate is the common prefix of a and b (the "same instance"
// join); every proper prefix q whose child step toward the common prefix
// is repeatable is an additional candidate (instances can diverge at q).
// This reproduces the paper's §6 example: trade_country and percentage
// connect either through one item or across items via import_partners.
func (g *Guide) TreeConnections(dict *pathdict.Dict, a, b pathdict.PathID) []pathdict.PathID {
	if !g.Contains(a) || !g.Contains(b) {
		return nil
	}
	cp := dict.CommonPrefix(a, b)
	if cp == pathdict.InvalidPath {
		return nil // different document roots cannot connect in a tree
	}
	out := []pathdict.PathID{cp}
	child := cp
	for q := dict.Parent(cp); ; q = dict.Parent(q) {
		if g.repeatable.has(child) {
			out = append(out, q) // q == InvalidPath means "distinct documents" and is excluded below
		}
		if q == pathdict.InvalidPath {
			break
		}
		child = q
	}
	// Drop a trailing InvalidPath candidate (divergence above the root
	// means two separate documents, which tree edges cannot join).
	res := out[:0]
	for _, p := range out {
		if p != pathdict.InvalidPath {
			res = append(res, p)
		}
	}
	return res
}

// Link is a cross-guide (or cross-document) connection induced by a data
// graph link edge, aggregated by (guide, path) endpoints.
type Link struct {
	FromGuide, ToGuide int
	FromPath, ToPath   pathdict.PathID
	Kind               graph.EdgeKind
	Label              string
	Count              int
}

// Set is the dataguide summary of one collection. Immutable once built
// (sedalint genimmutable): ingest continues the §6.1 fold over a deep
// copy, never over a published Set.
//
//seda:immutable
type Set struct {
	col       *store.Collection
	Threshold float64
	Guides    []*Guide
	docGuide  map[xmldoc.DocID]int
	Links     []Link
}

// Stats summarizes a built Set in the shape of the paper's Table 1.
type Stats struct {
	Documents int
	Guides    int
	// Reduction is Documents/Guides, the paper's "reduction factor"
	// (§6.1: "ranging from a factor of 3 to a factor of 100").
	Reduction float64
}

// Stats returns Table 1-style statistics.
func (s *Set) Stats() Stats {
	st := Stats{Documents: s.col.NumLive(), Guides: len(s.Guides)}
	if st.Guides > 0 {
		st.Reduction = float64(st.Documents) / float64(st.Guides)
	}
	return st
}

// GuideOf returns the guide summarizing doc, or nil.
func (s *Set) GuideOf(doc xmldoc.DocID) *Guide {
	i, ok := s.docGuide[doc]
	if !ok {
		return nil
	}
	return s.Guides[i]
}

// GuidesContaining returns the guides whose path set includes p.
func (s *Set) GuidesContaining(p pathdict.PathID) []*Guide {
	var out []*Guide
	for _, g := range s.Guides {
		if g.Contains(p) {
			out = append(out, g)
		}
	}
	return out
}

// Build computes the dataguide summary of col's live documents at the
// given overlap threshold (the paper evaluates 0.40): the empty Set's
// Extend.
func Build(col *store.Collection, g *graph.Graph, threshold float64) (*Set, error) {
	return (&Set{Threshold: threshold}).Extend(col, g, col.LiveDocs())
}

// Extend returns the summary of col, which must hold every document the
// receiver summarizes plus docs, the live documents to absorb now, in id
// order — absorption order determines guide merging. The §6.1 merge is a
// left fold, so continuing it over appended documents yields exactly the
// summary one fold over the extended collection would, with no
// re-profiling of old documents. The receiver is deep-copied first —
// guides, repeatability marks and document assignments — so readers of
// its generation are undisturbed. A non-nil data graph (the one already
// derived for col) is aggregated into cross-guide Links, so the
// connection summary can propose IDREF/XLink/value relationships (§6.1:
// "a set of links between the dataguides corresponding to the external
// edges between documents"); the links are recomputed whole because new
// edges can touch old documents.
//
//seda:constructor
func (s *Set) Extend(col *store.Collection, g *graph.Graph, docs []*xmldoc.Document) (*Set, error) {
	if s.Threshold < 0 || s.Threshold > 1 {
		return nil, fmt.Errorf("dataguide: threshold %v outside [0,1]", s.Threshold)
	}
	ns := &Set{
		col:       col,
		Threshold: s.Threshold,
		docGuide:  make(map[xmldoc.DocID]int, len(s.docGuide)+len(docs)),
		Guides:    make([]*Guide, len(s.Guides)),
	}
	maps.Copy(ns.docGuide, s.docGuide)
	for i, gd := range s.Guides {
		ng := *gd
		ng.Docs = slices.Clone(gd.Docs)
		ng.paths = slices.Clone(gd.paths)
		ng.repeatable = slices.Clone(gd.repeatable)
		ns.Guides[i] = &ng
	}
	for _, doc := range docs {
		ns.absorb(doc.ID, docProfile(doc))
	}
	if g != nil {
		ns.buildLinks(g)
	}
	return ns, nil
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

// absorb merges one document profile into the guide set following §6.1:
// the first guide containing every document path absorbs it unchanged;
// otherwise the guide with the strictly best overlap at or above the
// threshold merges it; otherwise it starts a new guide.
//
//seda:constructor
func (s *Set) absorb(doc xmldoc.DocID, pr profile) {
	bestIdx, bestOverlap := -1, 0.0
	for i, g := range s.Guides {
		common := pr.paths.common(g.paths)
		if common == pr.size {
			// Subset or equal: no further processing needed.
			g.Docs = append(g.Docs, doc)
			g.repeatable.union(pr.rep)
			s.docGuide[doc] = i
			return
		}
		if ov := overlap(common, pr.size, g.size); ov > bestOverlap {
			bestIdx, bestOverlap = i, ov
		}
	}
	if bestIdx >= 0 && bestOverlap >= s.Threshold && s.Threshold > 0 {
		g := s.Guides[bestIdx]
		g.size += g.paths.union(pr.paths)
		g.repeatable.union(pr.rep)
		g.Docs = append(g.Docs, doc)
		s.docGuide[doc] = bestIdx
		return
	}
	g := &Guide{ID: len(s.Guides), Docs: []xmldoc.DocID{doc}, paths: pr.paths, size: pr.size, repeatable: pr.rep}
	s.Guides = append(s.Guides, g)
	s.docGuide[doc] = g.ID
}

// overlap implements the paper's metric.
func overlap(common, n1, n2 int) float64 {
	if n1 == 0 || n2 == 0 {
		return 0
	}
	o1 := float64(common) / float64(n1)
	o2 := float64(common) / float64(n2)
	if o1 < o2 {
		return o1
	}
	return o2
}

// Overlap exposes the §6.1 similarity metric over two lists of dictionary
// path ids (duplicates ignored), for tests and tooling.
func Overlap(a, b []pathdict.PathID) float64 {
	var sa, sb pathSet
	for _, p := range a {
		sa.add(p)
	}
	for _, p := range b {
		sb.add(p)
	}
	return overlap(sa.common(sb), sa.common(sa), sb.common(sb))
}

//seda:constructor
func (s *Set) buildLinks(g *graph.Graph) {
	// A Link without its Count is the aggregation key.
	agg := make(map[Link]int)
	for _, e := range g.Edges() {
		fg, okF := s.docGuide[e.From.Doc]
		tg, okT := s.docGuide[e.To.Doc]
		if !okF || !okT {
			continue
		}
		agg[Link{FromGuide: fg, ToGuide: tg, FromPath: s.col.PathOf(e.From), ToPath: s.col.PathOf(e.To), Kind: e.Kind, Label: e.Label}]++
	}
	for l, n := range agg {
		l.Count = n
		s.Links = append(s.Links, l)
	}
	// The sort is a total order: the input comes off a map, so any tie left
	// to the aggregation order would make Links — and the connection
	// summaries derived from them — nondeterministic across builds (and
	// break the incremental-vs-scratch equivalence invariant).
	sort.Slice(s.Links, func(i, j int) bool {
		a, b := s.Links[i], s.Links[j]
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
}

// LinksBetween returns the aggregated link edges connecting two paths (in
// either direction), used by the connection summary.
func (s *Set) LinksBetween(a, b pathdict.PathID) []Link {
	var out []Link
	for _, l := range s.Links {
		if (l.FromPath == a && l.ToPath == b) || (l.FromPath == b && l.ToPath == a) {
			out = append(out, l)
		}
	}
	return out
}

// CoverageInvariant verifies that every document's every path is contained
// in its assigned guide — the correctness property of the merge algorithm.
// Used by tests.
func (s *Set) CoverageInvariant() error {
	for _, doc := range s.col.LiveDocs() {
		g := s.GuideOf(doc.ID)
		if g == nil {
			return fmt.Errorf("dataguide: document %d has no guide", doc.ID)
		}
		for _, p := range doc.DistinctPaths() {
			if !g.Contains(p) {
				return fmt.Errorf("dataguide: doc %d path %q missing from guide %d",
					doc.ID, s.col.Dict().Path(p), g.ID)
			}
		}
	}
	return nil
}

package dataguide

import (
	"fmt"
	"math/bits"
	"sync/atomic"

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

// Guide is one merged dataguide: a path set plus per-path occurrence
// facts needed by connection discovery, and the number of documents it
// summarizes (which ones is the Set's document assignment, see
// Set.GuideDocs). Immutable once its Set is published (sedalint
// genimmutable): a later fold that changes it works on a copy.
//
//seda:immutable
type Guide struct {
	ID    int
	docs  int // documents assigned to the guide
	paths pathSet
	size  int // |paths|, kept by the fold
	// repeatable marks paths that can occur more than once under a single
	// parent instance (e.g. item under import_partners). Connection
	// discovery uses it to find alternative join points (§6).
	repeatable pathSet
}

// NumDocs returns the number of documents the guide summarizes.
func (g *Guide) NumDocs() int { return g.docs }

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

// Set is the dataguide summary of one collection: a base followed by
// segments, oldest first, each the part one fold added (see fold.go).
// Guides is the guide list as of the newest part. Immutable once built
// (sedalint genimmutable): a later fold shares the parts and guides it
// does not change and copies the guides it does, so a published Set is
// never written.
//
//seda:immutable
type Set struct {
	col       *store.Collection
	Threshold float64
	Guides    []*Guide
	parts     []*part
	// links caches Links, merged on the first call.
	links atomic.Pointer[[]Link]
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

// GuideOf returns the guide summarizing doc, or nil. It reads the base
// and then the segments.
func (s *Set) GuideOf(doc xmldoc.DocID) *Guide {
	i, ok := guideIn(s.parts, doc)
	if !ok {
		return nil
	}
	return s.Guides[i]
}

// GuideDocs returns, per guide id, the documents assigned to the guide in
// ascending id order — the order the fold absorbed them in.
func (s *Set) GuideDocs() [][]xmldoc.DocID {
	out := make([][]xmldoc.DocID, len(s.Guides))
	for _, p := range s.parts {
		for i, gi := range p.guideOf {
			if gi >= 0 {
				out[gi] = append(out[gi], p.lo+xmldoc.DocID(i))
			}
		}
	}
	return out
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
	return (&Set{Threshold: threshold}).Extend(col, g, 0, col.LiveDocs())
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

// LinksBetween returns the aggregated link edges connecting two paths (in
// either direction), used by the connection summary.
func (s *Set) LinksBetween(a, b pathdict.PathID) []Link {
	var out []Link
	for _, l := range s.Links() {
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

package graph

import (
	"container/heap"
	"fmt"
	"math"

	"seda/internal/dewey"
	"seda/internal/xmldoc"
)

// Distance machinery for compactness scoring (paper §1: "The score function
// is based on the compactness of the graph representing a tuple of nodes").
//
// Within one document the distance between two nodes is the tree distance
// (number of parent/child edges through their LCA), computable from Dewey
// ids alone. Across documents, paths alternate tree segments and link
// edges; distances are found with Dijkstra over a "portal graph" whose
// vertices are the two endpoints plus every link-edge endpoint, with
// intra-document moves weighted by tree distance and link edges weighted
// LinkEdgeCost.

// LinkEdgeCost is the weight of traversing one link edge. Tree edges cost 1
// each; link edges cost slightly more so that tight tree connections win
// ties, mirroring the intuition that a sibling relationship is tighter than
// an IDREF hop.
const LinkEdgeCost = 2

// Unreachable is returned when no connecting path exists within the caps.
const Unreachable = math.MaxInt32

// TreeDistance returns the intra-document distance between two nodes, or
// Unreachable if they live in different documents.
func TreeDistance(a, b xmldoc.NodeRef) int {
	if a.Doc != b.Doc {
		return Unreachable
	}
	return dewey.TreeDistance(a.Dewey, b.Dewey)
}

// PairDistance returns the length of the shortest path between a and b in
// the data graph, traversing at most maxLinkHops link edges. Within a
// document it equals TreeDistance; across documents it is computed on the
// portal graph. Returns Unreachable when no path exists within the caps.
func (g *Graph) PairDistance(a, b xmldoc.NodeRef, maxLinkHops int) int {
	if g.TreeOnly(a.Doc) {
		// No link edge touches a's document, so the portal search could
		// only close inside it: the tree distance, or nothing.
		return TreeDistance(a, b)
	}
	if a.Doc == b.Doc {
		d := TreeDistance(a, b)
		// A link edge may still shortcut within a document, but tree
		// distance is already a valid path; take the min.
		if ld := g.portalDistance(a, b, maxLinkHops); ld < d {
			return ld
		}
		return d
	}
	return g.portalDistance(a, b, maxLinkHops)
}

// TreeOnly reports whether no link edge touches doc, so that every
// distance from one of its nodes is the tree distance.
func (g *Graph) TreeOnly(doc xmldoc.DocID) bool {
	for _, l := range g.layers {
		if len(l.outByDoc[doc]) > 0 || len(l.inByDoc[doc]) > 0 {
			return false
		}
	}
	return true
}

// portalState identifies a Dijkstra vertex: a node reached having crossed
// hops link edges. The hop count is part of the vertex because a dearer
// arrival with hops to spare can still go where a cheaper one that spent
// the budget cannot.
type portalState struct {
	ref  xmldoc.NodeRef
	hops int
}

// settledKey is a portalState's key in the settled map.
type settledKey struct {
	ref  string
	hops int
}

func key(r xmldoc.NodeRef) string { return fmt.Sprintf("%d|%s", r.Doc, r.Dewey) }

type pqItem struct {
	state portalState
	dist  int
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

func (g *Graph) portalDistance(a, b xmldoc.NodeRef, maxLinkHops int) int {
	if maxLinkHops <= 0 {
		return Unreachable
	}
	dist := map[settledKey]int{}
	q := &pq{{state: portalState{ref: a, hops: 0}, dist: 0}}
	var edges []Edge // scratch, reused for every settled vertex

	best := Unreachable
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist >= best {
			break
		}
		k := settledKey{key(it.state.ref), it.state.hops}
		if d, ok := dist[k]; ok && d <= it.dist {
			continue
		}
		dist[k] = it.dist
		cur := it.state.ref
		// Reaching b's document: close via tree distance.
		if cur.Doc == b.Doc {
			if t := it.dist + dewey.TreeDistance(cur.Dewey, b.Dewey); t < best {
				best = t
			}
		}
		if it.state.hops >= maxLinkHops {
			continue
		}
		// Move to any portal in the current document, then across its link
		// edge, in either direction: an edge inside the document has a
		// portal at both ends.
		edges = g.EdgesOfDoc(edges[:0], cur.Doc)
		for _, e := range edges {
			for _, hop := range [2][2]xmldoc.NodeRef{{e.From, e.To}, {e.To, e.From}} {
				exit, entry := hop[0], hop[1]
				if exit.Doc != cur.Doc {
					continue
				}
				nd := it.dist + dewey.TreeDistance(cur.Dewey, exit.Dewey) + LinkEdgeCost
				heap.Push(q, pqItem{state: portalState{ref: entry, hops: it.state.hops + 1}, dist: nd})
			}
		}
	}
	return best
}

// SteinerWeight approximates the weight of the smallest connected subgraph
// spanning all refs: the weight of a minimum spanning tree over the
// complete graph of pairwise PairDistances (a 2-approximation of the
// Steiner tree). The second result reports whether the tuple is connected
// at all within the link-hop cap — Definition 4's requirement for a valid
// result tuple.
func (g *Graph) SteinerWeight(refs []xmldoc.NodeRef, maxLinkHops int) (int, bool) {
	n := len(refs)
	if n <= 1 {
		return 0, true
	}
	const inf = Unreachable
	// Tuples are as wide as a query has terms, so the scratch normally
	// lives on the stack and scoring a tuple allocates nothing here.
	var inTreeBuf [8]bool
	var distBuf [8]int
	inTree, distTo := inTreeBuf[:], distBuf[:]
	if n > len(inTreeBuf) {
		inTree, distTo = make([]bool, n), make([]int, n)
	}
	inTree, distTo = inTree[:n], distTo[:n]
	for i := range distTo {
		distTo[i] = inf
	}
	distTo[0] = 0
	total := 0
	for iter := 0; iter < n; iter++ {
		// Pick nearest non-tree vertex.
		bi, bd := -1, inf
		for i := 0; i < n; i++ {
			if !inTree[i] && distTo[i] < bd {
				bi, bd = i, distTo[i]
			}
		}
		if bi < 0 {
			return 0, false // disconnected
		}
		inTree[bi] = true
		total += bd
		for i := 0; i < n; i++ {
			if inTree[i] {
				continue
			}
			if d := g.PairDistance(refs[bi], refs[i], maxLinkHops); d < distTo[i] {
				distTo[i] = d
			}
		}
	}
	return total, true
}

// Compactness converts a Steiner weight into the (0,1] score used by the
// top-k ranking: 1 for a single node, decreasing as the connecting subgraph
// grows.
func Compactness(weight int) float64 {
	if weight >= Unreachable {
		return 0
	}
	return 1.0 / (1.0 + float64(weight))
}

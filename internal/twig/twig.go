package twig

import (
	"fmt"
	"sort"

	"seda/internal/dewey"
	"seda/internal/graph"
	"seda/internal/index"
	"seda/internal/pathdict"
	"seda/internal/query"
	"seda/internal/summary"
	"seda/internal/xmldoc"
)

// Plan is a fully disambiguated query: terms (context-restricted after the
// user's context selections) plus the chosen connections. The connection
// graph over terms must be connected for multi-term plans.
type Plan struct {
	Terms       []query.Term
	Connections []summary.Connection
}

// Tuple is one complete result: node i satisfies term i. It carries the
// (nodeid, path) column pairs of the paper's Figure 3(a).
type Tuple struct {
	Nodes []xmldoc.NodeRef
	Paths []pathdict.PathID
}

// Evaluator computes complete result sets.
type Evaluator struct {
	ix *index.Index
	g  *graph.Graph
}

// New returns an Evaluator over an index and data graph.
func New(ix *index.Index, g *graph.Graph) *Evaluator {
	if g == nil {
		g = graph.New(ix.Collection(), graph.DiscoverOptions{}, nil)
	}
	return &Evaluator{ix: ix, g: g}
}

// validate checks the plan's connection graph spans all terms.
func (p Plan) validate() error {
	m := len(p.Terms)
	if m == 0 {
		return fmt.Errorf("twig: plan has no terms")
	}
	for _, c := range p.Connections {
		if c.TermA < 0 || c.TermA >= m || c.TermB < 0 || c.TermB >= m || c.TermA == c.TermB {
			return fmt.Errorf("twig: connection references invalid terms (%d, %d)", c.TermA, c.TermB)
		}
	}
	if m == 1 {
		return nil
	}
	// Union-find over connections.
	parent := make([]int, m)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, c := range p.Connections {
		parent[find(c.TermA)] = find(c.TermB)
	}
	root := find(0)
	for i := 1; i < m; i++ {
		if find(i) != root {
			return fmt.Errorf("twig: term %d is not connected to term 0 by any chosen connection; "+
				"select connections covering every term", i)
		}
	}
	return nil
}

// ComputeAll materializes the complete result set R(q) of the plan.
func (e *Evaluator) ComputeAll(p Plan) ([]Tuple, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	matches, err := e.termMatches(p)
	if err != nil {
		return nil, err
	}
	twigs, cross := partition(p)
	// Evaluate each twig with structural joins.
	twigResults := make([][]Tuple, len(twigs))
	for ti, tw := range twigs {
		twigResults[ti] = e.evalTwig(tw, p, matches)
	}
	// Join twigs along cross-twig link connections.
	ts, err := e.joinTwigs(p, twigs, twigResults, cross)
	return ownRefs(ts), err
}

func (e *Evaluator) termMatches(p Plan) ([][]index.Match, error) {
	out := make([][]index.Match, len(p.Terms))
	for i, t := range p.Terms {
		ms, err := e.ix.MatchTerm(t)
		if err != nil {
			return nil, fmt.Errorf("twig: term %d: %w", i, err)
		}
		out[i] = ms
	}
	return out, nil
}

// twigSpec is one twig: member term indexes and its tree connections.
type twigSpec struct {
	terms []int
	conns []summary.Connection
}

// partition splits the plan's connection graph into twigs (components over
// tree connections) and the cross-twig link connections.
func partition(p Plan) ([]twigSpec, []summary.Connection) {
	m := len(p.Terms)
	parent := make([]int, m)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, c := range p.Connections {
		if c.Kind == summary.Tree {
			parent[find(c.TermA)] = find(c.TermB)
		}
	}
	group := make(map[int]*twigSpec)
	var order []int
	for i := 0; i < m; i++ {
		r := find(i)
		ts, ok := group[r]
		if !ok {
			ts = &twigSpec{}
			group[r] = ts
			order = append(order, r)
		}
		ts.terms = append(ts.terms, i)
	}
	var cross []summary.Connection
	for _, c := range p.Connections {
		if c.Kind == summary.Tree {
			group[find(c.TermA)].conns = append(group[find(c.TermA)].conns, c)
		} else {
			cross = append(cross, c)
		}
	}
	out := make([]twigSpec, 0, len(order))
	for _, r := range order {
		out = append(out, *group[r])
	}
	return out, cross
}

// evalTwig computes all bindings of a twig's terms satisfying its tree
// connections. Bindings are maps term→match realized as slices aligned with
// tw.terms.
func (e *Evaluator) evalTwig(tw twigSpec, p Plan, matches [][]index.Match) []Tuple {
	pos := make(map[int]int, len(tw.terms)) // term index -> slot
	for slot, term := range tw.terms {
		pos[term] = slot
	}
	// Order terms: start from the smallest match list, then expand along
	// connections (BFS), appending unconnected members last.
	order := planOrder(tw, matches)

	var out []Tuple
	binding := make([]index.Match, len(tw.terms))
	bound := make([]bool, len(tw.terms))
	dict := e.ix.Collection().Dict()

	var rec func(oi int)
	rec = func(oi int) {
		if oi == len(order) {
			t := Tuple{Nodes: make([]xmldoc.NodeRef, len(tw.terms)), Paths: make([]pathdict.PathID, len(tw.terms))}
			for slot := range tw.terms {
				t.Nodes[slot] = binding[slot].Ref
				t.Paths[slot] = binding[slot].Path
			}
			out = append(out, t)
			return
		}
		term := order[oi]
		slot := pos[term]
		// Find a connection to an already-bound term to drive candidate
		// lookup; fall back to the full match list.
		var cands []index.Match
		driven := false
		for _, c := range tw.conns {
			other, ok := connPeer(c, term)
			if !ok || !bound[pos[other]] {
				continue
			}
			d := dict.Depth(c.JoinPath)
			anchor := binding[pos[other]].Ref
			if anchor.Dewey.Level() < d {
				cands = nil
				driven = true
				break
			}
			cands = runUnder(matches[term], xmldoc.NodeRef{Doc: anchor.Doc, Dewey: anchor.Dewey[:d]})
			driven = true
			break
		}
		if !driven {
			cands = matches[term]
		}
		for _, m := range cands {
			ok := true
			for _, c := range tw.conns {
				other, isPeer := connPeer(c, term)
				if !isPeer || !bound[pos[other]] {
					continue
				}
				if !treeConnSatisfied(dict, c, term, m, binding[pos[other]]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			binding[slot] = m
			bound[slot] = true
			rec(oi + 1)
			bound[slot] = false
		}
	}
	rec(0)
	return out
}

// connPeer returns the other endpoint when term is one endpoint of c.
func connPeer(c summary.Connection, term int) (int, bool) {
	switch term {
	case c.TermA:
		return c.TermB, true
	case c.TermB:
		return c.TermA, true
	}
	return 0, false
}

// treeConnSatisfied checks the chosen tree connection: both nodes in one
// document with their instance LCA exactly at the join path's depth.
func treeConnSatisfied(dict *pathdict.Dict, c summary.Connection, term int, m, other index.Match) bool {
	a, b := m.Ref, other.Ref
	if a.Doc != b.Doc {
		return false
	}
	d := dict.Depth(c.JoinPath)
	l := dewey.LCA(a.Dewey, b.Dewey)
	if l.Level() != d {
		return false
	}
	// The LCA's path must be the chosen join path (same depth can occur
	// under different branches in heterogeneous data).
	return dict.AncestorAtDepth(m.Path, d) == c.JoinPath
}

func planOrder(tw twigSpec, matches [][]index.Match) []int {
	// Start with the term having the fewest matches.
	start := tw.terms[0]
	for _, t := range tw.terms {
		if len(matches[t]) < len(matches[start]) {
			start = t
		}
	}
	order := []int{start}
	seen := map[int]bool{start: true}
	for {
		grew := false
		for _, c := range tw.conns {
			a, b := c.TermA, c.TermB
			if seen[a] && !seen[b] {
				order = append(order, b)
				seen[b] = true
				grew = true
			} else if seen[b] && !seen[a] {
				order = append(order, a)
				seen[a] = true
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	for _, t := range tw.terms {
		if !seen[t] {
			order = append(order, t)
			seen[t] = true
		}
	}
	return order
}

// runUnder returns the matches in the subtree of ref. MatchTerm answers in
// (doc, Dewey) order, where a subtree is one contiguous run starting at
// the first match at or after its root, so a binary search plus a forward
// scan finds it with no index over the matches.
func runUnder(ms []index.Match, ref xmldoc.NodeRef) []index.Match {
	i := sort.Search(len(ms), func(i int) bool { return !ms[i].Ref.Less(ref) })
	j := i
	for j < len(ms) && ms[j].Ref.Doc == ref.Doc && ref.Dewey.IsAncestorOrSelf(ms[j].Ref.Dewey) {
		j++
	}
	return ms[i:j]
}

// joinTwigs combines per-twig results along cross-twig link connections,
// nested-loop with link verification (the paper: "similar to a join in an
// RDBMS").
func (e *Evaluator) joinTwigs(p Plan, twigs []twigSpec, results [][]Tuple, cross []summary.Connection) ([]Tuple, error) {
	m := len(p.Terms)
	twigOf := make([]int, m)
	slotOf := make([]int, m)
	for ti, tw := range twigs {
		for slot, term := range tw.terms {
			twigOf[term] = ti
			slotOf[term] = slot
		}
	}
	// Fold twigs one by one into partial tuples.
	var edges []graph.Edge // scratch for linkConnSatisfied
	partial := make([]Tuple, 0, len(results[0]))
	for _, t := range results[0] {
		full := Tuple{Nodes: make([]xmldoc.NodeRef, m), Paths: make([]pathdict.PathID, m)}
		for slot, term := range twigs[0].terms {
			full.Nodes[term] = t.Nodes[slot]
			full.Paths[term] = t.Paths[slot]
		}
		partial = append(partial, full)
	}
	included := map[int]bool{0: true}
	for ti := 1; ti < len(twigs); ti++ {
		var next []Tuple
		for _, base := range partial {
			for _, t := range results[ti] {
				cand := Tuple{Nodes: append([]xmldoc.NodeRef{}, base.Nodes...), Paths: append([]pathdict.PathID{}, base.Paths...)}
				for slot, term := range twigs[ti].terms {
					cand.Nodes[term] = t.Nodes[slot]
					cand.Paths[term] = t.Paths[slot]
				}
				ok := true
				for _, c := range cross {
					ta, tb := twigOf[c.TermA], twigOf[c.TermB]
					if (ta == ti && included[tb]) || (tb == ti && included[ta]) {
						if !e.linkConnSatisfied(&edges, c, cand.Nodes[c.TermA], cand.Nodes[c.TermB]) {
							ok = false
							break
						}
					}
				}
				if ok {
					next = append(next, cand)
				}
			}
		}
		included[ti] = true
		partial = next
	}
	if len(partial) == 0 {
		return nil, nil
	}
	sortTuples(partial)
	return partial, nil
}

// linkConnSatisfied checks a chosen link connection: a graph edge of the
// connection's kind and label between ancestors-or-self of the two nodes.
// edges is the caller's scratch for a's link edges.
func (e *Evaluator) linkConnSatisfied(edges *[]graph.Edge, c summary.Connection, a, b xmldoc.NodeRef) bool {
	*edges = e.g.EdgesOfDoc((*edges)[:0], a.Doc)
	for _, edge := range *edges {
		if edge.Kind != c.Link.Kind || edge.Label != c.Link.Label {
			continue
		}
		touchesA := edge.From.Doc == a.Doc && edge.From.Dewey.IsAncestorOrSelf(a.Dewey) ||
			edge.To.Doc == a.Doc && edge.To.Dewey.IsAncestorOrSelf(a.Dewey)
		touchesB := edge.From.Doc == b.Doc && edge.From.Dewey.IsAncestorOrSelf(b.Dewey) ||
			edge.To.Doc == b.Doc && edge.To.Dewey.IsAncestorOrSelf(b.Dewey)
		if touchesA && touchesB {
			return true
		}
	}
	return false
}

// ComputeNaive evaluates the plan by full cartesian enumeration with
// constraint filtering — the ablation baseline (benchmark A2) and the test
// oracle for ComputeAll.
func (e *Evaluator) ComputeNaive(p Plan) ([]Tuple, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	matches, err := e.termMatches(p)
	if err != nil {
		return nil, err
	}
	dict := e.ix.Collection().Dict()
	m := len(p.Terms)
	var out []Tuple
	var edges []graph.Edge // scratch for linkConnSatisfied
	tuple := make([]index.Match, m)
	var rec func(i int)
	rec = func(i int) {
		if i == m {
			t := Tuple{Nodes: make([]xmldoc.NodeRef, m), Paths: make([]pathdict.PathID, m)}
			for j, mm := range tuple {
				t.Nodes[j] = mm.Ref
				t.Paths[j] = mm.Path
			}
			out = append(out, t)
			return
		}
		for _, mm := range matches[i] {
			tuple[i] = mm
			ok := true
			for _, c := range p.Connections {
				if c.TermA > i || c.TermB > i {
					continue // not yet bound
				}
				a, b := tuple[c.TermA], tuple[c.TermB]
				if c.Kind == summary.Tree {
					if !treeConnSatisfied(dict, c, c.TermA, a, b) {
						ok = false
						break
					}
				} else if !e.linkConnSatisfied(&edges, c, a.Ref, b.Ref) {
					ok = false
					break
				}
			}
			if ok {
				rec(i + 1)
			}
		}
	}
	rec(0)
	sortTuples(out)
	return ownRefs(out), nil
}

// ownRefs copies the tuples' Dewey ids into one slab of their own. The
// match lists they come from are the index's cached answers; a tuple a
// session holds must not keep a cached entry's storage alive after the
// cache drops it.
func ownRefs(ts []Tuple) []Tuple {
	xmldoc.OwnDeweys(func(yield func(*xmldoc.NodeRef) bool) {
		for _, x := range ts {
			for i := range x.Nodes {
				if !yield(&x.Nodes[i]) {
					return
				}
			}
		}
	})
	return ts
}

func sortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i].Nodes, ts[j].Nodes
		for x := range a {
			if !a[x].Equal(b[x]) {
				return a[x].Less(b[x])
			}
		}
		return false
	})
}

package index

import (
	"fmt"
	"math"
	"slices"

	"seda/internal/dewey"
	"seda/internal/fulltext"
	"seda/internal/pathdict"
	"seda/internal/query"
	"seda/internal/xmldoc"
)

// Match is one node satisfying a query term, with its content score.
// Matches returned by MatchTerm and MatchTermShard are read-only: the
// lists are shared through the index's term cache with every later
// caller asking for the same term, and Ref.Dewey points into the cached
// entry's storage (capacity-capped, so an append copies).
type Match struct {
	Ref   xmldoc.NodeRef
	Path  pathdict.PathID
	Score float64
}

// MatchTerm returns all nodes satisfying the query term per Definition 3:
// content(n) satisfies the search expression and the context matches the
// node's name or full path. Results are in (doc, Dewey) order. The
// returned list is read-only: with one shard it is the cached list itself
// (see MatchTermShard).
//
// The evaluation scatters across the index's shards and concatenates the
// per-shard results; shard ranges are disjoint and increasing, so the
// concatenation is already in global (doc, Dewey) order. Callers that want
// to schedule the scatter themselves (the top-k searcher's fetch scatter)
// use MatchTermShard per shard and concatenate in shard order.
func (ix *Index) MatchTerm(t query.Term) ([]Match, error) {
	if len(ix.shards) == 1 {
		return ix.MatchTermShard(t, 0)
	}
	var out []Match
	for s := range ix.shards {
		ms, err := ix.MatchTermShard(t, s)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// MatchTermShard evaluates the query term against one shard's documents.
// Concatenating the results of every shard in order yields exactly
// MatchTerm's answer; scoring uses the corpus-global statistics (document
// frequencies, corpus size), so per-shard scores are independent of the
// shard layout.
//
// The answer is cached on the index (termcache.go), keyed on the term's
// canonical rendering and the shard: a term already answered on this
// generation is returned without evaluating it again, and concurrent
// callers of one uncached term share one evaluation. The returned list is
// therefore shared and read-only; callers that reorder or trim it copy
// first. Errors are not cached.
func (ix *Index) MatchTermShard(t query.Term, s int) ([]Match, error) {
	ix.shards[s].fetches.Add(1)
	return ix.cache.match(ix, t, s)
}

// evalTermShard evaluates the term on shard s, uncached; the result is
// freshly allocated.
//
// Candidate generation works on the shard's node index: the deepest nodes
// whose subtree covers a conjunctive clause of the expression (an
// SLCA-style computation on Dewey ids) are "anchors"; anchors are then
// lifted to the ancestors-or-self whose path satisfies the context, and
// every lifted node is verified by evaluating the full expression against
// content(n). For match-all or purely negative expressions the context's
// paths enumerate candidates directly.
//
// Candidates travel as one (doc, Dewey)-sorted, duplicate-free slice:
// each clause's SLCA output is already in that order, so a single-clause
// term with an empty context needs no sort at all; otherwise one
// sort-unique after lifting replaces any keyed set.
func (ix *Index) evalTermShard(t query.Term, s int) ([]Match, error) {
	if fulltext.OpenMatch(t.Search) {
		// The expression can match content containing no positive term, so
		// anchors cannot enumerate candidates; scan by context instead.
		return ix.matchByContextScan(t, s)
	}
	clauses := dnfClauses(t.Search)
	if len(clauses) == 0 {
		return ix.matchByContextScan(t, s)
	}
	var cands, anchors []Match
	for _, clause := range clauses {
		var err error
		if t.Context.IsEmpty() {
			if cands, err = ix.clauseAnchors(cands, clause, s); err != nil {
				return nil, err
			}
			continue
		}
		if anchors, err = ix.clauseAnchors(anchors[:0], clause, s); err != nil {
			return nil, err
		}
		for _, a := range anchors {
			cands = ix.appendLifted(cands, t.Context, a)
		}
	}
	if len(clauses) > 1 || !t.Context.IsEmpty() {
		cands = sortUniqueRefs(cands)
	}
	return ix.verify(t, cands), nil
}

// appendLifted appends the anchor's ancestors-or-self whose path satisfies
// the context. Ancestor paths are the step-prefixes of the anchor's path,
// which the anchor carries out of the SLCA sweep, so the check needs no
// tree access; the lifted Dewey ids share the anchor's (capacity-capped)
// storage.
func (ix *Index) appendLifted(cands []Match, ctx query.Context, anchor Match) []Match {
	dict := ix.col.Dict()
	for lvl := anchor.Ref.Dewey.Level(); lvl >= 1; lvl-- {
		p := dict.AncestorAtDepth(anchor.Path, lvl)
		if p == pathdict.InvalidPath {
			continue
		}
		if ctx.Matches(dict, p) {
			cands = append(cands, Match{Ref: xmldoc.NodeRef{Doc: anchor.Ref.Doc, Dewey: anchor.Ref.Dewey[:lvl:lvl]}, Path: p})
		}
	}
	return cands
}

// sortUniqueRefs sorts candidates into (doc, Dewey) order and drops
// repeated refs in place.
func sortUniqueRefs(cands []Match) []Match {
	slices.SortFunc(cands, func(a, b Match) int { return compareRefs(a.Ref, b.Ref) })
	return slices.CompactFunc(cands, func(a, b Match) bool { return a.Ref.Equal(b.Ref) })
}

// compareRefs is the three-way form of xmldoc.NodeRef.Less.
func compareRefs(a, b xmldoc.NodeRef) int {
	if a.Doc != b.Doc {
		if a.Doc < b.Doc {
			return -1
		}
		return 1
	}
	return dewey.Compare(a.Dewey, b.Dewey)
}

// matchByContextScan handles terms whose expression yields no positive index
// probes — (context, *) and (context, NOT x). Candidates are all of shard
// s's nodes at context-matching paths; the scan walks the shard's own
// path set (not the corpus-global list), so the per-term work across all
// shards stays proportional to the corpus, not shards × corpus. Each
// path's node list is already in (doc, Dewey) order and distinct paths
// never share a node, so merging the lists yields sorted, duplicate-free
// candidates. A match-all term is answered from the lists alone — every
// node satisfies "*" and scores the neutral 1 — so it never resolves a
// node or reads content; other open expressions (NOT x) go through
// verify. query.NewTerm guarantees such terms have a context.
func (ix *Index) matchByContextScan(t query.Term, s int) ([]Match, error) {
	if t.Context.IsEmpty() {
		return nil, fmt.Errorf("index: term %s has neither positive search terms nor a context", t)
	}
	dict := ix.col.Dict()
	sh := ix.shards[s]
	// Walk the resident path roster, sizing the output from its counts;
	// the matching paths' runs live on the stack for the common few-path
	// case.
	var buf [8]pathRun
	runs := buf[:0]
	total := 0
	for i, p := range sh.pathIDs {
		if t.Context.Matches(dict, p) {
			runs = append(runs, pathRun{path: p})
			total += sh.pathCounts[i]
		}
	}
	out := make([]Match, 0, total)
	if len(runs) == 0 {
		// Nothing matches in this shard: nothing is read.
		return out, nil
	}
	for i := range runs {
		refs, err := sh.nodes(runs[i].path)
		if err != nil {
			return nil, err
		}
		runs[i].refs = ix.liveRefs(s, refs)
	}
	out = mergeRuns(out, runs)
	if fulltext.IsMatchAll(t.Search) {
		return out, nil
	}
	return ix.verify(t, out), nil
}

// pathRun is the not-yet-emitted tail of one path's node list.
type pathRun struct {
	path pathdict.PathID
	refs []xmldoc.NodeRef
}

// mergeRuns appends the union of the runs to out in (doc, Dewey) order, as
// matches with their run's path and the match-all score 1. Each run must
// be sorted and no two runs may share a node. The runs are consumed. A
// binary min-heap over the run heads does the k-way merge; a lone run is
// copied straight through.
func mergeRuns(out []Match, runs []pathRun) []Match {
	h := runs[:0]
	for _, r := range runs {
		if len(r.refs) > 0 {
			h = append(h, r)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownRuns(h, i)
	}
	for len(h) > 1 {
		top := &h[0]
		out = append(out, Match{Ref: top.refs[0], Path: top.path, Score: 1})
		if top.refs = top.refs[1:]; len(top.refs) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDownRuns(h, 0)
	}
	if len(h) == 1 {
		for _, ref := range h[0].refs {
			out = append(out, Match{Ref: ref, Path: h[0].path, Score: 1})
		}
	}
	return out
}

func siftDownRuns(h []pathRun, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].refs[0].Less(h[min].refs[0]) {
			min = l
		}
		if r < len(h) && h[r].refs[0].Less(h[min].refs[0]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// verify evaluates the full search expression against content(n) for every
// candidate and scores the survivors. cands must be sorted and
// duplicate-free; only their refs are read. Survivors are compacted in
// place, so the result keeps the candidates' order and storage.
//
// content(n) is never joined into a string: the subtree's texts stream
// into one builder, reset per candidate, that keeps positions only for the
// words and prefixes the expression (and hence the scorer) can observe.
func (ix *Index) verify(t query.Term, cands []Match) []Match {
	sc := ix.newScorer(t.Search)
	cb := fulltext.NewContentBuilder(t.Search)
	out := cands[:0]
	for _, c := range cands {
		if ix.dead.Has(c.Ref.Doc) {
			continue // masked documents never match
		}
		node := ix.col.Node(c.Ref)
		if node == nil {
			continue
		}
		cb.Reset()
		node.EachText(cb.Add)
		content := cb.Content()
		if !t.Search.Matches(content) {
			continue
		}
		out = append(out, Match{Ref: c.Ref, Path: node.Path, Score: sc.score(content)})
	}
	return out
}

// scorer holds the per-term set-up of the TF-IDF content score, computed
// once per evaluation instead of once per candidate: the expression's
// positive terms in syntax order, each with its IDF and, for a prefix
// probe, its vocabulary expansions in vocabulary order.
type scorer []scoredTerm

type scoredTerm struct {
	term       string
	prefix     bool
	expansions []string // vocabulary terms starting with term (prefix probes only)
	idf        float64
}

func (ix *Index) newScorer(e fulltext.Expr) scorer {
	tqs := fulltext.Terms(e)
	if len(tqs) == 0 {
		return nil
	}
	n := float64(ix.col.NumLive())
	sc := make(scorer, len(tqs))
	for i, tq := range tqs {
		st := scoredTerm{term: tq.Term, prefix: tq.Prefix}
		if tq.Prefix {
			st.expansions = ix.vocab(tq.Term)
		}
		df := float64(ix.DocFreq(tq.Term))
		if df == 0 {
			df = 1
		}
		st.idf = math.Log(1 + n/df)
		sc[i] = st
	}
	return sc
}

// score is a TF-IDF content score: sum over the expression's positive
// terms of tf·idf, dampened by content length so that deep containers do
// not dominate leaf-level matches. MatchAll terms score a neutral 1.
func (sc scorer) score(content *fulltext.Content) float64 {
	if len(sc) == 0 {
		return 1
	}
	var s float64
	for _, st := range sc {
		var tf float64
		if st.prefix {
			// Approximate prefix tf by summing the expansions; cheap because
			// content term maps are small.
			for _, w := range st.expansions {
				tf += float64(content.TermFreq(w))
			}
		} else {
			tf = float64(content.TermFreq(st.term))
		}
		if tf == 0 {
			continue
		}
		s += (1 + math.Log(tf)) * st.idf
	}
	return s / (1 + 0.3*math.Log(1+float64(content.Len())))
}

// dnfClauses flattens the positive structure of an expression into
// conjunctive clauses of index probes (a shallow DNF): each clause is a set
// of probes that must all occur within one subtree for the clause to match
// there. Negations contribute nothing (they are verification-only).
// Returns nil when the expression has no positive probes at all.
func dnfClauses(e fulltext.Expr) [][]probe {
	const maxClauses = 64
	cs := dnf(e, maxClauses)
	out := cs[:0]
	for _, c := range cs {
		if len(c) > 0 {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// probe is a positive index access: a word or a word prefix.
type probe struct {
	term   string
	prefix bool
}

func dnf(e fulltext.Expr, cap int) [][]probe {
	switch t := e.(type) {
	case fulltext.Word:
		return [][]probe{{{term: t.Term, prefix: t.Prefix}}}
	case fulltext.Phrase:
		// A phrase anchors wherever all member words co-occur; adjacency is
		// decided by verification against content(n), which also catches
		// phrases spanning element boundaries.
		clause := make([]probe, len(t.TermsSeq))
		for i, w := range t.TermsSeq {
			clause[i] = probe{term: w}
		}
		return [][]probe{clause}
	case fulltext.Not, fulltext.MatchAll:
		return [][]probe{{}} // contributes no probes
	case fulltext.Or:
		var out [][]probe
		for _, c := range t.Children {
			out = append(out, dnf(c, cap)...)
			if len(out) > cap {
				return mergeToSingle(out)
			}
		}
		return out
	case fulltext.And:
		acc := [][]probe{{}}
		for _, c := range t.Children {
			sub := dnf(c, cap)
			var next [][]probe
			for _, a := range acc {
				for _, s := range sub {
					clause := make([]probe, 0, len(a)+len(s))
					clause = append(clause, a...)
					clause = append(clause, s...)
					next = append(next, clause)
				}
			}
			if len(next) > cap {
				return mergeToSingle(next)
			}
			acc = next
		}
		return acc
	}
	return nil
}

// mergeToSingle collapses an exploding DNF into one clause per original
// clause's first probe — a safe over-approximation: anchors become a
// superset, verification filters precisely.
func mergeToSingle(cs [][]probe) [][]probe {
	var out [][]probe
	for _, c := range cs {
		if len(c) > 0 {
			out = append(out, []probe{c[0]})
		}
	}
	return out
}

// clauseAnchors appends to dst the smallest (deepest, minimal) nodes of
// shard s whose subtree covers every probe of the clause — the multiway
// SLCA of the clause's posting lists, in the spirit of the SLCA
// keyword-search work the paper builds on (Xu & Papakonstantinou
// SIGMOD'05, Sun et al. WWW'07) — each with its path. For a single-probe
// clause this reduces to the posting nodes that have no posting
// descendant. An anchor's whole ancestor chain lives in its own document,
// so per-shard SLCA concatenated over shards equals the corpus-wide SLCA.
func (ix *Index) clauseAnchors(dst []Match, clause []probe, s int) ([]Match, error) {
	sh := ix.shards[s]
	lists := make([][]Posting, 0, len(clause))
	for _, pr := range clause {
		var ps []Posting
		if pr.prefix {
			var err error
			if ps, err = ix.lookupPrefixShard(s, pr.term); err != nil {
				return nil, err
			}
		} else if sh.termDocFreq[pr.term] > 0 {
			// The resident vocabulary gates the probe: a term absent from
			// this shard fails the clause without reading anything.
			var err error
			if ps, err = sh.postings(pr.term); err != nil {
				return nil, err
			}
			ps = ix.livePostings(s, ps)
		}
		if len(ps) == 0 {
			return dst, nil // clause cannot be satisfied in this shard
		}
		lists = append(lists, ps)
	}
	return slca(dst, lists, ix.col.Dict()), nil
}

// frame is one node on the SLCA sweep's ancestor chain: id aliases posting
// storage, and path is the path of some posting at or below the node — its
// own, unless the frame is an inserted LCA.
type frame struct {
	doc          xmldoc.DocID
	id           dewey.ID
	path         pathdict.PathID
	mask         uint64
	lca          bool
	emittedBelow bool
}

// sweep is the state of one SLCA computation.
type sweep struct {
	stack []frame
	out   []Match
	full  uint64
	dict  *pathdict.Dict
}

// slca appends to dst the deepest nodes covering all k posting lists, the
// multiway smallest-LCA in the spirit of Sun et al. (WWW'07), via a single
// document-order sweep with an ancestor-chain stack. The lists are merged
// on the fly, as each is already in document order. The stack invariant is
// that frames form a proper-ancestor chain within one document; popping a
// frame folds its coverage mask into the LCA it shares with the incoming
// posting, so no coverage is ever lost. Frames slice the postings' own
// Dewey ids, so the sweep allocates only its stack and output.
func slca(dst []Match, lists [][]Posting, dict *pathdict.Dict) []Match {
	if len(lists) > 63 {
		// Masks are 64-bit; over-approximate huge clauses by their first 63
		// probes. Verification against content(n) filters precisely.
		lists = lists[:63]
	}
	// Anchors have disjoint subtrees, each holding a posting of every list,
	// so the shortest list bounds their number.
	most := 0
	for i, ps := range lists {
		if i == 0 || len(ps) < most {
			most = len(ps)
		}
	}
	w := sweep{stack: make([]frame, 0, 16), out: slices.Grow(dst, most), full: uint64(1)<<uint(len(lists)) - 1, dict: dict}
	var heads [63]int
	for {
		// The next posting in document order across the lists.
		best := -1
		for i, ps := range lists {
			if heads[i] < len(ps) && (best < 0 || ps[heads[i]].Ref.Less(lists[best][heads[best]].Ref)) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		p := &lists[best][heads[best]]
		heads[best]++
		w.add(p, 1<<uint(best))
	}
	w.flush()
	return w.out
}

// add sweeps one posting satisfying the probes in mask.
func (w *sweep) add(p *Posting, mask uint64) {
	if len(w.stack) > 0 && w.stack[len(w.stack)-1].doc != p.Ref.Doc {
		w.flush()
	}
	for len(w.stack) > 0 && !w.stack[len(w.stack)-1].id.IsAncestorOrSelf(p.Ref.Dewey) {
		top := w.stack[len(w.stack)-1]
		m, emitted := w.pop()
		l := dewey.CommonPrefixLen(top.id, p.Ref.Dewey) // > 0: same document root
		if len(w.stack) > 0 && len(w.stack[len(w.stack)-1].id) >= l {
			// The next frame is at or below the LCA on the same chain:
			// fold into it and keep popping.
			w.fold(m, emitted)
			continue
		}
		// Insert the LCA as an explicit frame; it is an ancestor of p, so
		// the loop terminates here.
		w.stack = append(w.stack, frame{doc: top.doc, id: top.id[:l:l], path: top.path, mask: m, lca: true, emittedBelow: emitted})
	}
	if len(w.stack) > 0 && dewey.Equal(w.stack[len(w.stack)-1].id, p.Ref.Dewey) {
		w.stack[len(w.stack)-1].mask |= mask
		return
	}
	// Cap the id at its length, so that a caller's append copies instead of
	// writing into the index.
	id := p.Ref.Dewey[:len(p.Ref.Dewey):len(p.Ref.Dewey)]
	w.stack = append(w.stack, frame{doc: p.Ref.Doc, id: id, path: p.Path, mask: mask})
}

// pop removes the top frame, emitting it if it is a smallest full cover,
// and returns its accumulated state.
func (w *sweep) pop() (uint64, bool) {
	top := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	emitted := top.emittedBelow
	if top.mask == w.full && !top.emittedBelow {
		path := top.path
		if top.lca {
			path = w.dict.AncestorAtDepth(path, len(top.id))
		}
		w.out = append(w.out, Match{Ref: xmldoc.NodeRef{Doc: top.doc, Dewey: top.id}, Path: path})
		emitted = true
	}
	return top.mask, emitted
}

// fold merges a popped frame's state into the new top of the stack.
func (w *sweep) fold(mask uint64, emitted bool) {
	top := &w.stack[len(w.stack)-1]
	top.mask |= mask
	top.emittedBelow = top.emittedBelow || emitted
}

// flush pops the whole chain at the end of a document.
func (w *sweep) flush() {
	for len(w.stack) > 0 {
		doc := w.stack[len(w.stack)-1].doc
		m, emitted := w.pop()
		if len(w.stack) > 0 && w.stack[len(w.stack)-1].doc == doc {
			w.fold(m, emitted)
		}
	}
}

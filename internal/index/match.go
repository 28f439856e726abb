package index

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"seda/internal/dewey"
	"seda/internal/fulltext"
	"seda/internal/pathdict"
	"seda/internal/query"
	"seda/internal/xmldoc"
)

// Match is one node satisfying a query term, with its content score.
type Match struct {
	Ref   xmldoc.NodeRef
	Path  pathdict.PathID
	Score float64
}

// MatchTerm returns all nodes satisfying the query term per Definition 3:
// content(n) satisfies the search expression and the context matches the
// node's name or full path. Results are in (doc, Dewey) order.
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
func (ix *Index) MatchTermShard(t query.Term, s int) ([]Match, error) {
	ix.shards[s].fetches.Add(1)
	if fulltext.OpenMatch(t.Search) {
		// The expression can match content containing no positive term, so
		// anchors cannot enumerate candidates; scan by context instead.
		return ix.matchByContextScan(t, s)
	}
	clauses := dnfClauses(t.Search)
	if len(clauses) == 0 {
		return ix.matchByContextScan(t, s)
	}
	var cands []Match
	for _, clause := range clauses {
		anchors, err := ix.clauseAnchors(clause, s)
		if err != nil {
			return nil, err
		}
		if t.Context.IsEmpty() {
			for _, a := range anchors {
				cands = append(cands, Match{Ref: a})
			}
			continue
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
// so the check needs no tree access beyond resolving the anchor itself;
// the lifted Dewey ids share the anchor's (capacity-capped) storage.
func (ix *Index) appendLifted(cands []Match, ctx query.Context, anchor xmldoc.NodeRef) []Match {
	dict := ix.col.Dict()
	aPath := ix.col.PathOf(anchor)
	for lvl := anchor.Dewey.Level(); lvl >= 1; lvl-- {
		p := dict.AncestorAtDepth(aPath, lvl)
		if p == pathdict.InvalidPath {
			continue
		}
		if ctx.Matches(dict, p) {
			cands = append(cands, Match{Ref: xmldoc.NodeRef{Doc: anchor.Doc, Dewey: anchor.Dewey[:lvl:lvl]}})
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
		// Nothing matches in this shard: a cold shard stays cold.
		return out, nil
	}
	d, err := sh.hot()
	if err != nil {
		return nil, err
	}
	for i := range runs {
		runs[i].refs = ix.liveRefs(s, d.pathNodes[runs[i].path])
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
func (ix *Index) verify(t query.Term, cands []Match) []Match {
	sc := ix.newScorer(t.Search)
	out := cands[:0]
	for _, c := range cands {
		if ix.dead.Has(c.Ref.Doc) {
			continue // masked documents never match
		}
		node := ix.col.Node(c.Ref)
		if node == nil {
			continue
		}
		content := fulltext.NewContent(node.Content())
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
			lo := sort.SearchStrings(ix.terms, tq.Term)
			hi := lo
			for hi < len(ix.terms) && hasPrefix(ix.terms[hi], tq.Term) {
				hi++
			}
			st.expansions = ix.terms[lo:hi]
		}
		df := float64(ix.termDocFreq[tq.Term])
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

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

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

// clauseAnchors returns the smallest (deepest, minimal) nodes of shard s
// whose subtree covers every probe of the clause — the multiway SLCA of
// the clause's posting lists, in the spirit of the SLCA keyword-search
// work the paper builds on (Xu & Papakonstantinou SIGMOD'05, Sun et al.
// WWW'07). For a single-probe clause this reduces to the posting nodes
// that have no posting descendant. An anchor's whole ancestor chain lives
// in its own document, so per-shard SLCA concatenated over shards equals
// the corpus-wide SLCA.
func (ix *Index) clauseAnchors(clause []probe, s int) ([]xmldoc.NodeRef, error) {
	sh := ix.shards[s]
	var d *shardData
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
			// this shard fails the clause without paging anything in.
			if d == nil {
				var err error
				if d, err = sh.hot(); err != nil {
					return nil, err
				}
			}
			ps = ix.livePostings(s, d.postings[pr.term])
		}
		if len(ps) == 0 {
			return nil, nil // clause cannot be satisfied in this shard
		}
		lists = append(lists, ps)
	}
	return slca(lists), nil
}

// event is one posting occurrence tagged with the probe index it satisfies.
type event struct {
	ref  xmldoc.NodeRef
	mask uint64
}

// slca computes the deepest nodes covering all k posting lists, the
// multiway smallest-LCA in the spirit of Sun et al. (WWW'07), via a single
// document-order sweep with an ancestor-chain stack. The stack invariant is
// that frames form a proper-ancestor chain within one document; popping a
// frame folds its coverage mask into the LCA it shares with the incoming
// event, so no coverage is ever lost.
func slca(lists [][]Posting) []xmldoc.NodeRef {
	if len(lists) > 63 {
		// Masks are 64-bit; over-approximate huge clauses by their first 63
		// probes. Verification against content(n) filters precisely.
		lists = lists[:63]
	}
	var events []event
	for i, ps := range lists {
		for _, p := range ps {
			events = append(events, event{ref: p.Ref, mask: 1 << uint(i)})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].ref.Less(events[j].ref) })
	full := uint64(1)<<uint(len(lists)) - 1

	type frame struct {
		doc          xmldoc.DocID
		id           dewey.ID
		mask         uint64
		emittedBelow bool
	}
	var stack []frame
	var out []xmldoc.NodeRef

	// finalize pops the top frame, emitting it if it is a smallest full
	// cover, and returns its accumulated state.
	finalize := func() (uint64, bool) {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		emitted := top.emittedBelow
		if top.mask == full && !top.emittedBelow {
			out = append(out, xmldoc.NodeRef{Doc: top.doc, Dewey: top.id})
			emitted = true
		}
		return top.mask, emitted
	}

	flushAll := func() {
		for len(stack) > 0 {
			doc := stack[len(stack)-1].doc
			mask, emitted := finalize()
			if len(stack) > 0 && stack[len(stack)-1].doc == doc {
				stack[len(stack)-1].mask |= mask
				stack[len(stack)-1].emittedBelow = stack[len(stack)-1].emittedBelow || emitted
			}
		}
	}

	for _, ev := range events {
		if len(stack) > 0 && stack[len(stack)-1].doc != ev.ref.Doc {
			flushAll()
		}
		for len(stack) > 0 && !stack[len(stack)-1].id.IsAncestorOrSelf(ev.ref.Dewey) {
			fid := stack[len(stack)-1].id
			doc := stack[len(stack)-1].doc
			mask, emitted := finalize()
			l := dewey.LCA(fid, ev.ref.Dewey) // non-nil: same document root
			if len(stack) > 0 && len(stack[len(stack)-1].id) >= len(l) {
				// The next frame is at or below the LCA on the same chain:
				// fold into it and keep popping.
				stack[len(stack)-1].mask |= mask
				stack[len(stack)-1].emittedBelow = stack[len(stack)-1].emittedBelow || emitted
				continue
			}
			// Insert the LCA as an explicit frame; it is an ancestor of ev,
			// so the loop terminates here.
			stack = append(stack, frame{doc: doc, id: l, mask: mask, emittedBelow: emitted})
		}
		if len(stack) > 0 && dewey.Equal(stack[len(stack)-1].id, ev.ref.Dewey) {
			stack[len(stack)-1].mask |= ev.mask
			continue
		}
		stack = append(stack, frame{doc: ev.ref.Doc, id: ev.ref.Dewey.Clone(), mask: ev.mask})
	}
	flushAll()
	return out
}

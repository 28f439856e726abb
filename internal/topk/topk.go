package topk

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"seda/internal/dewey"
	"seda/internal/graph"
	"seda/internal/index"
	"seda/internal/parallel"
	"seda/internal/pathdict"
	"seda/internal/query"
	"seda/internal/xmldoc"
)

// Options tunes a search. The zero value is usable: K defaults to 10.
type Options struct {
	// K is the number of results to return (default 10).
	K int
	// MaxLinkHops caps link-edge traversals when checking tuple
	// connectivity (default 2).
	MaxLinkHops int
	// PerDocPerTerm beams the number of matches considered per term within
	// one document (default 8). Raising it trades latency for exactness.
	PerDocPerTerm int
	// DisableCrossDoc turns off tuples spanning two link-connected
	// documents; the zero value keeps them on (Definition 4's
	// connectivity-by-data-graph requirement).
	DisableCrossDoc bool
	// Parallelism is the number of goroutines the (term × shard) match
	// fetch scatters over (default runtime.GOMAXPROCS(0); 1 fetches
	// sequentially). The rank scan is always sequential, so results and
	// Stats are identical at every setting.
	Parallelism int
	// Metrics, when non-nil, accumulates search counters and latency into
	// the shared family set. Nil (the default) skips all metric work.
	Metrics *Metrics
	// Trace, when non-nil, is filled with this search's execution trace
	// (scatter dimensions, phase timings, wave-by-wave threshold
	// evolution). Nil skips all trace work; results are identical.
	Trace *Trace
}

func (o *Options) defaults() {
	if o.K <= 0 {
		o.K = 10
	}
	if o.MaxLinkHops <= 0 {
		o.MaxLinkHops = 2
	}
	if o.PerDocPerTerm <= 0 {
		o.PerDocPerTerm = 8
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
}

// Result is one ranked tuple: node i satisfies query term i.
type Result struct {
	Nodes        []xmldoc.NodeRef
	Paths        []pathdict.PathID
	Score        float64
	ContentScore float64
	Compactness  float64
}

// Stats reports how much work the TA loop did; UnitsScanned <
// UnitsCandidates demonstrates threshold-based early termination. The scan
// is sequential, so every counter is a function of the query and the data
// alone, the same at any Parallelism.
type Stats struct {
	// UnitsCandidates is the number of candidate units (documents or
	// link-joined document pairs) with full term coverage.
	UnitsCandidates int
	// UnitsScanned is how many of them were materialized before the
	// threshold condition stopped the scan.
	UnitsScanned int
	// TuplesScored counts scored (connected) tuples. Tuples the
	// branch-and-bound proves cannot enter the top-k are never scored.
	TuplesScored int
	// Waves is the number of TA waves the scan ran.
	Waves int
	// EarlyTerminated reports that the TA threshold stopped the scan
	// before the candidate list was drained.
	EarlyTerminated bool
}

// Searcher executes top-k queries over an index and a data graph.
type Searcher struct {
	ix *index.Index
	g  *graph.Graph
}

// New returns a Searcher. A nil graph is replaced by an empty overlay (tree
// edges only), so same-document tuples still connect and score.
func New(ix *index.Index, g *graph.Graph) *Searcher {
	if g == nil {
		g = graph.New(ix.Collection(), graph.DiscoverOptions{}, nil)
	}
	return &Searcher{ix: ix, g: g}
}

// Search returns the top-k result tuples of q, best first. Ties break
// deterministically by node order.
func (s *Searcher) Search(q query.Query, opts Options) ([]Result, error) {
	rs, _, err := s.SearchStats(q, opts)
	return rs, err
}

// SearchStats is Search with TA work counters.
func (s *Searcher) SearchStats(q query.Query, opts Options) ([]Result, Stats, error) {
	opts.defaults()
	if len(q.Terms) == 0 {
		return nil, Stats{}, fmt.Errorf("topk: empty query")
	}
	// Instrumentation is gated on the nil checks so the disabled path does
	// no metric or trace work (and no allocations) at all.
	instrumented := opts.Metrics != nil || opts.Trace != nil
	var t0, t1 time.Time
	if instrumented {
		t0 = time.Now()
	}
	matches, err := s.fetchMatches(q, opts.Parallelism)
	if err != nil {
		return nil, Stats{}, err
	}
	if instrumented {
		t1 = time.Now()
	}
	rs, st := s.rank(matches, opts)
	if instrumented {
		t2 := time.Now()
		tasks := len(q.Terms) * s.ix.NumShards()
		if tr := opts.Trace; tr != nil {
			tr.Terms = len(q.Terms)
			tr.Shards = s.ix.NumShards()
			tr.FetchTasks = tasks
			tr.PerTermMatches = make([]int, len(matches))
			for i, ms := range matches {
				tr.PerTermMatches[i] = len(ms)
			}
			tr.FetchNs = t1.Sub(t0).Nanoseconds()
			tr.RankNs = t2.Sub(t1).Nanoseconds()
		}
		if m := opts.Metrics; m != nil {
			m.observe(st, tasks, t2.Sub(t0).Seconds())
		}
	}
	return rs, st, nil
}

// fetchMatches evaluates every query term against the index, scattering
// (term × shard) evaluations across at most parallelism goroutines (the
// index is immutable but for its internally synchronized term cache) and
// gathering per term in shard order — shard ranges are disjoint and
// increasing, so the concatenation is MatchTerm's exact answer. Errors
// surface in (term, shard) order so the reported failure is deterministic.
func (s *Searcher) fetchMatches(q query.Query, parallelism int) ([][]index.Match, error) {
	nsh := s.ix.NumShards()
	nTasks := len(q.Terms) * nsh
	parts := make([][]index.Match, nTasks) // task (i, sh) at i*nsh+sh
	errs := make([]error, nTasks)
	parallel.Do(nTasks, parallelism, func(t int) {
		parts[t], errs[t] = s.ix.MatchTermShard(q.Terms[t/nsh], t%nsh)
	})
	for t, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("topk: term %d: %w", t/nsh, err)
		}
	}
	matches := make([][]index.Match, len(q.Terms))
	for i := range q.Terms {
		if nsh == 1 {
			matches[i] = parts[i]
			continue
		}
		total := 0
		for sh := 0; sh < nsh; sh++ {
			total += len(parts[i*nsh+sh])
		}
		matches[i] = make([]index.Match, 0, total)
		for sh := 0; sh < nsh; sh++ {
			matches[i] = append(matches[i], parts[i*nsh+sh]...)
		}
	}
	return matches, nil
}

// docGroups is the document-at-a-time view of the per-term match lists:
// the documents that can take part in a tuple, ascending, each with one
// run per term. A run within the beam indexes its term's list in place; a
// longer one is copied into the search's own beams scratch, sorted and
// cut there, because the lists are the index's shared, read-only cached
// answers.
type docGroups struct {
	matches [][]index.Match
	docs    []xmldoc.DocID
	runs    []termRun     // runs[g*m+i]: document g's run of term i
	beams   []index.Match // the cut runs, each sorted by descending score
}

// termRun is one document's beam for term i, and the best score in it (0
// when the run is empty; scores are non-negative): beams[lo:hi] when cut
// is set, else matches[i][lo:hi].
type termRun struct {
	lo, hi int
	best   float64
	cut    bool
}

func (gs *docGroups) run(g, i int) termRun { return gs.runs[g*len(gs.matches)+i] }

// matchesOf returns the matches of term i's run r.
func (gs *docGroups) matchesOf(i int, r termRun) []index.Match {
	if r.cut {
		return gs.beams[r.lo:r.hi]
	}
	return gs.matches[i][r.lo:r.hi]
}

// groupByDoc merges the per-term match lists, each already in (doc, Dewey)
// order, into document groups in one k-way pass. A document keeps its runs
// when it matches every term, or, with pairs set, when a link edge touches
// it and may still pair it with another document; any other document
// cannot take part in a tuple and is dropped. A run longer than beam is cut
// to its beam strongest matches, sorted by descending score in the beams
// scratch.
func (s *Searcher) groupByDoc(matches [][]index.Match, beam int, pairs bool) docGroups {
	m := len(matches)
	gs := docGroups{matches: matches}
	pos := make([]int, m)
	cur := make([]termRun, m)
	for {
		var doc xmldoc.DocID
		found := false
		for i, ms := range matches {
			if pos[i] < len(ms) && (!found || ms[pos[i]].Ref.Doc < doc) {
				doc, found = ms[pos[i]].Ref.Doc, true
			}
		}
		if !found {
			return gs
		}
		full := true
		for i, ms := range matches {
			lo := pos[i]
			for pos[i] < len(ms) && ms[pos[i]].Ref.Doc == doc {
				pos[i]++
			}
			cur[i] = termRun{lo: lo, hi: pos[i]}
			full = full && pos[i] > lo
		}
		if !full && (!pairs || s.g.TreeOnly(doc)) {
			continue
		}
		for i := range cur {
			cur[i] = gs.beamRun(i, cur[i], beam)
		}
		gs.docs = append(gs.docs, doc)
		gs.runs = append(gs.runs, cur...)
	}
}

// beamRun cuts term i's run r to its beam strongest matches and records
// its best score. Only a run longer than the beam is sorted: below it, the
// order inside a run changes no result, because the heap's order is
// total. The sort runs on a copy in gs.beams, never on the shared list;
// the copy keeps the list's order, so the sort's outcome, ties included,
// is the one an in-place sort would give.
func (gs *docGroups) beamRun(i int, r termRun, beam int) termRun {
	if r.hi-r.lo > beam {
		lo := len(gs.beams)
		gs.beams = append(gs.beams, gs.matches[i][r.lo:r.hi]...)
		slices.SortFunc(gs.beams[lo:], func(a, b index.Match) int { return cmp.Compare(b.Score, a.Score) })
		gs.beams = gs.beams[:lo+beam]
		r = termRun{lo: lo, hi: lo + beam, cut: true}
	}
	for _, mt := range gs.matchesOf(i, r) {
		r.best = max(r.best, mt.Score)
	}
	return r
}

// candUnit is a candidate unit for the TA loop: one document group, or two
// link-joined ones, whose matches together cover every term, with an upper
// bound on the score of any of its tuples.
type candUnit struct {
	a, b  int // group indexes; b < 0 for a single-document unit
	bound float64
}

// units lists the candidate units of gs: every group that covers all terms
// and, when pairs is set, every pair of link-joined groups that covers
// them together. A pair's partners come from its documents' own edge
// lists, so the cost follows the groups, not the edge count.
func (s *Searcher) units(gs *docGroups, pairs bool) []candUnit {
	m := len(gs.matches)
	var units []candUnit
	var partners []xmldoc.DocID
	for a, doc := range gs.docs {
		bound, full := 0.0, true
		for i := 0; i < m && full; i++ {
			r := gs.run(a, i)
			full = r.hi > r.lo
			bound += r.best
		}
		if full {
			units = append(units, candUnit{a: a, b: -1, bound: bound})
		}
		if !pairs {
			continue
		}
		partners = s.g.LinkedDocs(partners[:0], doc)
		for _, other := range partners {
			if other < doc {
				continue
			}
			b, ok := slices.BinarySearch(gs.docs[a+1:], other)
			if !ok {
				continue
			}
			b += a + 1
			bound, full := 0.0, true
			for i := 0; i < m && full; i++ {
				ra, rb := gs.run(a, i), gs.run(b, i)
				full = ra.hi > ra.lo || rb.hi > rb.lo
				bound += max(ra.best, rb.best)
			}
			if full {
				units = append(units, candUnit{a: a, b: b, bound: bound})
			}
		}
	}
	return units
}

// compareUnits is the claim order: bound descending, then the documents
// ascending, a single document before the pairs it starts. Units are
// distinct, so the order is total and the scan order deterministic.
func (gs *docGroups) compareUnits(u, v candUnit) int {
	if u.bound != v.bound {
		return cmp.Compare(v.bound, u.bound)
	}
	if c := cmp.Compare(gs.docs[u.a], gs.docs[v.a]); c != 0 {
		return c
	}
	switch {
	case u.b == v.b:
		return 0
	case u.b < 0:
		return -1
	case v.b < 0:
		return 1
	}
	return cmp.Compare(gs.docs[u.b], gs.docs[v.b])
}

// rank runs the TA loop over matches, one (doc, Dewey)-ordered list per
// term. The lists are read-only — with one shard they are the index's
// cached answers — so rank never writes into them: a run longer than the
// beam is sorted in a copy (docGroups.beamRun).
func (s *Searcher) rank(matches [][]index.Match, opts Options) ([]Result, Stats) {
	pairs := !opts.DisableCrossDoc
	gs := s.groupByDoc(matches, opts.PerDocPerTerm, pairs)
	units := s.units(&gs, pairs)
	slices.SortFunc(units, gs.compareUnits)

	// TA loop over geometric waves: scan units[pos:end) in order, then test
	// the threshold against the first unscanned unit's bound.
	stats := Stats{UnitsCandidates: len(units)}
	sc := newScanner(s, &gs, &opts)
	for pos := 0; pos < len(units); {
		if t, ok := sc.heap.kth(); ok && t >= units[pos].bound {
			stats.EarlyTerminated = true
			break // TA threshold: every remaining unit is bounded lower
		}
		end := 2 * pos // wave boundaries at 1, 2, 4, 8, … scanned units
		if pos == 0 {
			end = 1
		}
		if end > len(units) {
			end = len(units)
		}
		for _, u := range units[pos:end] {
			sc.enumerate(u)
		}
		stats.UnitsScanned += end - pos
		stats.Waves++
		if tr := opts.Trace; tr != nil {
			kth, _ := sc.heap.kth()
			next := 0.0
			if end < len(units) {
				next = units[end].bound
			}
			tr.Waves = append(tr.Waves, WaveTrace{
				Units: end - pos, CumUnits: end, KthScore: kth, NextBound: next,
			})
		}
		pos = end
	}
	stats.TuplesScored = sc.scored
	if tr := opts.Trace; tr != nil {
		tr.UnitsCandidates = stats.UnitsCandidates
		tr.UnitsScanned = stats.UnitsScanned
		tr.TuplesScored = stats.TuplesScored
		tr.EarlyTerminated = stats.EarlyTerminated
		tr.KthScore, _ = sc.heap.kth()
	}
	return ownRefs(sc.heap.sorted()), stats
}

// ownRefs copies the results' Dewey ids into one slab of their own. The
// match lists they come from are the index's cached answers; a result a
// session holds must not keep a cached entry's storage alive after the
// cache drops it.
func ownRefs(rs []Result) []Result {
	xmldoc.OwnDeweys(func(yield func(*xmldoc.NodeRef) bool) {
		for _, x := range rs {
			for i := range x.Nodes {
				if !yield(&x.Nodes[i]) {
					return
				}
			}
		}
	})
	return rs
}

// scanner enumerates the tuples of candidate units into the top-k heap. It
// owns the scratch a tuple is built and scored in, so a tuple allocates
// nothing unless it enters the heap.
//
// Match scores are non-negative and compactness is at most 1, so a tuple
// scores at most its content sum. A tuple whose content sum is strictly
// below the heap's k-th score therefore cannot enter, and is skipped
// before the graph is consulted; so is every completion of a partial
// tuple whose content plus the best remaining scores, times the best
// compactness its nodes so far allow, is below it. The heap only
// ever raises its k-th score, so a skipped tuple would also have been
// rejected later: the kept set is exactly the unpruned one.
type scanner struct {
	g      *graph.Graph
	gs     *docGroups
	opts   *Options
	heap   *topHeap
	tuple  []index.Match
	best   []float64 // per term, the unit's best score
	tree   bool      // the unit is one document no link edge touches
	cand   Result    // Nodes and Paths are scratch
	scored int
}

func newScanner(s *Searcher, gs *docGroups, opts *Options) *scanner {
	m := len(gs.matches)
	return &scanner{
		g: s.g, gs: gs, opts: opts, heap: newTopHeap(opts.K),
		tuple: make([]index.Match, m),
		best:  make([]float64, m),
		cand:  Result{Nodes: make([]xmldoc.NodeRef, m), Paths: make([]pathdict.PathID, m)},
	}
}

// enumerate scores the tuples of a candidate unit. In a two-document pair
// unit, tuples whose nodes all live in one document are skipped: the
// single-document unit of that document (which must exist, since such a
// tuple proves full term coverage there) already enumerated them, and
// re-emitting duplicates would let one tuple occupy several top-k slots
// and corrupt the k-th threshold.
func (sc *scanner) enumerate(u candUnit) {
	for i := range sc.best {
		sc.best[i] = sc.gs.run(u.a, i).best
		if u.b >= 0 {
			sc.best[i] = max(sc.best[i], sc.gs.run(u.b, i).best)
		}
	}
	// A pair unit's documents are linked, so only a single document can be
	// tree-only.
	sc.tree = sc.g.TreeOnly(sc.gs.docs[u.a])
	sc.extend(u, 0, 0, 0)
}

// extend fills tuple positions i.. over the unit's runs; content is the
// score sum of positions ..i-1, added in term order as scoring does.
//
// When the unit is one document that no link edge touches, distances are
// tree distances, a metric, so the minimum spanning tree SteinerWeight
// computes weighs at least the largest distance between two of its nodes:
// span, the largest among positions ..i-1, caps the compactness of every
// completion.
func (sc *scanner) extend(u candUnit, i int, content float64, span int) {
	if t, ok := sc.heap.kth(); ok {
		bound := content
		for _, b := range sc.best[i:] {
			bound += b
		}
		if span > 0 {
			bound *= graph.Compactness(span)
		}
		if bound < t {
			return
		}
	}
	if i == len(sc.tuple) {
		if u.b >= 0 && singleDoc(sc.tuple) {
			return
		}
		if sc.score(sc.tuple) {
			sc.scored++
			sc.heap.push(sc.cand)
		}
		return
	}
	for _, g := range [2]int{u.a, u.b} {
		if g < 0 {
			continue
		}
		r := sc.gs.run(g, i)
		for _, mt := range sc.gs.matchesOf(i, r) {
			sc.tuple[i] = mt
			s := span
			if sc.tree {
				for _, prev := range sc.tuple[:i] {
					s = max(s, dewey.TreeDistance(prev.Ref.Dewey, mt.Ref.Dewey))
				}
			}
			sc.extend(u, i+1, content+mt.Score, s)
		}
	}
}

// singleDoc reports whether every node of the tuple lives in one document.
func singleDoc(tuple []index.Match) bool {
	for _, m := range tuple[1:] {
		if m.Ref.Doc != tuple[0].Ref.Doc {
			return false
		}
	}
	return true
}

// score scores tuple into sc.cand, whose node and path slices are scratch;
// false means the tuple is not connected (Definition 4).
func (sc *scanner) score(tuple []index.Match) bool {
	content := 0.0
	for i, m := range tuple {
		sc.cand.Nodes[i] = m.Ref
		sc.cand.Paths[i] = m.Path
		content += m.Score
	}
	w, connected := sc.g.SteinerWeight(sc.cand.Nodes, sc.opts.MaxLinkHops)
	if !connected {
		return false
	}
	sc.cand.ContentScore = content
	sc.cand.Compactness = graph.Compactness(w)
	sc.cand.Score = content * sc.cand.Compactness
	return true
}

func lessTuple(a, b []xmldoc.NodeRef) bool {
	for i := range a {
		if !a[i].Equal(b[i]) {
			return a[i].Less(b[i])
		}
	}
	return false
}

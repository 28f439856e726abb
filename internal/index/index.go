// Package index implements SEDA's full-text indexes (paper §4, §5).
//
// Two logical indexes are built over a store.Collection:
//
//   - The node index: term → postings of the nodes whose *direct* text (or
//     attribute value) contains the term, in (doc, Dewey) order with
//     positions. This plays the role of the paper's Lucene index feeding
//     the top-k search unit.
//
//   - The context index of Figure 8: term → distinct paths the term occurs
//     in, with occurrence counts. "This full-text index contains all
//     keywords that appear in the data set as content, as well as all the
//     tag names. Each distinct path is treated as a virtual document."
//     It powers the context summary (§5) without touching the node index.
//
// The package also exposes MatchTerm, which evaluates one query term
// (context, search_query) to the set of satisfying nodes per Definition 3.
//
// # Sharding
//
// An Index is horizontally fragmented into one or more Shards, each a
// self-contained node+context index over a contiguous run of documents.
// A build lays out the base shards by a deterministic partition in
// document order (shard s of N covers [s·D/N, (s+1)·D/N)); an ingest
// appends a segment, a small shard over just the added documents (see
// ingest.go). Per-node structures — posting lists and per-path node
// lists — live only in their shard; query evaluation scatters across
// shards (MatchTermShard) and gathers by concatenation, which preserves
// global (doc, Dewey) order because shard ranges are disjoint and
// increasing. The corpus-global aggregates — the vocabulary, document
// frequencies (the IDF input, which must be global for scores to be
// shard-count-independent), and the merged context index — are derived
// from the base shards at construction; segments and the tombstone mask
// are added and subtracted where they are read (DocFreq, vocab,
// contextPaths), so no write copies a corpus-sized map. With one base
// shard (the default) the aggregates alias the shard's own maps, so the
// single-shard layout costs nothing extra.
//
// Every read answer is byte-identical at any shard count; the shard
// equivalence tests in internal/core pin this.
//
// The package is annotated //seda:hot: sedalint's nilgate analyzer
// enforces the nil-gated observability contract on every hot path here.
//
//seda:hot
package index

import (
	"cmp"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"seda/internal/dewey"
	"seda/internal/fulltext"
	"seda/internal/parallel"
	"seda/internal/pathdict"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// Posting records one node whose direct text contains a term.
type Posting struct {
	Ref       xmldoc.NodeRef
	Path      pathdict.PathID
	Positions []int32 // token positions of the term within the node's direct text
}

// Shard is one horizontal fragment of an Index: a self-contained node and
// context index over the contiguous document range [lo, hi). Shards are
// immutable once built and opaque outside this package; they are created
// by BuildSharded, DecodeShard, and the segments of the ingest path.
// Shards are shared between engine generations, so the immutability
// contract is enforced by sedalint (genimmutable).
//
//seda:immutable
type Shard struct {
	lo, hi int // document-id range [lo, hi)

	// Resident summary: always decoded, sized by the vocabulary and the
	// path roster rather than the posting volume. Everything the scatter
	// planner, the Figure-8 context summary, and /debug/stats need lives
	// here, so those paths never read a run.
	terms        []string       // sorted shard vocabulary
	termDocFreq  map[string]int // # shard documents containing term
	pathTerms    map[string]map[pathdict.PathID]int
	termPostings []int             // per-term posting counts, aligned with terms
	nPostings    int               // total postings across all terms
	pathIDs      []pathdict.PathID // sorted distinct paths with nodes in this shard
	pathCounts   []int             // per-path node counts, aligned with pathIDs

	// Residency state. data holds the whole decoded state — every posting
	// list and per-path node list — of a shard built in memory, or loaded
	// or bound without a pager. backing, when set, points at the shard's
	// encoded section inside the snapshot file (see backing.go), and runs
	// locates each term's and path's run inside that section's lazy block.
	// The residency invariant: data != nil || backing != nil, and runs is
	// set whenever backing is. A shard without data is served run by run:
	// a fetch reads, verifies and decodes only the runs it touches, cached
	// by the pager under its byte budget. Readers snapshot data with one
	// atomic load and the decoded maps are immutable, so the resident path
	// takes no lock at all.
	data    atomic.Pointer[shardData]
	backing atomic.Pointer[BackingRef]
	runs    atomic.Pointer[runTable]

	// pager, when set, caches this shard's decoded runs under its budget.
	pager atomic.Pointer[Pager]
	// encBytes caches the shard's exact encoded payload size in bytes
	// (0 = not yet computed).
	encBytes atomic.Int64

	// fetches counts MatchTermShard evaluations served by this shard since
	// build or load. Runtime-only observability state: it is not persisted
	// in snapshots and plays no part in shard equality.
	fetches atomic.Uint64
}

// shardData is the whole decoded state of a resident shard. It is
// immutable once published: binding a shard to its section under a pager
// drops the pointer, never the maps, so readers holding a snapshot keep a
// consistent view.
type shardData struct {
	postings  map[string][]Posting // node index, (doc, Dewey)-ordered
	pathNodes map[pathdict.PathID][]xmldoc.NodeRef
}

// Docs returns the number of documents in the shard's range.
func (sh *Shard) Docs() int { return sh.hi - sh.lo }

// postings returns term's posting list in this shard (nil when the
// vocabulary lacks it). A resident shard answers with one map lookup; a
// shard served by runs fetches the term's run (see run). The returned
// slice must not be modified. The error is always nil for a resident
// shard; only a run read can fail (the snapshot file is outside the
// process's control), and then with an error classified under
// snapcodec.ErrCorrupt — never a panic.
func (sh *Shard) postings(term string) ([]Posting, error) {
	if d := sh.data.Load(); d != nil {
		return d.postings[term], nil
	}
	i, ok := slices.BinarySearch(sh.terms, term)
	if !ok {
		return nil, nil
	}
	ps, _, err := sh.run(i)
	return ps, err
}

// nodes returns the shard's nodes at path p in (doc, Dewey) order, like
// postings for the per-path node lists.
func (sh *Shard) nodes(p pathdict.PathID) ([]xmldoc.NodeRef, error) {
	if d := sh.data.Load(); d != nil {
		return d.pathNodes[p], nil
	}
	j, ok := slices.BinarySearch(sh.pathIDs, p)
	if !ok {
		return nil, nil
	}
	_, refs, err := sh.run(len(sh.terms) + j)
	return refs, err
}

// run returns the decoded run i (see runTable) of a shard without decoded
// state: through the pager's run cache, or straight from the section when
// no pager is attached.
func (sh *Shard) run(i int) ([]Posting, []xmldoc.NodeRef, error) {
	if p := sh.pager.Load(); p != nil {
		return p.run(sh, i)
	}
	raw, err := sh.runBytes(i)
	if err != nil {
		return nil, nil, err
	}
	return sh.decodeRun(i, raw)
}

// Index holds the node and context indexes for one collection, fragmented
// into one or more document-range shards (see the package comment).
// Immutable once built (sedalint genimmutable): ingest derives a new
// Index via Extend instead of mutating a published one.
//
//seda:immutable
type Index struct {
	col    *store.Collection
	shards []*Shard // contiguous, in document order; len >= 1
	// base counts the leading shards a build or a load laid out; the rest
	// are segments appended by Extend (see ingest.go).
	base int

	// Aggregates of the base shards, physical: segments and the mask are
	// applied where they are read. With a single base shard they alias
	// the shard's own structures.
	baseTerms     []string                           // sorted term list for prefix scans
	baseDocFreq   map[string]int                     // # docs containing term, for IDF
	basePathTerms map[string]map[pathdict.PathID]int // Fig. 8 context index (content terms + tag names)

	allPaths []pathdict.PathID // every distinct live path, sorted by string

	// Masking state, all nil on an unmasked index (see tombstones.go).
	// Shard-level structures stay physical; these route read paths through
	// the live-filter only where a shard's range overlaps the dead set.
	dead      *store.Tombstones
	shardDead []bool   // aligned with shards
	deadParts []*tally // the dead documents' counts, newest last

	// cache holds this generation's term answers (termcache.go). It is the
	// index's only mutable state, and is internally synchronized.
	cache *termCache
}

// Build constructs both indexes over the collection, sharding the scan
// across runtime.GOMAXPROCS(0) goroutines.
func Build(col *store.Collection) *Index { return BuildSharded(col, 1, 0) }

// BuildSharded builds an index fragmented into the given number of
// document-range shards, scanning with at most parallelism workers in
// total. shards <= 1 yields the single-shard layout; the count is clamped
// to the number of documents. Every read answer — lookups, matches,
// scores — is byte-identical at any shard count and any parallelism.
func BuildSharded(col *store.Collection, shards, parallelism int) *Index {
	docs := col.Docs()
	n := max(min(shards, len(docs)), 1)
	p := parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	// At most min(p, n) shard builders run at once, and each splits its
	// own scan so the total concurrent scanners never exceed p —
	// Parallelism 1 really is sequential. The per-shard results are
	// deterministic, so scheduling never shows in the output.
	builders := min(p, n)
	scanPar := p / builders
	parts := make([]*Shard, n)
	parallel.Do(n, builders, func(s int) {
		lo, hi := s*len(docs)/n, (s+1)*len(docs)/n
		parts[s] = buildShardRange(docs[lo:hi], lo, scanPar)
	})
	return finishIndex(col, parts, nil)
}

// buildShardRange builds one shard over docs (whose first document has id
// lo), scanning consecutive chunks on at most workers goroutines and
// absorbing them in document order, so the shard is byte-identical to a
// sequential scan.
//
//seda:constructor
func buildShardRange(docs []*xmldoc.Document, lo int, workers int) *Shard {
	w := max(min(workers, len(docs)), 1)
	accs := make([]*shardAcc, w)
	parallel.Do(w, w, func(i int) {
		accs[i] = scanDocs(docs[i*len(docs)/w : (i+1)*len(docs)/w])
	})
	for _, a := range accs[1:] {
		accs[0].absorb(a)
	}
	return sealShard(lo, lo+len(docs), accs[0])
}

// shardAcc holds the map-backed index structures of a contiguous document
// range, with every posting list normalized: a scan's output, or a
// shard's state being extended. A shard is always a base followed by
// scans of later documents, joined by absorb.
type shardAcc struct {
	postings    map[string][]Posting
	pathTerms   map[string]map[pathdict.PathID]int
	termDocFreq map[string]int
	pathNodes   map[pathdict.PathID][]xmldoc.NodeRef

	// owned marks the pathTerms inner maps foldCounts allocated, which
	// nothing else holds yet.
	owned map[string]bool
}

func newShardAcc() *shardAcc {
	return &shardAcc{
		postings:    make(map[string][]Posting),
		pathTerms:   make(map[string]map[pathdict.PathID]int),
		termDocFreq: make(map[string]int),
		pathNodes:   make(map[pathdict.PathID][]xmldoc.NodeRef),
	}
}

// absorb appends b, whose documents all follow acc's, to acc. Lists
// concatenate back into (doc, Dewey) order and stay normalized, since the
// two sides share no document. Only acc's own maps are written: a list
// both sides hold becomes a new slice, and counts go through foldCounts,
// so nothing acc or b shares with a published shard, or with an older
// generation's globals, is ever written into.
func (acc *shardAcc) absorb(b *shardAcc) {
	for term, ps := range b.postings {
		acc.postings[term] = concat(acc.postings[term], ps)
	}
	for p, refs := range b.pathNodes {
		acc.pathNodes[p] = concat(acc.pathNodes[p], refs)
	}
	acc.foldCounts(b, 1)
}

// foldCounts adds sign × b's document frequencies and context-index
// counts to acc's, deleting entries that reach zero; a subtracted b must
// count a part of acc's documents. Like absorb it writes only acc's own
// maps: an inner count map only b holds is shared, and one both sides
// hold is copied the first time, then added to in place.
func (acc *shardAcc) foldCounts(b *shardAcc, sign int) {
	for term, n := range b.termDocFreq {
		addCount(acc.termDocFreq, term, sign*n)
	}
	for term, paths := range b.pathTerms {
		m, ok := acc.pathTerms[term]
		if !ok {
			acc.pathTerms[term] = paths
			delete(acc.owned, term)
			continue
		}
		if !acc.owned[term] {
			own := make(map[pathdict.PathID]int, len(m)+len(paths))
			maps.Copy(own, m)
			m, acc.pathTerms[term] = own, own
			if acc.owned == nil {
				acc.owned = make(map[string]bool)
			}
			acc.owned[term] = true
		}
		for p, n := range paths {
			addCount(m, p, sign*n)
		}
		if len(m) == 0 {
			delete(acc.pathTerms, term)
		}
	}
}

func addCount[K comparable](m map[K]int, k K, d int) {
	if n := m[k] + d; n != 0 {
		m[k] = n
	} else {
		delete(m, k)
	}
}

// concat returns a followed by b in a new slice, or the non-empty side
// as-is.
func concat[S ~[]E, E any](a, b S) S {
	if len(a) == 0 {
		return b
	}
	return slices.Concat(a, b)
}

// sealShard constructs the immutable Shard from accumulator maps: the
// sorted vocabulary and path roster, the summary counts, and the decoded
// state published as resident.
//
//seda:constructor
func sealShard(lo, hi int, acc *shardAcc) *Shard {
	sh := &Shard{
		lo: lo, hi: hi,
		termDocFreq: acc.termDocFreq,
		pathTerms:   acc.pathTerms,
	}
	sh.terms = make([]string, 0, len(acc.postings))
	for term := range acc.postings {
		sh.terms = append(sh.terms, term)
	}
	sort.Strings(sh.terms)
	sh.termPostings = make([]int, len(sh.terms))
	for i, t := range sh.terms {
		n := len(acc.postings[t])
		sh.termPostings[i] = n
		sh.nPostings += n
	}
	sh.pathIDs = make([]pathdict.PathID, 0, len(acc.pathNodes))
	for p := range acc.pathNodes {
		sh.pathIDs = append(sh.pathIDs, p)
	}
	slices.Sort(sh.pathIDs)
	sh.pathCounts = make([]int, len(sh.pathIDs))
	for i, p := range sh.pathIDs {
		sh.pathCounts[i] = len(acc.pathNodes[p])
	}
	sh.data.Store(&shardData{postings: acc.postings, pathNodes: acc.pathNodes})
	return sh
}

// scanDocs runs the single-threaded scan over one contiguous document
// range and normalizes the posting lists it built. Everything it touches
// outside its own maps (documents, the path dictionary, the tokenizer) is
// read-only or internally synchronized.
func scanDocs(docs []*xmldoc.Document) *shardAcc {
	acc := newShardAcc()
	lastDocForTerm := make(map[string]xmldoc.DocID)
	for _, doc := range docs {
		d := doc
		d.Walk(func(n *xmldoc.Node) bool {
			ref := store.RefOf(d, n)
			acc.pathNodes[n.Path] = append(acc.pathNodes[n.Path], ref)
			// Tag names are keywords in the context index.
			acc.bumpPathTerm(fulltext.NormalizeTerm(n.Tag), n.Path)
			if n.Text != "" {
				toks := fulltext.Tokenize(n.Text)
				var cur string
				var curPost *Posting
				for _, tk := range toks {
					acc.bumpPathTerm(tk.Term, n.Path)
					if tk.Term != cur || curPost == nil {
						acc.postings[tk.Term] = append(acc.postings[tk.Term], Posting{Ref: ref, Path: n.Path})
						curPost = &acc.postings[tk.Term][len(acc.postings[tk.Term])-1]
						cur = tk.Term
					}
					curPost.Positions = append(curPost.Positions, int32(tk.Pos))
					if last, ok := lastDocForTerm[tk.Term]; !ok || last != d.ID {
						lastDocForTerm[tk.Term] = d.ID
						acc.termDocFreq[tk.Term]++
					}
				}
			}
			return true
		})
	}
	for term, ps := range acc.postings {
		acc.postings[term] = normalizePostings(ps)
	}
	return acc
}

func (acc *shardAcc) bumpPathTerm(term string, p pathdict.PathID) {
	if term == "" {
		return
	}
	m, ok := acc.pathTerms[term]
	if !ok {
		m = make(map[pathdict.PathID]int)
		acc.pathTerms[term] = m
	}
	m[p]++
}

// newIndex assembles the unmasked Index over base followed by segs,
// deriving the base aggregates and the path list. With a single base
// shard the aggregates alias the shard's structures — the default layout
// pays no merge cost or memory; with several, the shards' counts are
// absorbed into fresh top-level maps.
//
//seda:constructor
func newIndex(col *store.Collection, base, segs []*Shard) *Index {
	ix := &Index{col: col, shards: slices.Concat(base, segs), base: len(base), cache: newTermCache(termCacheBudget)}
	if len(base) == 1 {
		sh := base[0]
		ix.baseTerms = sh.terms
		ix.baseDocFreq = sh.termDocFreq
		ix.basePathTerms = sh.pathTerms
	} else {
		g := &shardAcc{termDocFreq: make(map[string]int), pathTerms: make(map[string]map[pathdict.PathID]int)}
		for _, sh := range base {
			g.absorb(&shardAcc{termDocFreq: sh.termDocFreq, pathTerms: sh.pathTerms})
		}
		ix.baseDocFreq, ix.basePathTerms = g.termDocFreq, g.pathTerms
		ix.baseTerms = slices.Sorted(maps.Keys(ix.baseDocFreq))
	}

	var paths []pathdict.PathID
	for _, sh := range ix.shards {
		paths = append(paths, sh.pathIDs...) // resident roster: assembling never pages
	}
	slices.Sort(paths)
	ix.allPaths = sortByPath(col.Dict(), slices.Compact(paths))
	return ix
}

// sortByPath sorts ps by path string in place, fetching each string from
// the dictionary once, and returns it.
func sortByPath(dict *pathdict.Dict, ps []pathdict.PathID) []pathdict.PathID {
	type keyed struct {
		s string
		p pathdict.PathID
	}
	ks := make([]keyed, len(ps))
	for i, p := range ps {
		ks[i] = keyed{dict.Path(p), p}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.s, b.s) })
	for i, k := range ks {
		ps[i] = k.p
	}
	return ps
}

func normalizePostings(ps []Posting) []Posting {
	slices.SortFunc(ps, func(a, b Posting) int {
		return cmp.Or(cmp.Compare(a.Ref.Doc, b.Ref.Doc), dewey.Compare(a.Ref.Dewey, b.Ref.Dewey))
	})
	out := ps[:0]
	for _, p := range ps {
		if len(out) > 0 && out[len(out)-1].Ref.Equal(p.Ref) {
			last := &out[len(out)-1]
			last.Positions = append(last.Positions, p.Positions...)
			continue
		}
		out = append(out, p)
	}
	for i := range out {
		slices.Sort(out[i].Positions)
	}
	return out
}

// Collection returns the indexed collection.
func (ix *Index) Collection() *store.Collection { return ix.col }

// NumShards returns the number of document-range shards, base shards and
// segments together.
func (ix *Index) NumShards() int { return len(ix.shards) }

// NumBaseShards returns the number of base shards: the layout a build or
// a load chose, before the segments ingests appended.
func (ix *Index) NumBaseShards() int { return ix.base }

// ShardStats describes one shard for observability surfaces
// (/debug/stats, the bench/ layer metrics).
type ShardStats struct {
	// Docs is the number of documents in the shard's range [Lo, Hi).
	Lo, Hi, Docs int
	// Terms is the shard's node-index vocabulary size.
	Terms int
	// Postings is the shard's total posting count.
	Postings int
	// Bytes is the shard's exact encoded (index.<n> section) size,
	// derived from the encoded section rather than estimated.
	Bytes int64
	// Resident reports whether the shard holds its whole decoded state:
	// true without a pager and for a shard with no snapshot section, false
	// for a shard served run by run from its section (whose cached runs
	// the pager accounts for).
	Resident bool
	// Fetches counts term-match evaluations (scatter tasks) served by the
	// shard since build or load — the scatter-fanout view of query load.
	Fetches uint64
	// Segment marks a shard an ingest appended after the base layout.
	Segment bool
}

// stats reads entirely from the resident summary and the cached encoded
// size: reporting never reads a run.
func (sh *Shard) stats() ShardStats {
	return ShardStats{
		Lo: sh.lo, Hi: sh.hi, Docs: sh.hi - sh.lo,
		Terms:    len(sh.terms),
		Postings: sh.nPostings,
		Bytes:    sh.exactBytes(),
		Resident: sh.data.Load() != nil,
		Fetches:  sh.fetches.Load(),
	}
}

// ShardStats reports per-shard document, term, posting, and byte counts
// in shard order: the base shards, then the segments.
func (ix *Index) ShardStats() []ShardStats {
	out := make([]ShardStats, len(ix.shards))
	for i, sh := range ix.shards {
		out[i] = sh.stats()
		out[i].Segment = i >= ix.base
	}
	return out
}

// lookupPrefixShard returns the merged postings of shard s's terms that
// start with prefix, in (doc, Dewey) order, by a k-way merge of the
// already-sorted per-term lists. The sorted vocabulary scan is resident;
// only the runs of the matching terms are fetched.
func (ix *Index) lookupPrefixShard(s int, prefix string) ([]Posting, error) {
	sh := ix.shards[s]
	var lists [][]Posting
	lo, hi := prefixRange(sh.terms, prefix)
	for _, term := range sh.terms[lo:hi] {
		ps, err := sh.postings(term)
		if err != nil {
			return nil, err
		}
		if ps := ix.livePostings(s, ps); len(ps) > 0 {
			lists = append(lists, ps)
		}
	}
	return mergePostings(lists), nil
}

// mergePostings k-way-merges sorted posting lists into one list in (doc,
// Dewey) order, combining postings for the same node (same node, several
// terms) by merging their sorted position lists — the same result
// normalizePostings produces from the concatenation, without the global
// re-sort.
func mergePostings(lists [][]Posting) []Posting {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		// Already normalized; share the list (callers must not modify).
		return lists[0]
	}
	// A loser-tree-free binary heap over list heads. Ties on equal refs
	// break by list index so the merge order (and hence the position-merge
	// order) is deterministic.
	type head struct{ list, pos int }
	less := func(a, b head) bool {
		pa, pb := &lists[a.list][a.pos], &lists[b.list][b.pos]
		if !pa.Ref.Equal(pb.Ref) {
			return pa.Ref.Less(pb.Ref)
		}
		return a.list < b.list
	}
	heap := make([]head, 0, len(lists))
	total := 0
	for i, l := range lists {
		total += len(l)
		heap = append(heap, head{list: i})
	}
	// Heapify + sift helpers over the tiny fixed-shape heap.
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(heap) && less(heap[l], heap[min]) {
				min = l
			}
			if r < len(heap) && less(heap[r], heap[min]) {
				min = r
			}
			if min == i {
				return
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}

	out := make([]Posting, 0, total)
	for len(heap) > 0 {
		h := heap[0]
		p := lists[h.list][h.pos]
		if len(out) > 0 && out[len(out)-1].Ref.Equal(p.Ref) {
			last := &out[len(out)-1]
			last.Positions = mergePositions(last.Positions, p.Positions)
		} else {
			// Copy so the merged posting never aliases (and later mutates)
			// a source list's Positions slice.
			cp := p
			cp.Positions = append([]int32(nil), p.Positions...)
			out = append(out, cp)
		}
		if h.pos+1 < len(lists[h.list]) {
			heap[0].pos++
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
	}
	return out
}

// mergePositions merges two sorted position slices into dst (already
// sorted), preserving duplicates.
func mergePositions(dst, src []int32) []int32 {
	if len(src) == 0 {
		return dst
	}
	if len(dst) == 0 || dst[len(dst)-1] <= src[0] {
		return append(dst, src...) // common fast path: disjoint ranges
	}
	out := make([]int32, 0, len(dst)+len(src))
	i, j := 0, 0
	for i < len(dst) && j < len(src) {
		if dst[i] <= src[j] {
			out = append(out, dst[i])
			i++
		} else {
			out = append(out, src[j])
			j++
		}
	}
	out = append(out, dst[i:]...)
	out = append(out, src[j:]...)
	return out
}

// DocFreq returns the number of live documents containing term
// (corpus-global — it feeds IDF, so scores are independent of the shard
// layout): the base count, plus each segment's, minus each dead part's.
func (ix *Index) DocFreq(term string) int {
	n := ix.baseDocFreq[term]
	for _, sh := range ix.shards[ix.base:] {
		n += sh.termDocFreq[term]
	}
	for _, d := range ix.deadParts {
		n -= d.termDocFreq[term]
	}
	return n
}

// vocab returns the live vocabulary's terms starting with prefix, in
// sorted order: the terms of the base and the segments whose live
// document frequency is positive. An index with neither segments nor a
// mask answers with a subslice of the base vocabulary, which callers must
// not modify.
func (ix *Index) vocab(prefix string) []string {
	lo, hi := prefixRange(ix.baseTerms, prefix)
	if ix.base == len(ix.shards) && ix.deadParts == nil {
		return ix.baseTerms[lo:hi:hi]
	}
	out := slices.Clone(ix.baseTerms[lo:hi])
	for _, sh := range ix.shards[ix.base:] {
		lo, hi := prefixRange(sh.terms, prefix)
		out = append(out, sh.terms[lo:hi]...)
	}
	slices.Sort(out)
	return slices.DeleteFunc(slices.Compact(out), func(t string) bool { return ix.DocFreq(t) <= 0 })
}

// prefixRange returns the bounds of the run of sorted terms that start
// with prefix.
func prefixRange(sorted []string, prefix string) (lo, hi int) {
	lo = sort.SearchStrings(sorted, prefix)
	hi = lo
	for hi < len(sorted) && strings.HasPrefix(sorted[hi], prefix) {
		hi++
	}
	return lo, hi
}

// contextPaths returns the live path counts of the context-index terms w
// selects — the term itself, or every term it prefixes — summed: the
// base's and the segments' counts minus the dead parts', without the
// paths no live occurrence is left at. The result is fresh.
func (ix *Index) contextPaths(w fulltext.Word) map[pathdict.PathID]int {
	out := make(map[pathdict.PathID]int, len(ix.basePathTerms[w.Term]))
	add := func(pathTerms map[string]map[pathdict.PathID]int, sign int) {
		if !w.Prefix {
			for p, c := range pathTerms[w.Term] {
				out[p] += sign * c
			}
			return
		}
		// The context index holds the node vocabulary and the tag names,
		// so one scan of its terms covers both.
		for term, paths := range pathTerms {
			if strings.HasPrefix(term, w.Term) {
				for p, c := range paths {
					out[p] += sign * c
				}
			}
		}
	}
	add(ix.basePathTerms, 1)
	for _, sh := range ix.shards[ix.base:] {
		add(sh.pathTerms, 1)
	}
	for _, d := range ix.deadParts {
		add(d.pathTerms, -1)
	}
	if ix.deadParts != nil {
		maps.DeleteFunc(out, func(_ pathdict.PathID, n int) bool { return n == 0 })
	}
	return out
}

// pathCountAt returns the number of the shard's nodes at path p, answered
// from the resident roster (never pages).
func (sh *Shard) pathCountAt(p pathdict.PathID) int {
	i := sort.Search(len(sh.pathIDs), func(i int) bool { return sh.pathIDs[i] >= p })
	if i < len(sh.pathIDs) && sh.pathIDs[i] == p {
		return sh.pathCounts[i]
	}
	return 0
}

// nodesAtPathLen is the number of live nodes at path p across all shards;
// it reads only the resident roster (and, when masked, the dead parts'
// path counts).
func (ix *Index) nodesAtPathLen(p pathdict.PathID) int {
	n := 0
	for _, sh := range ix.shards {
		n += sh.pathCountAt(p)
	}
	for _, d := range ix.deadParts {
		n -= d.pathCount[p]
	}
	return n
}

// AllPaths returns every distinct path with a live node, sorted by string
// form. The returned slice must not be modified.
func (ix *Index) AllPaths() []pathdict.PathID { return ix.allPaths }

// PathsForExpr computes the distinct paths an expression can match in,
// combining per-term path sets: intersection across conjuncts and phrase
// members, union across disjuncts (paper §5: "compute the set of distinct
// paths for phrase queries, as well as other search queries with multiple
// keywords connected with conjunction or disjunction"). MatchAll and
// purely negative expressions return every path.
func (ix *Index) PathsForExpr(e fulltext.Expr) map[pathdict.PathID]int {
	switch t := e.(type) {
	case fulltext.Word:
		return ix.contextPaths(t)
	case fulltext.Phrase:
		return ix.intersectPaths(wordExprs(t.TermsSeq))
	case fulltext.And:
		return ix.intersectPaths(t.Children)
	case fulltext.Or:
		out := make(map[pathdict.PathID]int)
		for _, c := range t.Children {
			for p, n := range ix.PathsForExpr(c) {
				out[p] += n
			}
		}
		return out
	case fulltext.Not, fulltext.MatchAll:
		out := make(map[pathdict.PathID]int)
		for _, p := range ix.allPaths {
			out[p] = ix.nodesAtPathLen(p)
		}
		return out
	}
	return nil
}

func (ix *Index) intersectPaths(children []fulltext.Expr) map[pathdict.PathID]int {
	var acc map[pathdict.PathID]int
	for _, c := range children {
		if _, isNot := c.(fulltext.Not); isNot {
			continue // negative conjuncts do not restrict the path set
		}
		m := ix.PathsForExpr(c)
		if acc == nil {
			acc = copyPathCounts(m)
			continue
		}
		for p := range acc {
			if n, ok := m[p]; ok {
				acc[p] += n
			} else {
				delete(acc, p)
			}
		}
	}
	if acc == nil {
		acc = make(map[pathdict.PathID]int)
	}
	return acc
}

func wordExprs(terms []string) []fulltext.Expr {
	out := make([]fulltext.Expr, len(terms))
	for i, t := range terms {
		out[i] = fulltext.Word{Term: t}
	}
	return out
}

func copyPathCounts(m map[pathdict.PathID]int) map[pathdict.PathID]int {
	out := make(map[pathdict.PathID]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// validateShards checks that shards form a contiguous document-order
// partition of col.
func validateShards(col *store.Collection, shards []*Shard) error {
	if len(shards) == 0 {
		return fmt.Errorf("index: no shards")
	}
	want := 0
	for i, sh := range shards {
		if sh.lo != want || sh.hi < sh.lo {
			return fmt.Errorf("index: shard %d covers [%d, %d), want lo %d", i, sh.lo, sh.hi, want)
		}
		want = sh.hi
	}
	if want != col.NumDocs() {
		return fmt.Errorf("index: shards cover %d documents, collection has %d", want, col.NumDocs())
	}
	return nil
}

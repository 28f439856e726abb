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
// self-contained node+context index over a contiguous run of documents
// (deterministic partition by document order: shard s of N covers
// [s·D/N, (s+1)·D/N)). Per-node structures — posting lists and per-path
// node lists — live only in their shard; query evaluation scatters across
// shards (MatchTermShard) and gathers by concatenation, which preserves
// global (doc, Dewey) order because shard ranges are disjoint and
// increasing. Small corpus-global aggregates — the sorted vocabulary,
// document frequencies (the IDF input, which must be global for scores to
// be shard-count-independent), the merged context index, and the sorted
// path list — are derived from the shards at construction and shared by
// every read path. With one shard (the default) the globals alias the
// shard's own maps, so the single-shard layout costs nothing extra.
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
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seda/internal/fulltext"
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
// by BuildSharded, DecodeShard, and the shard-local ingest path. Non-tail
// shards are shared between engine generations by incremental ingest, so
// the immutability contract is enforced by sedalint (genimmutable).
//
//seda:immutable
type Shard struct {
	lo, hi int // document-id range [lo, hi)

	// Resident summary: always decoded, sized by the vocabulary and the
	// path roster rather than the posting volume. Everything the scatter
	// planner, the Figure-8 context summary, and /debug/stats need lives
	// here, so those paths never force a cold shard resident.
	terms        []string       // sorted shard vocabulary
	termDocFreq  map[string]int // # shard documents containing term
	pathTerms    map[string]map[pathdict.PathID]int
	termPostings []int             // per-term posting counts, aligned with terms
	nPostings    int               // total postings across all terms
	pathIDs      []pathdict.PathID // sorted distinct paths with nodes in this shard
	pathCounts   []int             // per-path node counts, aligned with pathIDs

	// Residency state. data holds the decoded posting lists and per-path
	// node lists; raw holds the shard's encoded lazy block (see codec.go);
	// backing, when set, points at the shard's encoded section inside the
	// snapshot file (see backing.go). The residency invariant: data, raw,
	// or backing is always non-nil. Without a backing ref eviction
	// re-encodes into raw before dropping data (PR 8 behavior); with one,
	// eviction drops BOTH data and raw — page-in re-reads the section from
	// disk, re-verifies its CRC, and decodes. Readers snapshot data with
	// one atomic load and the decoded maps are immutable, so the scatter
	// path stays lock-free once hot; mu only serializes the page-in and
	// eviction transitions — a re-armable once that doubles as the
	// per-shard singleflight: N concurrent queries on one cold shard queue
	// on mu, the winner decodes, the losers find data published and return
	// it, so the shard pays exactly one page-in.
	mu      sync.Mutex
	data    atomic.Pointer[shardData]
	raw     atomic.Pointer[[]byte]
	backing atomic.Pointer[BackingRef]
	// lazyLen caches the length of the shard's encoded lazy block (the
	// payload suffix after the summary; 0 = not yet computed). Disk
	// page-in slices the lazy block out of the re-read section with it.
	lazyLen atomic.Int64

	// pager, when set, applies the byte-budgeted LRU to this shard.
	pager atomic.Pointer[Pager]
	// lastUse is the pager's logical LRU clock value at the last touch.
	lastUse atomic.Int64
	// encBytes caches the shard's exact encoded payload size in bytes
	// (0 = not yet computed).
	encBytes atomic.Int64

	// fetches counts MatchTermShard evaluations served by this shard since
	// build or load. Runtime-only observability state: it is not persisted
	// in snapshots and plays no part in shard equality.
	fetches atomic.Uint64
}

// shardData is the evictable decoded state of a shard. It is immutable
// once published: eviction and page-in swap the pointer, never the maps,
// so readers holding a snapshot keep a consistent view.
type shardData struct {
	postings  map[string][]Posting // node index, (doc, Dewey)-ordered
	pathNodes map[pathdict.PathID][]xmldoc.NodeRef
}

// Docs returns the number of documents in the shard's range.
func (sh *Shard) Docs() int { return sh.hi - sh.lo }

// hot returns the shard's decoded state, paging it in on first touch. The
// resident fast path is one atomic load (plus an LRU clock store when a
// pager is attached). The error is always nil for shards whose encoded
// payload is in memory; only the disk-backed cold path can fail (the file
// is outside the process's control), and then with an error classified
// under snapcodec.ErrCorrupt — never a panic.
func (sh *Shard) hot() (*shardData, error) {
	if d := sh.data.Load(); d != nil {
		if p := sh.pager.Load(); p != nil {
			p.touch(sh)
		}
		return d, nil
	}
	return sh.pageIn()
}

// pageIn decodes the shard's encoded lazy block — from the in-heap
// payload, or by re-reading its section from the snapshot file — and
// publishes it. sh.mu is the singleflight: concurrent callers queue here,
// and whoever loses the race finds data published and returns it without
// a second decode or disk read.
func (sh *Shard) pageIn() (*shardData, error) {
	sh.mu.Lock()
	if d := sh.data.Load(); d != nil { // lost the race: someone else paged in
		sh.mu.Unlock()
		if p := sh.pager.Load(); p != nil {
			p.touch(sh)
		}
		return d, nil
	}
	start := time.Now()
	var d *shardData
	if rawp := sh.raw.Load(); rawp != nil {
		// In-heap payload: fully validated when the snapshot loaded, so a
		// decode failure here is an internal invariant violation.
		var err error
		if d, err = sh.decodeLazy(*rawp); err != nil {
			sh.mu.Unlock()
			panic(fmt.Sprintf("index: paging in pre-validated shard [%d,%d): %v", sh.lo, sh.hi, err))
		}
	} else if ref := sh.backing.Load(); ref != nil {
		var err error
		if d, err = sh.pageInBacked(ref); err != nil {
			sh.mu.Unlock()
			return nil, err
		}
	} else {
		sh.mu.Unlock()
		panic(fmt.Sprintf("index: shard [%d,%d) has no decoded state, encoded payload, or backing ref", sh.lo, sh.hi))
	}
	sh.data.Store(d)
	sh.mu.Unlock()
	// Admit outside mu: the pager may evict other shards, and no shard
	// lock may be held while another shard's is taken.
	if p := sh.pager.Load(); p != nil {
		p.admit(sh, true, time.Since(start))
	}
	return d, nil
}

// backingTier names the shard's coldest available residency tier: where
// its encoded payload would live after eviction.
func (sh *Shard) backingTier() string {
	if sh.backing.Load() != nil {
		return TierDisk
	}
	return TierHeap
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

	// Corpus-global aggregates derived from the shards. With a single
	// shard they alias the shard's own structures. On a masked index they
	// describe the LIVE corpus (see tombstones.go).
	terms       []string                           // sorted term list for prefix scans
	termDocFreq map[string]int                     // # live docs containing term, for IDF
	pathTerms   map[string]map[pathdict.PathID]int // Fig. 8 context index (content terms + tag names)
	allPaths    []pathdict.PathID                  // every distinct live path, sorted by string

	// Masking state, all nil on an unmasked index (see tombstones.go).
	// Shard-level structures stay physical; these route read paths through
	// the live-filter only where a shard's range overlaps the dead set.
	dead          *store.Tombstones
	shardDead     []bool                  // aligned with shards
	deadPathCount map[pathdict.PathID]int // dead-node count per path
}

// Build constructs both indexes over the collection, sharding the scan
// across runtime.GOMAXPROCS(0) goroutines.
func Build(col *store.Collection) *Index { return BuildSharded(col, 1, 0) }

// BuildParallel is Build with an explicit worker count; the built index
// has a single shard whatever the parallelism. parallelism <= 0 means
// runtime.GOMAXPROCS(0); 1 forces a sequential scan.
func BuildParallel(col *store.Collection, parallelism int) *Index {
	return BuildSharded(col, 1, parallelism)
}

// BuildSharded builds an index fragmented into the given number of
// document-range shards, scanning with at most parallelism workers in
// total. shards <= 1 yields the single-shard layout; the count is clamped
// to the number of documents. Every read answer — lookups, matches,
// scores — is byte-identical at any shard count and any parallelism.
func BuildSharded(col *store.Collection, shards, parallelism int) *Index {
	docs := col.Docs()
	n := shards
	if n > len(docs) {
		n = len(docs)
	}
	if n < 1 {
		n = 1
	}
	p := parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	parts := make([]*Shard, n)
	if n == 1 {
		parts[0] = buildShardRange(docs, 0, p)
	} else {
		// Build the shards over a bounded worker pool: at most
		// min(p, n) shard builders run at once, and each splits its own
		// scan so the total concurrent scanners never exceed p —
		// Parallelism 1 really is sequential. The per-shard results are
		// deterministic, so scheduling never shows in the output.
		builders := p
		if builders > n {
			builders = n
		}
		scanPar := p / builders
		if scanPar < 1 {
			scanPar = 1
		}
		build := func(s int) {
			lo, hi := s*len(docs)/n, (s+1)*len(docs)/n
			parts[s] = buildShardRange(docs[lo:hi], lo, scanPar)
		}
		if builders == 1 {
			for s := 0; s < n; s++ {
				build(s)
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < builders; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						s := int(next.Add(1)) - 1
						if s >= n {
							return
						}
						build(s)
					}
				}()
			}
			wg.Wait()
		}
	}
	return finishIndex(col, parts)
}

// buildShardRange builds one shard over docs (whose first document has id
// lo), splitting the scan across at most workers goroutines and merging
// the partial accumulators in document order, so the shard is
// byte-identical to a sequential scan.
//
//seda:constructor
func buildShardRange(docs []*xmldoc.Document, lo int, workers int) *Shard {
	w := workers
	if w > len(docs) {
		w = len(docs)
	}
	if w < 1 {
		w = 1
	}
	accs := make([]*shardAcc, w)
	if w == 1 {
		accs[0] = scanDocs(docs)
	} else {
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			a, b := i*len(docs)/w, (i+1)*len(docs)/w
			wg.Add(1)
			go func(i, a, b int) {
				defer wg.Done()
				accs[i] = scanDocs(docs[a:b])
			}(i, a, b)
		}
		wg.Wait()
	}

	// Merge in document order, adopting the first accumulator wholesale so
	// a sequential scan pays no merge cost at all. Accumulators hold
	// contiguous document ranges, so per-path node lists concatenate back
	// into (doc, Dewey) order, and per-term posting runs are re-sorted by
	// normalizePostings anyway.
	acc := accs[0]
	for _, a := range accs[1:] {
		for term, ps := range a.postings {
			acc.postings[term] = append(acc.postings[term], ps...)
		}
		for term, paths := range a.pathTerms {
			m, ok := acc.pathTerms[term]
			if !ok {
				acc.pathTerms[term] = paths
				continue
			}
			for pid, n := range paths {
				m[pid] += n
			}
		}
		for term, n := range a.termDocFreq {
			acc.termDocFreq[term] += n // accumulators hold disjoint documents
		}
		for pid, refs := range a.pathNodes {
			if cur, ok := acc.pathNodes[pid]; ok {
				acc.pathNodes[pid] = append(cur, refs...)
			} else {
				acc.pathNodes[pid] = refs
			}
		}
	}
	return acc.finalize(lo, lo+len(docs))
}

// shardAcc accumulates the map-backed index structures of one contiguous
// scan range. Accumulators merge in document order and finalize into an
// immutable Shard.
type shardAcc struct {
	postings    map[string][]Posting
	pathTerms   map[string]map[pathdict.PathID]int
	termDocFreq map[string]int
	pathNodes   map[pathdict.PathID][]xmldoc.NodeRef
}

func newShardAcc() *shardAcc {
	return &shardAcc{
		postings:    make(map[string][]Posting),
		pathTerms:   make(map[string]map[pathdict.PathID]int),
		termDocFreq: make(map[string]int),
		pathNodes:   make(map[pathdict.PathID][]xmldoc.NodeRef),
	}
}

// finalize normalizes the accumulator's posting lists and seals it into a
// Shard covering [lo, hi).
//
//seda:constructor
func (acc *shardAcc) finalize(lo, hi int) *Shard {
	for term, ps := range acc.postings {
		acc.postings[term] = normalizePostings(ps)
	}
	return sealShard(lo, hi, acc)
}

// sealShard constructs the immutable Shard from already-normalized
// accumulator maps: the sorted vocabulary and path roster, the summary
// counts, and the decoded state published as resident.
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
	sort.Slice(sh.pathIDs, func(i, j int) bool { return sh.pathIDs[i] < sh.pathIDs[j] })
	sh.pathCounts = make([]int, len(sh.pathIDs))
	for i, p := range sh.pathIDs {
		sh.pathCounts[i] = len(acc.pathNodes[p])
	}
	sh.data.Store(&shardData{postings: acc.postings, pathNodes: acc.pathNodes})
	return sh
}

// scanDocs runs the single-threaded scan over one contiguous document
// range. Everything it touches outside its own maps (documents, the path
// dictionary, the tokenizer) is read-only or internally synchronized.
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

// newIndex assembles an Index from finalized shards, deriving the
// corpus-global aggregates. With a single shard the globals alias the
// shard's structures — the default layout pays no merge cost or memory.
//
//seda:constructor
func newIndex(col *store.Collection, shards []*Shard) *Index {
	ix := &Index{col: col, shards: shards}
	if len(shards) == 1 {
		sh := shards[0]
		ix.terms = sh.terms
		ix.termDocFreq = sh.termDocFreq
		ix.pathTerms = sh.pathTerms
	} else {
		ix.termDocFreq = make(map[string]int)
		ix.pathTerms = make(map[string]map[pathdict.PathID]int)
		for _, sh := range shards {
			for term, n := range sh.termDocFreq {
				ix.termDocFreq[term] += n // shards hold disjoint documents
			}
			for term, paths := range sh.pathTerms {
				m, ok := ix.pathTerms[term]
				if !ok {
					m = make(map[pathdict.PathID]int, len(paths))
					ix.pathTerms[term] = m
				}
				for pid, n := range paths {
					m[pid] += n
				}
			}
		}
		ix.terms = make([]string, 0, len(ix.termDocFreq))
		for t := range ix.termDocFreq {
			ix.terms = append(ix.terms, t)
		}
		sort.Strings(ix.terms)
	}

	seen := make(map[pathdict.PathID]struct{})
	for _, sh := range shards {
		for _, p := range sh.pathIDs { // resident roster: assembling never pages
			if _, ok := seen[p]; !ok {
				seen[p] = struct{}{}
				ix.allPaths = append(ix.allPaths, p)
			}
		}
	}
	dict := col.Dict()
	sort.Slice(ix.allPaths, func(i, j int) bool { return dict.Path(ix.allPaths[i]) < dict.Path(ix.allPaths[j]) })
	return ix
}

func normalizePostings(ps []Posting) []Posting {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Ref.Less(ps[j].Ref) })
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
		sort.Slice(out[i].Positions, func(a, b int) bool { return out[i].Positions[a] < out[i].Positions[b] })
	}
	return out
}

// Collection returns the indexed collection.
func (ix *Index) Collection() *store.Collection { return ix.col }

// NumShards returns the number of document-range shards.
func (ix *Index) NumShards() int { return len(ix.shards) }

// ShardStats describes one shard for observability surfaces
// (/debug/stats, the bench/ layer metrics).
type ShardStats struct {
	// Docs is the number of documents in the shard's range [Lo, Hi).
	Lo, Hi, Docs int
	// Terms is the shard's node-index vocabulary size.
	Terms int
	// Postings is the shard's total posting count.
	Postings int
	// Bytes is the shard's exact encoded (index.<n> section) size: the
	// deterministic cost unit the resident-budget pager charges for the
	// shard, derived from the encoded section rather than estimated.
	Bytes int64
	// Resident reports whether the shard's decoded posting lists are in
	// memory right now (always true without a pager).
	Resident bool
	// Backing names the shard's coldest residency tier — where its encoded
	// payload lives after eviction: TierHeap (in-heap encoded bytes, the
	// only tier for built-not-yet-saved engines) or TierDisk (pread from
	// the snapshot file).
	Backing string
	// Fetches counts term-match evaluations (scatter tasks) served by the
	// shard since build or load — the scatter-fanout view of query load.
	Fetches uint64
}

// stats reads entirely from the resident summary and the cached encoded
// size: reporting never pages a cold shard in.
func (sh *Shard) stats() ShardStats {
	return ShardStats{
		Lo: sh.lo, Hi: sh.hi, Docs: sh.hi - sh.lo,
		Terms:    len(sh.terms),
		Postings: sh.nPostings,
		Bytes:    sh.exactBytes(),
		Resident: sh.data.Load() != nil,
		Backing:  sh.backingTier(),
		Fetches:  sh.fetches.Load(),
	}
}

// ShardStats reports per-shard document, term, posting, and byte counts
// in shard order.
func (ix *Index) ShardStats() []ShardStats {
	out := make([]ShardStats, len(ix.shards))
	for i, sh := range ix.shards {
		out[i] = sh.stats()
	}
	return out
}

// Lookup returns the postings of term in (doc, Dewey) order (nil if
// absent). When exactly one shard holds the term its list is returned
// without copying; otherwise the contributing per-shard lists are
// concatenated into a fresh slice. Either way the returned slice must not
// be modified. Shards whose vocabulary lacks the term are skipped via the
// resident summary, so absent terms page nothing in. The error is a
// disk-backed page-in failure (see Shard.hot).
func (ix *Index) Lookup(term string) ([]Posting, error) {
	var single []Posting
	contributing, total := 0, 0
	for s, sh := range ix.shards {
		if sh.termDocFreq[term] == 0 {
			continue
		}
		d, err := sh.hot()
		if err != nil {
			return nil, err
		}
		if ps := ix.livePostings(s, d.postings[term]); len(ps) > 0 {
			contributing++
			total += len(ps)
			single = ps
		}
	}
	switch contributing {
	case 0:
		return nil, nil
	case 1:
		return single, nil
	}
	out := make([]Posting, 0, total)
	for s, sh := range ix.shards {
		if sh.termDocFreq[term] == 0 {
			continue
		}
		d, err := sh.hot()
		if err != nil {
			return nil, err
		}
		out = append(out, ix.livePostings(s, d.postings[term])...)
	}
	return out, nil
}

// LookupPrefix returns merged postings of all terms starting with prefix,
// in (doc, Dewey) order, by a k-way merge of the already-sorted per-term
// (and per-shard) posting lists.
func (ix *Index) LookupPrefix(prefix string) ([]Posting, error) {
	var lists [][]Posting
	lo := sort.SearchStrings(ix.terms, prefix)
	for i := lo; i < len(ix.terms) && strings.HasPrefix(ix.terms[i], prefix); i++ {
		for s, sh := range ix.shards {
			if sh.termDocFreq[ix.terms[i]] == 0 {
				continue
			}
			d, err := sh.hot()
			if err != nil {
				return nil, err
			}
			if ps := ix.livePostings(s, d.postings[ix.terms[i]]); len(ps) > 0 {
				lists = append(lists, ps)
			}
		}
	}
	return mergePostings(lists), nil
}

// lookupPrefixShard is LookupPrefix restricted to one shard. The sorted
// vocabulary scan is resident; the shard pages in only when at least one
// term matches the prefix.
func (ix *Index) lookupPrefixShard(s int, prefix string) ([]Posting, error) {
	sh := ix.shards[s]
	var lists [][]Posting
	i := sort.SearchStrings(sh.terms, prefix)
	if i < len(sh.terms) && strings.HasPrefix(sh.terms[i], prefix) {
		d, err := sh.hot()
		if err != nil {
			return nil, err
		}
		for ; i < len(sh.terms) && strings.HasPrefix(sh.terms[i], prefix); i++ {
			if ps := ix.livePostings(s, d.postings[sh.terms[i]]); len(ps) > 0 {
				lists = append(lists, ps)
			}
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

// LookupQuery resolves a TermQuery (exact or prefix) to postings.
func (ix *Index) LookupQuery(tq fulltext.TermQuery) ([]Posting, error) {
	if tq.Prefix {
		return ix.LookupPrefix(tq.Term)
	}
	return ix.Lookup(tq.Term)
}

// PhrasePostings returns postings of nodes whose direct text contains the
// exact phrase, computed by position intersection on the node index. The
// intersection runs shard-locally (a node and all its phrase terms live in
// one shard); shards where a later phrase term is absent simply contribute
// nothing.
func (ix *Index) PhrasePostings(terms []string) ([]Posting, error) {
	if len(terms) == 0 {
		return nil, nil
	}
	if len(terms) == 1 {
		return ix.Lookup(terms[0])
	}
	var out []Posting
	for s := range ix.shards {
		ps, err := ix.phrasePostingsShard(s, terms)
		if err != nil {
			return nil, err
		}
		out = append(out, ps...)
	}
	return out, nil
}

func (ix *Index) phrasePostingsShard(s int, terms []string) ([]Posting, error) {
	sh := ix.shards[s]
	for _, t := range terms {
		if sh.termDocFreq[t] == 0 {
			return nil, nil // a missing member term kills every phrase here
		}
	}
	d, err := sh.hot()
	if err != nil {
		return nil, err
	}
	var out []Posting
	// The intersection walks the first term's live postings; later terms
	// are probed at the same (live) refs, so one filter masks the phrase.
	for _, p := range ix.livePostings(s, d.postings[terms[0]]) {
		ok := true
		offsets := p.Positions // candidate phrase start positions
		for k := 1; k < len(terms) && ok; k++ {
			next := d.findPosting(terms[k], p.Ref)
			if next == nil {
				ok = false
				break
			}
			var keep []int32
			for _, start := range offsets {
				if containsI32(next.Positions, start+int32(k)) {
					keep = append(keep, start)
				}
			}
			offsets = keep
			ok = len(offsets) > 0
		}
		if ok {
			out = append(out, Posting{Ref: p.Ref, Path: p.Path, Positions: offsets})
		}
	}
	return out, nil
}

func (d *shardData) findPosting(term string, ref xmldoc.NodeRef) *Posting {
	ps := d.postings[term]
	i := sort.Search(len(ps), func(i int) bool { return !ps[i].Ref.Less(ref) })
	if i < len(ps) && ps[i].Ref.Equal(ref) {
		return &ps[i]
	}
	return nil
}

func containsI32(xs []int32, v int32) bool {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= v })
	return i < len(xs) && xs[i] == v
}

// DocFreq returns the number of documents containing term (corpus-global —
// it feeds IDF, so scores are independent of the shard layout).
func (ix *Index) DocFreq(term string) int { return ix.termDocFreq[term] }

// NumTerms returns the vocabulary size of the node index.
func (ix *Index) NumTerms() int { return len(ix.terms) }

// pathCountAt returns the number of the shard's nodes at path p, answered
// from the resident roster (never pages).
func (sh *Shard) pathCountAt(p pathdict.PathID) int {
	i := sort.Search(len(sh.pathIDs), func(i int) bool { return sh.pathIDs[i] >= p })
	if i < len(sh.pathIDs) && sh.pathIDs[i] == p {
		return sh.pathCounts[i]
	}
	return 0
}

// NodesAtPath returns all nodes with the given path in (doc, Dewey) order.
// When exactly one shard holds the path its list is returned without
// copying; otherwise the contributing lists are concatenated into a fresh
// slice. Either way the returned slice must not be modified. Shards
// without the path are skipped via the resident roster.
func (ix *Index) NodesAtPath(p pathdict.PathID) ([]xmldoc.NodeRef, error) {
	if ix.dead == nil {
		var last *Shard
		contributing, total := 0, 0
		for _, sh := range ix.shards {
			if n := sh.pathCountAt(p); n > 0 {
				contributing++
				total += n
				last = sh
			}
		}
		switch contributing {
		case 0:
			return nil, nil
		case 1:
			d, err := last.hot()
			if err != nil {
				return nil, err
			}
			return d.pathNodes[p], nil
		}
		out := make([]xmldoc.NodeRef, 0, total)
		for _, sh := range ix.shards {
			if sh.pathCountAt(p) > 0 {
				d, err := sh.hot()
				if err != nil {
					return nil, err
				}
				out = append(out, d.pathNodes[p]...)
			}
		}
		return out, nil
	}
	// Masked: roster counts may overstate, so contribution is decided on
	// the filtered lists (a shard overlapping the dead set pages in even
	// when its live contribution turns out empty — those shards are the
	// compactor's rewrite targets anyway).
	var single []xmldoc.NodeRef
	var out []xmldoc.NodeRef
	contributing := 0
	for s, sh := range ix.shards {
		if sh.pathCountAt(p) == 0 {
			continue
		}
		d, err := sh.hot()
		if err != nil {
			return nil, err
		}
		refs := ix.liveRefs(s, d.pathNodes[p])
		if len(refs) == 0 {
			continue
		}
		switch contributing {
		case 0:
			single = refs
		case 1:
			out = append(append(out, single...), refs...)
		default:
			out = append(out, refs...)
		}
		contributing++
	}
	if contributing == 1 {
		return single, nil
	}
	return out, nil
}

// nodesAtPathLen is len(NodesAtPath(p)) without the concatenation; it
// reads only the resident roster (and, when masked, the dead path
// counts).
func (ix *Index) nodesAtPathLen(p pathdict.PathID) int {
	n := 0
	for _, sh := range ix.shards {
		n += sh.pathCountAt(p)
	}
	return n - ix.deadPathCount[p]
}

// AllPaths returns every distinct path of the collection, sorted by string
// form. The returned slice must not be modified.
func (ix *Index) AllPaths() []pathdict.PathID { return ix.allPaths }

// PathsForTerm implements the Figure 8 probe for a single keyword: the
// distinct paths the term occurs in, with occurrence counts.
func (ix *Index) PathsForTerm(term string) map[pathdict.PathID]int {
	return ix.pathTerms[fulltext.NormalizeTerm(term)]
}

// PathsForExpr computes the distinct paths an expression can match in,
// combining per-term path sets: intersection across conjuncts and phrase
// members, union across disjuncts (paper §5: "compute the set of distinct
// paths for phrase queries, as well as other search queries with multiple
// keywords connected with conjunction or disjunction"). MatchAll and
// purely negative expressions return every path.
func (ix *Index) PathsForExpr(e fulltext.Expr) map[pathdict.PathID]int {
	switch t := e.(type) {
	case fulltext.Word:
		if t.Prefix {
			out := make(map[pathdict.PathID]int)
			lo := sort.SearchStrings(ix.terms, t.Term)
			for i := lo; i < len(ix.terms) && strings.HasPrefix(ix.terms[i], t.Term); i++ {
				for p, c := range ix.pathTerms[ix.terms[i]] {
					out[p] += c
				}
			}
			// Tag names may not appear in ix.terms (node index); scan the
			// context index for prefix matches too.
			for term, paths := range ix.pathTerms {
				if strings.HasPrefix(term, t.Term) && !hasString(ix.terms, term) {
					for p, c := range paths {
						out[p] += c
					}
				}
			}
			return out
		}
		return copyPathCounts(ix.pathTerms[t.Term])
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

func hasString(sorted []string, s string) bool {
	i := sort.SearchStrings(sorted, s)
	return i < len(sorted) && sorted[i] == s
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

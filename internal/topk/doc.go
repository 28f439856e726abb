// Package topk implements SEDA's top-k search unit (paper §4).
//
// "SEDA employs a top-k search algorithm based on the family of threshold
// algorithms (TA). The SEDA top-k algorithm retrieves the results from
// full-text indexes and calculates top answers according to a ranking
// function which takes into account both the content score as well as the
// structural properties of the matched nodes" — the structural component
// being the compactness of the graph connecting the tuple (§1).
//
// The implementation is document-at-a-time: per-term match lists are
// fetched from the index by a (term × shard) scatter over at most
// Options.Parallelism goroutines, gathered per term in shard order, so each
// list is in (doc, Dewey) order, and merged k-way into per-document runs
// (no map). The lists are the index's cached term answers, shared with
// every other search on the generation and read-only: a document's run
// longer than the Options.PerDocPerTerm beam is copied into per-search
// scratch and sorted there, never in place. Candidate units (documents,
// or pairs of link-joined documents per Definition 4) are then scanned
// sequentially in decreasing order of an upper score bound, into one
// bounded min-heap of size K, in waves whose boundaries double
// geometrically (1, 2, 4, 8, … units); the scan stops at the first wave
// barrier where the k-th best score reaches the next unit's bound — the
// TA termination condition. Early waves (1-2 units) keep the check as
// eager as a unit-at-a-time TA loop and late waves amortize it; the wave
// boundaries decide which units get scanned, and so how exact ties at
// the threshold resolve (below).
//
// The only concurrency inside a search is the fetch scatter, and it is
// schedule-independent: every task writes its own slot and the gather
// reads the slots in (term, shard) order. Results and Stats are therefore
// identical at every Options.Parallelism. The rank scan is sequential:
// it costs a small share of a search, and concurrent searches already keep
// the cores busy, so scanning a wave's units in parallel measured no
// faster on two cores.
//
// Within a unit, tuples are enumerated branch-and-bound: a partial tuple
// whose best completion cannot reach the heap's current k-th score is
// abandoned before the graph is consulted, and a tuple is copied out of
// scratch only when it enters the heap. The k-th score never falls, so a
// pruned tuple would have been rejected anyway and the result is the
// unpruned one; only Stats.TuplesScored sees the difference.
//
// As in any TA with a non-strict stop rule, exact score ties at the
// termination threshold are resolved pragmatically: every returned tuple
// scores at least as high as every unreturned one, but which of several
// equally-scored boundary tuples fill the last slots follows the
// deterministic scan order rather than the node-order tie-break (the
// PerDocPerTerm beam makes the same latency-over-exactness trade within a
// document).
//
// # Concurrency
//
// A Searcher holds only read-only references to its index and data graph
// and is safe for concurrent use by any number of goroutines: every
// Search call owns its fetch goroutines and all intermediate state, and
// Options.Parallelism bounds that call's fetch goroutines only. The index
// and graph must not be mutated while searches run — the engine layer
// guarantees this by making both immutable per generation (incremental
// ingest derives a new index and graph rather than touching the ones a
// live Searcher reads). The index's term cache is the one piece of state
// searches share; it is internally synchronized, and what it hands out is
// never written.
//
// The package is annotated //seda:hot: sedalint's nilgate analyzer
// enforces the nil-gated observability contract on every hot path here.
//
//seda:hot
package topk

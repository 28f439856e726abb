// Package topk implements SEDA's top-k search unit (paper §4).
//
// "SEDA employs a top-k search algorithm based on the family of threshold
// algorithms (TA). The SEDA top-k algorithm retrieves the results from
// full-text indexes and calculates top answers according to a ranking
// function which takes into account both the content score as well as the
// structural properties of the matched nodes" — the structural component
// being the compactness of the graph connecting the tuple (§1).
//
// The implementation is document-at-a-time: per-term match lists from the
// index are fetched concurrently, each in (doc, Dewey) order, and merged
// k-way into per-document runs (no map, no copy); candidate units
// (documents, or pairs of link-joined documents per Definition 4) are
// scanned in decreasing order of an upper score bound, in waves whose
// boundaries double geometrically (1, 2, 4, 8, … units). Within a wave a
// pool of workers claims units and scores their tuples into per-worker
// bounded min-heaps of size K, merged into the running top-k at the wave
// barrier; the scan stops at the first barrier where the k-th best score
// reaches the next unit's bound — the TA termination condition.
//
// Checking the threshold only at wave barriers is what makes the output
// schedule-independent: the set of scanned units is a function of the
// sorted unit list alone (never of worker timing), and a bounded heap under
// the strict (score, node-order) total ordering keeps the same K tuples
// whatever order they arrive in. A parallel search therefore returns
// byte-identical results to a sequential one, while early waves (sized 1-2
// units) keep the termination check as eager as a classic unit-at-a-time
// TA loop and late waves amortize it and feed the whole worker pool.
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
// Search call owns its worker pool and all intermediate state, and
// Options.Parallelism bounds that call's workers only. The index and
// graph must not be mutated while searches run — the engine layer
// guarantees this by making both immutable per generation (incremental
// ingest derives a new index and graph rather than touching the ones a
// live Searcher reads).
//
// The package is annotated //seda:hot: sedalint's nilgate analyzer
// enforces the nil-gated observability contract on every hot path here.
//
//seda:hot
package topk

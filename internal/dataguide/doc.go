// Package dataguide implements SEDA's dataguide summaries (paper §6.1),
// following Goldman & Widom's dataguides and Nestorov et al.'s
// representative objects.
//
// A dataguide is represented, as in the paper, by its set of paths: "We
// represent a dataguide dg as a list of full root-to-leaf paths such that
// every full root-to-leaf path in G maps onto a full root-to-leaf path in
// one dg ∈ DG." Path sets here are prefix-closed (every node's
// root-to-node path), which carries the same information and lets the
// connection machinery reason about interior join nodes directly.
//
// Building the summary processes documents one at a time and merges each
// document's guide into the accumulated collection using the paper's
// overlap metric (path sets are dense bitsets over PathID, so |common| is
// a word-parallel popcount):
//
//	overlap(dg1,dg2) = min(|common|/|paths(dg1)|, |common|/|paths(dg2)|)
//
// A document guide that is a subset of (or equal to) an existing guide is
// absorbed without changes; otherwise it merges with the best guide whose
// overlap meets the threshold, or starts a new guide. Table 1 of the paper
// reports the resulting guide counts at threshold 40% for four corpora.
//
// Because the merge is a left fold over documents in id order, one
// function derives every summary: Set.Extend continues the fold over the
// given documents, as a segment on top of the receiver's base and
// segments that copies only the guides it changes. A build is the empty
// Set's Extend over the whole collection (Build), an ingest the previous
// summary's Extend over the appended documents, a delete or update the
// previous summary's Extend re-folding from the oldest segment holding a
// newly dead document, and each reaches exactly the summary one fold over
// the live documents would (the ingest and lifecycle equivalence
// invariants; see fold.go and internal/core/generation.go).
//
// # Concurrency
//
// A Set is immutable once Extend returns, and all read methods are then
// safe for concurrent use (Links merges on its first call behind an
// atomic pointer). Extend never modifies its receiver — it returns a new
// Set for the new engine generation, sharing the receiver's parts and
// unchanged guides, so readers of the old one are undisturbed.
// Construction is sequential in document order because merge results
// are order-sensitive.
package dataguide

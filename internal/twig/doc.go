// Package twig implements SEDA's complete result set generator (paper §7):
// once the user has fixed contexts and connections, "for each connection
// chosen by the user, the nodes and all connections together form a
// connection graph. We partition each connection graph into twigs. Each
// twig is a query pattern tree, which includes the connection nodes and
// parent/child edges within the same document. The remaining edges are
// called cross-twig joins... After we compute the results of each twig
// query, we join the results from different twigs according to the
// cross-twig join edges, which is similar to a join in an RDBMS."
//
// Twig results are computed holistically on Dewey-ordered match streams in
// the spirit of Bruno et al.'s twig joins: the matches sharing a bound
// node's ancestor at the connection's join depth form one contiguous run
// of the (doc, Dewey)-ordered match list, found by binary search, so each
// sub-result extends only compatible candidates instead of scanning the
// full match list. The
// package also provides a naive nested-loop evaluator used as the ablation
// baseline and as the test oracle.
//
// # Concurrency
//
// An Evaluator holds only read-only references to its index and data
// graph; ComputeAll allocates all working state per call, so one
// Evaluator is safe for concurrent use by many sessions as long as the
// underlying index and graph are not mutated — which the engine layer
// guarantees by keeping both immutable per generation.
package twig

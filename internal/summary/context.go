// Package summary implements SEDA's two result summaries (paper §5, §6):
// the context summary, which shows every distinct path a query term can
// appear in so the user can disambiguate entities, and the connection
// summary, which proposes the possible relationships between the matched
// node types so the user can disambiguate how they join.
package summary

import (
	"cmp"
	"slices"
	"strings"

	"seda/internal/fulltext"
	"seda/internal/index"
	"seda/internal/pathdict"
	"seda/internal/query"
)

// ContextEntry is one row of a context bucket: a path the term occurs in,
// with collection-wide frequencies. Per §5, SEDA deliberately shows "the
// absolute frequency of the path itself, irrespective of the keyword ...
// to give the user some idea about the structural properties of the data".
type ContextEntry struct {
	Path        pathdict.PathID
	PathString  string
	DocFreq     int // documents containing the path, out of the whole collection
	Occurrences int // total node occurrences of the path
	// Entity is the real-world entity label of the context when an
	// EntityRegistry knows one (§5's abstraction), e.g. "import partner".
	Entity string
}

// ContextBucket is the context summary of one query term.
type ContextBucket struct {
	Term    query.Term
	Entries []ContextEntry // sorted by DocFreq descending, then path
}

// Contexts computes a context bucket per query term (§5). The index probe
// depends on the term's shape:
//
//   - search-only terms run the search expression against the Figure 8
//     context index;
//   - terms with a full root-to-leaf context probe with the path's last tag
//     name in conjunction with the search expression;
//   - tag-name contexts (with wildcards) probe with the tag name in
//     conjunction with the search expression.
//
// Unlike node matching, a term whose search expression anchors below the
// context (e.g. (country, "Romania")) presents the *context's* candidate
// paths: a path is kept if the context matches it or one of its ancestor
// prefixes (the anchor's lift targets).
func Contexts(ix *index.Index, q query.Query) []ContextBucket {
	col := ix.Collection()
	dict := col.Dict()
	out := make([]ContextBucket, 0, len(q.Terms))
	for _, t := range q.Terms {
		// The context is evaluated once over the dictionary, and the paths
		// the search can match in are only intersected with it when the
		// search is not match-all (every path of the index qualifies then).
		covers := t.Context.Covers(dict)
		bucket := ContextBucket{Term: t}
		add := func(p pathdict.PathID) {
			if covers != nil && (int(p) >= len(covers) || !covers[p]) {
				return
			}
			bucket.Entries = append(bucket.Entries, ContextEntry{
				Path:        p,
				PathString:  dict.Path(p),
				DocFreq:     col.PathDocFreq(p),
				Occurrences: col.PathOccurrences(p),
			})
		}
		if fulltext.IsMatchAll(t.Search) {
			for _, p := range ix.AllPaths() {
				add(p)
			}
		} else {
			for p := range ix.PathsForExpr(t.Search) {
				add(p)
			}
		}
		slices.SortFunc(bucket.Entries, func(a, b ContextEntry) int {
			if a.DocFreq != b.DocFreq {
				return cmp.Compare(b.DocFreq, a.DocFreq)
			}
			return strings.Compare(a.PathString, b.PathString)
		})
		out = append(out, bucket)
	}
	return out
}

package summary

import (
	"reflect"
	"sort"
	"testing"

	"seda/internal/datagen"
	"seda/internal/index"
	"seda/internal/pathdict"
	"seda/internal/query"
)

// refContexts is the context summary as it was first written, kept as the
// oracle for the one-pass one: every path the search can match in, each
// tested by walking its ancestors against the context.
func refContexts(ix *index.Index, q query.Query) []ContextBucket {
	col := ix.Collection()
	dict := col.Dict()
	covers := func(ctx query.Context, p pathdict.PathID) bool {
		if ctx.IsEmpty() {
			return true
		}
		for cur := p; cur != pathdict.InvalidPath; cur = dict.Parent(cur) {
			if ctx.Matches(dict, cur) {
				return true
			}
		}
		return false
	}
	out := make([]ContextBucket, 0, len(q.Terms))
	for _, t := range q.Terms {
		bucket := ContextBucket{Term: t}
		for p := range ix.PathsForExpr(t.Search) {
			if covers(t.Context, p) {
				bucket.Entries = append(bucket.Entries, ContextEntry{
					Path: p, PathString: dict.Path(p),
					DocFreq: col.PathDocFreq(p), Occurrences: col.PathOccurrences(p),
				})
			}
		}
		sort.Slice(bucket.Entries, func(i, j int) bool {
			if bucket.Entries[i].DocFreq != bucket.Entries[j].DocFreq {
				return bucket.Entries[i].DocFreq > bucket.Entries[j].DocFreq
			}
			return bucket.Entries[i].PathString < bucket.Entries[j].PathString
		})
		out = append(out, bucket)
	}
	return out
}

// TestContextsMatchReference pins the one-pass context summary to the
// ancestor-walking one on WorldFactbook, for every context shape (empty,
// tag, tag prefix, full path, disjunction, a context above the anchor)
// under match-all, word, prefix, phrase, conjunctive and negated searches.
func TestContextsMatchReference(t *testing.T) {
	ix := index.Build(datagen.WorldFactbook(0.05))
	for _, qs := range []string{
		`(*, "United States") AND (trade_country, *) AND (percentage, *)`,
		`(name, "United States") AND (GDP*, *)`,
		`(country, mexico) AND (economy, *) AND (item, *)`,
		`(/country/economy/import_partners/item/trade_country, *)`,
		`(/country/economy/import_partners|name, germany)`,
		`(trade*|percentage, *) AND (*, unit*)`,
		`(name, NOT mexico) AND (year, *)`,
		`(country, germany AND france) AND (/country/nosuch, *)`,
	} {
		q := query.MustParse(qs)
		got, want := Contexts(ix, q), refContexts(ix, q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %v\nwant %v", qs, got, want)
		}
		if len(got[0].Entries) == 0 {
			t.Errorf("%s: first bucket empty; the case tests nothing", qs)
		}
	}
}

package index

import (
	"fmt"
	"strings"
	"testing"

	"seda/internal/datagen"
	"seda/internal/store"
)

// tradeFixture builds docs country documents, each with two import and
// one export trade partner, so (trade_country, *) merges two per-path
// node lists.
func tradeFixture(tb testing.TB, docs int) *store.Collection {
	tb.Helper()
	col := store.NewCollection()
	for d := 0; d < docs; d++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "<country><name>c%d</name><economy>", d)
		sb.WriteString("<import_partners><item><trade_country>x</trade_country></item>")
		sb.WriteString("<item><trade_country>y</trade_country></item></import_partners>")
		sb.WriteString("<export_partners><item><trade_country>z</trade_country></item></export_partners>")
		sb.WriteString("</economy></country>")
		if _, err := col.AddXML(fmt.Sprintf("d%d", d), []byte(sb.String())); err != nil {
			tb.Fatal(err)
		}
	}
	return col
}

// TestMatchAllAllocsPinned pins the match-all fast path: a (tag, *) term
// on an unmasked single-shard index allocates only its output slice,
// sized up front, so the count is small and independent of corpus size.
func TestMatchAllAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation perturbs allocation counts")
	}
	term := mustTerm(t, "trade_country", "*")
	var allocs []float64
	for _, docs := range []int{20, 400} {
		ix := BuildSharded(tradeFixture(t, docs), 1, 1)
		ms, err := ix.MatchTerm(term)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 3*docs {
			t.Fatalf("%d docs: %d matches, want %d", docs, len(ms), 3*docs)
		}
		allocs = append(allocs, testing.AllocsPerRun(50, func() {
			if _, err := ix.MatchTerm(term); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] > 2 || allocs[0] != allocs[1] {
		t.Errorf("(trade_country, *) allocs per MatchTerm = %v at 20 and 400 docs, want equal and <= 2", allocs)
	}
}

// TestVerifyAllocsPinned pins verification's allocations: each
// candidate's subtree text streams into one reused, expression-restricted
// content, so a term allocates for its set-up and output only — fewer
// than one allocation per ten candidates, for words, a lifted word, a
// phrase and a negation alike.
func TestVerifyAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation perturbs allocation counts")
	}
	const docs = 400
	ix := BuildSharded(tradeFixture(t, docs), 1, 1)
	for _, tc := range []struct{ ctx, search string }{
		{"*", "x"},
		{"trade_country", "x"},
		{"*", `"x y"`},
		{"*", "x AND NOT y"},
	} {
		term := mustTerm(t, tc.ctx, tc.search)
		// Every candidate matches: one x (or x-and-y import_partners) per
		// document.
		ms, err := ix.MatchTerm(term)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != docs {
			t.Fatalf("%s: %d matches, want %d", term, len(ms), docs)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ix.MatchTerm(term); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs per MatchTerm", term, allocs)
		if allocs >= docs/10 {
			t.Errorf("%s: %v allocs per MatchTerm over %d candidates, want < %d", term, allocs, docs, docs/10)
		}
	}
}

// BenchmarkMatchTerm measures term evaluation alone for the three term
// shapes of the paper's Figure-6 journey on WorldFactbook 0.1 — a
// match-all tag term, a phrase with an empty context, and a phrase under a
// tag — and for search.fresh's shape, one word with an empty context, on
// 2 000 GoogleBase documents.
func BenchmarkMatchTerm(b *testing.B) {
	wf := BuildSharded(datagen.WorldFactbook(0.1), 1, 0)
	gb := BuildSharded(datagen.GoogleBase(0.2), 1, 0)
	for _, tc := range []struct {
		name        string
		ix          *Index
		ctx, search string
	}{
		{"tag_matchall", wf, "trade_country", "*"},
		{"empty_context", wf, "*", `"United States"`},
		{"tag_phrase", wf, "name", `"United States"`},
		{"gb_word", gb, "*", "v17"},
	} {
		term := mustTerm(b, tc.ctx, tc.search)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := tc.ix.MatchTerm(term); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

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

// BenchmarkMatchTerm measures term evaluation alone on WorldFactbook 0.1
// for the three term shapes of the paper's Figure-6 journey: a match-all
// tag term, a phrase with an empty context, and a phrase under a tag.
func BenchmarkMatchTerm(b *testing.B) {
	ix := BuildSharded(datagen.WorldFactbook(0.1), 1, 0)
	for _, tc := range []struct{ name, ctx, search string }{
		{"tag_matchall", "trade_country", "*"},
		{"empty_context", "*", `"United States"`},
		{"tag_phrase", "name", `"United States"`},
	} {
		term := mustTerm(b, tc.ctx, tc.search)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ix.MatchTerm(term); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package topk

import (
	"fmt"
	"strings"
	"testing"

	"seda/internal/datagen"
	"seda/internal/graph"
	"seda/internal/index"
	"seda/internal/query"
	"seda/internal/store"
)

// itemFixture builds docs documents of items trade-partner items each, so
// (tc, *) AND (pc, *) yields items² tuples per document.
func itemFixture(tb testing.TB, docs, items int) *Searcher {
	tb.Helper()
	col := store.NewCollection()
	for d := 0; d < docs; d++ {
		var sb strings.Builder
		sb.WriteString("<c>")
		for j := 0; j < items; j++ {
			fmt.Fprintf(&sb, "<item><tc>t%d</tc><pc>%d</pc></item>", j, j)
		}
		sb.WriteString("</c>")
		if _, err := col.AddXML(fmt.Sprintf("d%d", d), []byte(sb.String())); err != nil {
			tb.Fatal(err)
		}
	}
	return New(index.Build(col), nil)
}

// TestRankAllocsPinned pins the cost model of rank: grouping and unit
// building allocate per search (slices that grow with the number of
// candidate documents), not per match, and a tuple allocates
// only when it enters the top-k. Nine times the tuples per document must
// cost exactly the same allocations, and few of them.
func TestRankAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation perturbs allocation counts")
	}
	q := query.MustParse(`(tc, *) AND (pc, *)`)
	opts := Options{K: 10, Parallelism: 1}
	opts.defaults()
	var allocs []float64
	var scored []int
	for _, items := range []int{2, 6} {
		s := itemFixture(t, 40, items)
		matches, err := s.fetchMatches(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, st := s.rank(matches, opts)
		scored = append(scored, st.TuplesScored)
		allocs = append(allocs, testing.AllocsPerRun(50, func() { s.rank(matches, opts) }))
	}
	if scored[1] <= scored[0] {
		t.Fatalf("tuples scored = %v, want more at 6 items than at 2", scored)
	}
	if allocs[0] != allocs[1] || allocs[0] > 60 {
		t.Errorf("rank allocs = %v at 2 and 6 items per document, want equal and <= 60", allocs)
	}
}

// BenchmarkRank measures rank alone — grouping, unit building and the TA
// scan — on WorldFactbook 0.25 for the two queries of the paper's Figure-6
// journey, sequentially. Matches are fetched once; each iteration ranks a
// fresh copy, because rank sorts over-long runs in place.
func BenchmarkRank(b *testing.B) {
	col := datagen.WorldFactbook(0.25)
	g := graph.New(col, graph.DiscoverOptions{}, nil).Extend(col, 0, col.LiveDocs())
	s := New(index.Build(col), g)
	for _, tc := range []struct{ name, q string }{
		{"trade", `(*, "United States") AND (trade_country, *) AND (percentage, *)`},
		{"gdp", `(name, "United States") AND (GDP*, *)`},
	} {
		matches, err := s.fetchMatches(query.MustParse(tc.q), 1)
		if err != nil {
			b.Fatal(err)
		}
		work := make([][]index.Match, len(matches))
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			opts := Options{K: 10, Parallelism: 1}
			opts.defaults()
			for b.Loop() {
				for i, ms := range matches {
					work[i] = append(work[i][:0], ms...)
				}
				s.rank(work, opts)
			}
		})
	}
}

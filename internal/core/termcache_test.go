package core

import (
	"fmt"
	"slices"
	"testing"

	"seda/internal/index"
	"seda/internal/obs"
	"seda/internal/query"
)

// TestTermCacheSeesDelete: a term cached on one generation is answered
// afresh by the next. Deleting a document the cached answer includes
// drops its matches from the new generation's answer, while the old
// generation keeps serving its own cached one. The term-cache metric set
// carries over to the new generation, and its counters keep counting.
func TestTermCacheSeesDelete(t *testing.T) {
	var raw []IngestDoc
	for _, name := range []string{"a", "b", "c", "d"} {
		raw = append(raw, IngestDoc{Name: name, XML: []byte(fmt.Sprintf(
			`<country><name>%s</name><item><trade_country>x</trade_country></item><item><trade_country>y</trade_country></item></country>`, name))})
	}
	eng := scratchEngine(t, raw, Config{Shards: 2})
	m := index.NewTermCacheMetrics(obs.NewRegistry())
	eng.SetTermCacheMetrics(m)
	term := query.MustParse(`(trade_country, *)`).Terms[0]
	docsOf := func(e *Engine) []string {
		t.Helper()
		ms, err := e.Index().MatchTerm(term)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, mt := range ms {
			names = append(names, e.Collection().Doc(mt.Ref.Doc).Name)
		}
		return names
	}
	all := []string{"a", "a", "b", "b", "c", "c", "d", "d"}
	for i := 0; i < 2; i++ {
		if got := docsOf(eng); !slices.Equal(got, all) {
			t.Fatalf("fetch %d before the delete: %v, want %v", i, got, all)
		}
	}
	if st := eng.TermCacheStats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("before the delete: %+v, want 2 misses then 2 hits (one per shard)", st)
	}

	next, n, err := eng.DeleteDocuments("b")
	if err != nil || n != 1 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	if got, want := docsOf(next), []string{"a", "a", "c", "c", "d", "d"}; !slices.Equal(got, want) {
		t.Errorf("next generation: %v, want %v", got, want)
	}
	if st := next.TermCacheStats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("next generation: %+v, want a cold cache (2 misses)", st)
	}
	if got := docsOf(eng); !slices.Equal(got, all) {
		t.Errorf("old generation after the delete: %v, want its own answer %v", got, all)
	}
	if got := next.Index().TermCacheMetrics(); got != m {
		t.Error("the next generation did not inherit the term-cache metric set")
	}
	if h, ms := m.Hits.Value(), m.Misses.Value(); h != 4 || ms != 4 {
		t.Errorf("shared counters: %d hits, %d misses, want 4 and 4 across both generations", h, ms)
	}
}

package topk

import (
	"fmt"
	"strings"
	"testing"

	"seda/internal/graph"
	"seda/internal/index"
	"seda/internal/query"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// TestSearchMaskedIndex pins the tombstone contract at the topk layer:
// a search over a masked index (dead documents filtered at match-fetch
// time, IDF re-derived over the survivors) returns exactly the results
// of a search over an index built from scratch over the surviving
// documents. The core lifecycle suite proves this end to end on the
// full corpora; this test keeps the layer-local failure mode local —
// a stale document frequency or an unfiltered shard fast path fails
// here without the engine on top.
func TestSearchMaskedIndex(t *testing.T) {
	c, ix, _ := fixture(t)

	// Mask doc2 (the second Mexico document): it contributes to the
	// "United States" and "mexico" postings, so both the match sets and
	// the document frequencies must shrink.
	mc, err := c.WithTombstones([]xmldoc.DocID{2})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := ix.Extend(mc, xmldoc.DocID(c.NumDocs()), nil)
	if err != nil {
		t.Fatal(err)
	}
	mg := graph.New(mc, graph.DiscoverOptions{IDRefAttrs: []string{"bordering"}}, nil).Extend(mc, 0, mc.LiveDocs())

	// The scratch side: the three survivors re-added under their own
	// names (ids renumber, names identify).
	sc := store.NewCollection()
	for _, id := range []xmldoc.DocID{0, 1, 3} {
		doc := c.Doc(id)
		var b strings.Builder
		if err := doc.WriteXML(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.AddXML(doc.Name, []byte(b.String())); err != nil {
			t.Fatal(err)
		}
	}
	six := index.Build(sc)
	sg := graph.New(sc, graph.DiscoverOptions{IDRefAttrs: []string{"bordering"}}, nil).Extend(sc, 0, sc.LiveDocs())

	render := func(col *store.Collection, rs []Result) string {
		var b strings.Builder
		for _, r := range rs {
			fmt.Fprintf(&b, "%.6f", r.Score)
			for _, n := range r.Nodes {
				fmt.Fprintf(&b, " %s@%s", col.Doc(n.Doc).Name, n.Dewey)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}

	for _, qs := range []string{
		`(*, "United States")`,
		`(name, mexico)`,
		`(name, *)`,
		`(*, "United States") AND (trade_country, *) AND (percentage, *)`,
		`(trade_country, germany) AND (percentage, *)`,
	} {
		q := query.MustParse(qs)
		mrs, err := New(mix, mg).Search(q, Options{K: 10})
		if err != nil {
			t.Fatalf("%s: masked search: %v", qs, err)
		}
		srs, err := New(six, sg).Search(q, Options{K: 10})
		if err != nil {
			t.Fatalf("%s: scratch search: %v", qs, err)
		}
		if got, want := render(mc, mrs), render(sc, srs); got != want {
			t.Errorf("%s: masked search diverges from survivors\nmasked:\n%s\nscratch:\n%s", qs, got, want)
		}
		// The masked document must never surface.
		for _, r := range mrs {
			for _, n := range r.Nodes {
				if n.Doc == 2 {
					t.Fatalf("%s: masked document in results: %+v", qs, r)
				}
			}
		}
	}
}

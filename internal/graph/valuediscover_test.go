package graph

import (
	"fmt"
	"testing"

	"seda/internal/store"
)

// valueFixture: country name registry referenced by trade_country values.
func valueFixture(t testing.TB) *store.Collection {
	t.Helper()
	c := store.NewCollection()
	countries := []string{"China", "Canada", "Mexico", "Germany"}
	for i, name := range countries {
		if _, err := c.AddXML(fmt.Sprintf("c%d", i),
			[]byte(fmt.Sprintf(`<country><name>%s</name><code>%d</code></country>`, name, i))); err != nil {
			t.Fatal(err)
		}
	}
	// Trade documents referencing countries by name.
	trades := []string{"China", "Canada", "China", "Mexico", "Germany"}
	for i, p := range trades {
		if _, err := c.AddXML(fmt.Sprintf("t%d", i),
			[]byte(fmt.Sprintf(`<trade><partner>%s</partner><volume>%d</volume></trade>`, p, 100+i))); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestDiscoverValueLinks(t *testing.T) {
	c := valueFixture(t)
	g := New(c, DiscoverOptions{}, nil)
	cands := g.DiscoverValueLinks(ValueLinkOptions{})
	var found *ValueLinkCandidate
	for i := range cands {
		if cands[i].FromPath == "/trade/partner" && cands[i].ToPath == "/country/name" {
			found = &cands[i]
		}
		// The reverse direction must not be reported: country names are not
		// contained in partners (Mexico... actually all 4 countries appear?
		// China, Canada, Mexico, Germany all appear in trades, so reverse
		// containment is 1.0 too — but /country/name values are NOT unique
		// keys on the trade side (China repeats), so /trade/partner is not
		// a key candidate.
	}
	if found == nil {
		t.Fatalf("partner->name link not discovered: %+v", cands)
	}
	if found.Support != 5 {
		t.Errorf("support = %d, want 5", found.Support)
	}
	if found.Containment != 1.0 {
		t.Errorf("containment = %v", found.Containment)
	}
	if found.Label != "partner" {
		t.Errorf("label = %q, want the foreign leaf name", found.Label)
	}
	// Discovery only proposes; a graph folded with the candidate as a spec
	// links every trade to its country.
	if g.NumEdges() != 0 {
		t.Errorf("discovery added %d edges", g.NumEdges())
	}
	spec := ValueLinkSpec{FromPath: found.FromPath, ToPath: found.ToPath, Label: found.Label}
	if n := folded(c, DiscoverOptions{}, spec).NumEdges(); n != 5 {
		t.Errorf("edges from the candidate's spec = %d, want 5", n)
	}
	for _, cand := range cands {
		if cand.FromPath == "/country/name" && cand.ToPath == "/trade/partner" {
			t.Error("non-key side reported as key")
		}
	}
}

func TestDiscoverValueLinksThresholds(t *testing.T) {
	c := valueFixture(t)
	g := New(c, DiscoverOptions{}, nil)
	// Impossible support requirement yields nothing.
	if cands := g.DiscoverValueLinks(ValueLinkOptions{MinSupport: 100}); len(cands) != 0 {
		t.Errorf("high support still found %v", cands)
	}
	// Dirty references: one dangling partner value drops containment to
	// 4/5 = 0.8, accepted at 0.7 but rejected at 0.95.
	if _, err := c.AddXML("dirty", []byte(`<trade><partner>Atlantis</partner><volume>9</volume></trade>`)); err != nil {
		t.Fatal(err)
	}
	g2 := New(c, DiscoverOptions{}, nil)
	strict := g2.DiscoverValueLinks(ValueLinkOptions{})
	for _, cand := range strict {
		if cand.FromPath == "/trade/partner" {
			t.Errorf("dirty link accepted at default containment: %+v", cand)
		}
	}
	loose := g2.DiscoverValueLinks(ValueLinkOptions{MinContainment: 0.7})
	ok := false
	for _, cand := range loose {
		if cand.FromPath == "/trade/partner" && cand.ToPath == "/country/name" {
			ok = true
		}
	}
	if !ok {
		t.Errorf("loose containment rejected the link: %+v", loose)
	}
}

func TestDiscoverValueLinksSkipsIntraSubtree(t *testing.T) {
	c := store.NewCollection()
	for i := 0; i < 4; i++ {
		if _, err := c.AddXML(fmt.Sprintf("d%d", i),
			[]byte(fmt.Sprintf(`<rec><a>v%d</a><b>v%d</b></rec>`, i, i))); err != nil {
			t.Fatal(err)
		}
	}
	g := New(c, DiscoverOptions{}, nil)
	cands := g.DiscoverValueLinks(ValueLinkOptions{})
	if len(cands) != 0 {
		t.Errorf("intra-subtree pairs reported: %+v", cands)
	}
}

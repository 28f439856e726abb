package cube

import (
	"fmt"
	"strings"
	"testing"

	"seda/internal/graph"
	"seda/internal/index"
	"seda/internal/keys"
	"seda/internal/query"
	"seda/internal/store"
	"seda/internal/twig"
)

// TestPrimaryKeyWarning reproduces the paper's §1 scenario: without the
// year component, "there would be no information on what distinguishes the
// records that contain 'China 12.5%' and 'China 13.8%'" — the builder must
// flag the missing primary key.
func TestPrimaryKeyWarning(t *testing.T) {
	c := store.NewCollection()
	docs := []string{
		`<country><name>United States</name><year>2004</year><economy><import_partners>
			<item><trade_country>China</trade_country><percentage>12.5%</percentage></item>
		</import_partners></economy></country>`,
		`<country><name>United States</name><year>2005</year><economy><import_partners>
			<item><trade_country>China</trade_country><percentage>13.8%</percentage></item>
		</import_partners></economy></country>`,
	}
	for i, d := range docs {
		if _, err := c.AddXML(fmt.Sprintf("d%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	cat := NewCatalog()
	// Year deliberately missing from the key.
	if err := cat.AddFact("pct", ContextEntry{
		Context: pcPath,
		Key:     keys.MustParse("(/country/name, ../trade_country)"),
	}); err != nil {
		t.Fatal(err)
	}
	ix := index.Build(c)
	e := twig.New(ix, graph.New(c, graph.DiscoverOptions{}, nil))
	tm, err := query.NewTerm("percentage", "*")
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := e.ComputeAll(twig.Plan{Terms: []query.Term{tm}})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(c, cat)
	star, err := b.Build(tuples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range star.Warnings {
		if strings.Contains(w, "no primary key") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing primary-key warning; warnings = %v", star.Warnings)
	}
	// With the full paper key there is no warning.
	cat2 := NewCatalog()
	if err := cat2.AddFact("pct", ContextEntry{
		Context: pcPath,
		Key:     keys.MustParse("(/country/name, /country/year, ../trade_country)"),
	}); err != nil {
		t.Fatal(err)
	}
	b2 := NewBuilder(c, cat2)
	star2, err := b2.Build(tuples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range star2.Warnings {
		if strings.Contains(w, "no primary key") {
			t.Errorf("spurious primary-key warning: %v", w)
		}
	}
}

package seda

// Failure-injection and robustness tests over the public API: malformed
// inputs must fail with errors (never panic), degenerate corpora must stay
// usable, and Unicode content must survive the whole pipeline.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestQueryParserNeverPanics fuzzes the query parser with random
// printable garbage. Outcomes must be a query or an error — never a panic.
func TestQueryParserNeverPanics(t *testing.T) {
	alphabet := `()",*|/ ANDORnotabc123∧`
	f := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		for i := 0; i < r.Intn(60); i++ {
			sb.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		_, _ = ParseQuery(sb.String())
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestKeyParserNeverPanics fuzzes the relative-key parser.
func TestKeyParserNeverPanics(t *testing.T) {
	alphabet := `()/.,a bc_`
	f := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		for i := 0; i < r.Intn(40); i++ {
			sb.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		_, _ = ParseKey(sb.String())
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSingleDocumentCollection(t *testing.T) {
	col := NewCollection()
	if _, err := col.AddXML("only", []byte(`<r><a>hello world</a></r>`)); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(col, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewSession(`(a, hello)`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Errorf("results = %d", len(rs))
	}
	if len(eng.Dataguides().Guides) != 1 {
		t.Errorf("guides = %d", len(eng.Dataguides().Guides))
	}
}

func TestUnicodeContentEndToEnd(t *testing.T) {
	col := NewCollection()
	docs := []string{
		`<país><nombre>España</nombre><capital>Madrid</capital></país>`,
		`<país><nombre>Perú</nombre><capital>Lima</capital></país>`,
		`<国><名前>日本</名前><首都>東京</首都></国>`,
	}
	for i, d := range docs {
		if _, err := col.AddXML(strings.Repeat("u", i+1), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := NewEngine(col, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewSession(`(nombre, españa)`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("unicode search results = %d", len(rs))
	}
	if got := col.Content(rs[0].Nodes[0]); got != "España" {
		t.Errorf("content = %q", got)
	}
	// CJK tags intern and render.
	if p := col.Dict().LookupPath("/国/首都"); p == 0 {
		t.Error("CJK path not interned")
	}
}

func TestDanglingReferencesStayUsable(t *testing.T) {
	col := NewCollection()
	if _, err := col.AddXML("a", []byte(`<a id="x" ref="missing"><v>1</v></a>`)); err != nil {
		t.Fatal(err)
	}
	if _, err := col.AddXML("b", []byte(`<b ref="also-missing"><v>2</v></b>`)); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(col, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Graph().NumEdges() != 0 {
		t.Errorf("dangling refs created %d edges", eng.Graph().NumEdges())
	}
	s, err := eng.NewSession(`(v, *)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TopK(5); err != nil {
		t.Fatal(err)
	}
}

func TestDeepNestingSurvives(t *testing.T) {
	var sb strings.Builder
	const depth = 200
	for i := 0; i < depth; i++ {
		sb.WriteString("<n>")
	}
	sb.WriteString("deep")
	for i := 0; i < depth; i++ {
		sb.WriteString("</n>")
	}
	col := NewCollection()
	if _, err := col.AddXML("deep", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(col, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewSession(`(*, deep)`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.TopK(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Nodes[0].Dewey.Level() != depth {
		t.Errorf("deep match: %v", rs)
	}
}

// TestValueLinkDiscoveryPublicAPI: discovered candidates only propose
// links; given back as Config.ValueLinks they become edges that every
// later generation re-derives, so the linked answer survives a delete of
// an unrelated document.
func TestValueLinkDiscoveryPublicAPI(t *testing.T) {
	col := NewCollection()
	for i, d := range []string{
		`<country><name>China</name></country>`,
		`<country><name>Canada</name></country>`,
		`<country><name>Mexico</name></country>`,
		`<trade><partner>China</partner></trade>`,
		`<trade><partner>Canada</partner></trade>`,
		`<trade><partner>Mexico</partner></trade>`,
	} {
		if _, err := col.AddXML(fmt.Sprintf("doc%d.xml", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	plain, err := NewEngine(col, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cands := plain.Graph().DiscoverValueLinks(ValueLinkOptions{})
	if len(cands) == 0 {
		t.Fatal("no value links discovered through public API")
	}
	if plain.Graph().NumEdges() != 0 {
		t.Fatalf("discovery added %d edges to a published graph", plain.Graph().NumEdges())
	}
	var cfg Config
	for _, c := range cands {
		cfg.ValueLinks = append(cfg.ValueLinks, ValueLink{FromPath: c.FromPath, ToPath: c.ToPath, Label: c.Label})
	}
	eng, err := NewEngine(col, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With the edges in place, cross-doc search connects trade to country.
	linked := func(eng *Engine) int {
		t.Helper()
		s, err := eng.NewSession(`(partner, china) AND (name, china)`)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := s.TopK(3)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range rs {
			if r.Nodes[0].Doc != r.Nodes[1].Doc {
				n++
			}
		}
		return n
	}
	if linked(plain) != 0 {
		t.Error("linked answer without value links")
	}
	if linked(eng) == 0 {
		t.Fatal("no linked answer over discovered value links")
	}
	after, _, err := eng.DeleteDocuments("doc5.xml") // the Mexico trade
	if err != nil {
		t.Fatal(err)
	}
	if linked(after) == 0 {
		t.Error("linked answer lost after deleting an unrelated document")
	}
}

func TestEntityRegistryPublicAPI(t *testing.T) {
	eng := wfbEngine(t, 0.02)
	eng.Entities().Register("/country/name", "country")
	eng.Entities().RegisterPrefix("/country/economy/import_partners", "import partner")
	s, err := eng.NewSession(`(*, "United States")`)
	if err != nil {
		t.Fatal(err)
	}
	labeled := 0
	for _, e := range s.ContextSummary()[0].Entries {
		if e.Entity != "" {
			labeled++
		}
	}
	if labeled < 2 {
		t.Errorf("labeled contexts = %d, want >= 2", labeled)
	}
}

func TestEmptyAndPathologicalSearches(t *testing.T) {
	eng := wfbEngine(t, 0.02)
	// Very large K.
	s, err := eng.NewSession(`(percentage, *)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TopK(1_000_000); err != nil {
		t.Fatal(err)
	}
	// Zero K falls back to the default.
	if _, err := s.TopK(0); err != nil {
		t.Fatal(err)
	}
	// A term matching nothing plus a term matching plenty: no tuples.
	s2, err := eng.NewSession(`(percentage, *) AND (*, qqqqzzzz)`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s2.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Errorf("results = %d", len(rs))
	}
}

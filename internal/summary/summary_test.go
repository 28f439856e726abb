package summary

import (
	"fmt"
	"reflect"
	"testing"

	"seda/internal/dataguide"
	"seda/internal/graph"
	"seda/internal/index"
	"seda/internal/query"
	"seda/internal/store"
	"seda/internal/topk"
)

// fixture mirrors the paper's running example: "United States" in three
// contexts, trade_country and percentage each in two (import/export).
func fixture(t testing.TB) (*store.Collection, *index.Index, *graph.Graph, *dataguide.Set) {
	t.Helper()
	c := store.NewCollection()
	docs := []string{
		`<country><name>United States</name><year>2002</year><economy><GDP>10.082T</GDP></economy></country>`,
		`<country><name>Mexico</name><year>2003</year><economy>
			<import_partners>
				<item><trade_country>United States</trade_country><percentage>70.6%</percentage></item>
				<item><trade_country>Germany</trade_country><percentage>3.5%</percentage></item>
			</import_partners></economy></country>`,
		`<country><name>Mexico</name><year>2005</year><economy>
			<export_partners>
				<item><trade_country>United States</trade_country><percentage>15.3%</percentage></item>
			</export_partners></economy></country>`,
	}
	for i, d := range docs {
		if _, err := c.AddXML(fmt.Sprintf("doc%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	ix := index.Build(c)
	g := graph.New(c, graph.DiscoverOptions{}, nil)
	dg, err := dataguide.Build(c, g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	return c, ix, g, dg
}

var query1 = `(*, "United States") AND (trade_country, *) AND (percentage, *)`

func TestContextSummaryQuery1(t *testing.T) {
	_, ix, _, _ := fixture(t)
	buckets := Contexts(ix, query.MustParse(query1))
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	// Term 1: "United States" in 3 contexts (name, import tc, export tc).
	if got := len(buckets[0].Entries); got != 3 {
		t.Fatalf("US contexts = %d, want 3: %v", got, entryPaths(buckets[0]))
	}
	// Term 2: trade_country in 2 contexts; term 3: percentage in 2.
	if got := len(buckets[1].Entries); got != 2 {
		t.Errorf("trade_country contexts = %d, want 2: %v", got, entryPaths(buckets[1]))
	}
	if got := len(buckets[2].Entries); got != 2 {
		t.Errorf("percentage contexts = %d, want 2: %v", got, entryPaths(buckets[2]))
	}
	// 3 x 2 x 2 = the paper's "12 different ways of combining these nodes".
	combos := len(buckets[0].Entries) * len(buckets[1].Entries) * len(buckets[2].Entries)
	if combos != 12 {
		t.Errorf("combinations = %d, want 12", combos)
	}
	// Frequencies are collection-wide document frequencies, sorted desc.
	e := buckets[0].Entries
	for i := 1; i < len(e); i++ {
		if e[i-1].DocFreq < e[i].DocFreq {
			t.Error("entries not sorted by DocFreq")
		}
	}
	// /country/name appears in all 3 docs.
	for _, en := range e {
		if en.PathString == "/country/name" && en.DocFreq != 3 {
			t.Errorf("/country/name DocFreq = %d, want 3", en.DocFreq)
		}
	}
}

func TestContextSummaryWithPathContext(t *testing.T) {
	_, ix, _, _ := fixture(t)
	q := query.MustParse(`(/country/economy/import_partners/item/trade_country, "United States")`)
	buckets := Contexts(ix, q)
	if len(buckets[0].Entries) != 1 {
		t.Fatalf("entries = %v", entryPaths(buckets[0]))
	}
	if buckets[0].Entries[0].PathString != "/country/economy/import_partners/item/trade_country" {
		t.Errorf("path = %q", buckets[0].Entries[0].PathString)
	}
}

func TestContextSummaryLiftedContext(t *testing.T) {
	_, ix, _, _ := fixture(t)
	// (country, "United States"): the term's matches lift to /country, and
	// the summary shows the anchor paths below it.
	q := query.MustParse(`(country, "United States")`)
	buckets := Contexts(ix, q)
	if len(buckets[0].Entries) != 3 {
		t.Errorf("entries = %v", entryPaths(buckets[0]))
	}
}

func entryPaths(b ContextBucket) []string {
	var out []string
	for _, e := range b.Entries {
		out = append(out, e.PathString)
	}
	return out
}

func runTopK(t *testing.T, ix *index.Index, g *graph.Graph, qs string, k int) []topk.Result {
	t.Helper()
	s := topk.New(ix, g)
	rs, err := s.Search(query.MustParse(qs), topk.Options{K: k, PerDocPerTerm: 100})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestConnectionSummaryTwoWays(t *testing.T) {
	c, ix, g, dg := fixture(t)
	// Restrict to the import context as the paper's user does, then
	// summarize connections between trade_country and percentage.
	rs := runTopK(t, ix, g,
		`(/country/economy/import_partners/item/trade_country, *) AND (/country/economy/import_partners/item/percentage, *)`, 50)
	if len(rs) != 4 {
		t.Fatalf("top-k results = %d, want 4 (2x2 items)", len(rs))
	}
	s := NewSummarizer(dg, g)
	conns := s.Connections(rs)
	var trees []Connection
	for _, cn := range conns {
		if cn.Kind == Tree {
			trees = append(trees, cn)
		}
	}
	if len(trees) != 2 {
		t.Fatalf("tree connections = %d, want 2 (same item / across items): %v",
			len(trees), describeAll(c, conns))
	}
	dict := c.Dict()
	joins := []string{dict.Path(trees[0].JoinPath), dict.Path(trees[1].JoinPath)}
	wantItem := "/country/economy/import_partners/item"
	wantIP := "/country/economy/import_partners"
	if !(joins[0] == wantItem && joins[1] == wantIP) {
		t.Errorf("joins = %v (support ordering should put same-item first)", joins)
	}
	// Both connections are instantiated: same-item pairs (2) and
	// cross-item pairs (2).
	if trees[0].Support != 2 || trees[1].Support != 2 {
		t.Errorf("supports = %d, %d", trees[0].Support, trees[1].Support)
	}
	for _, tr := range trees {
		if tr.FalsePositive {
			t.Errorf("instantiated connection marked false positive: %s", tr.Describe(dict))
		}
	}
	// Shorter connection (same item) sorts first on equal support.
	if trees[0].Length >= trees[1].Length {
		t.Errorf("lengths = %d, %d", trees[0].Length, trees[1].Length)
	}
}

func TestConnectionFalsePositives(t *testing.T) {
	// A corpus where the dataguide proposes a cross-item connection but the
	// keyword restriction leaves only one item in the results: the
	// cross-item connection gets no support and is flagged (§6.1).
	c := store.NewCollection()
	if _, err := c.AddXML("d", []byte(`<country><economy><import_partners>
		<item><trade_country>China</trade_country><percentage>15%</percentage></item>
		<item><trade_country>Canada</trade_country><percentage>16.9%</percentage></item>
	 </import_partners></economy></country>`)); err != nil {
		t.Fatal(err)
	}
	ix := index.Build(c)
	g := graph.New(c, graph.DiscoverOptions{}, nil)
	dg, err := dataguide.Build(c, g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	rs := runTopK(t, ix, g, `(trade_country, china) AND (percentage, "15%")`, 10)
	if len(rs) != 1 {
		t.Fatalf("results = %d, want 1", len(rs))
	}
	s := NewSummarizer(dg, g)
	conns := s.Connections(rs)
	if len(conns) != 2 {
		t.Fatalf("connections = %d, want 2: %v", len(conns), describeAll(c, conns))
	}
	var fp, tp int
	for _, cn := range conns {
		if cn.FalsePositive {
			fp++
		} else {
			tp++
		}
	}
	if fp != 1 || tp != 1 {
		t.Errorf("false positives = %d, true = %d, want 1/1", fp, tp)
	}
}

func TestConnectionCache(t *testing.T) {
	c, ix, g, dg := fixture(t)
	rs := runTopK(t, ix, g, `(trade_country, *) AND (percentage, *)`, 50)
	s := NewSummarizer(dg, g)
	s.Connections(rs)
	missesAfterFirst := s.CacheMisses
	if missesAfterFirst == 0 {
		t.Fatal("first run should miss")
	}
	warm := s.Connections(rs)
	if s.CacheMisses != missesAfterFirst {
		t.Errorf("second run missed: %d -> %d", missesAfterFirst, s.CacheMisses)
	}
	if s.CacheHits == 0 {
		t.Error("second run should hit the cache")
	}
	// The warm answer is the one a cold summarizer computes.
	if cold := NewSummarizer(dg, g).Connections(rs); !reflect.DeepEqual(warm, cold) {
		t.Errorf("cached connections diverge from a fresh summarizer's:\n warm %v\n cold %v", describeAll(c, warm), describeAll(c, cold))
	}
}

func TestConnectionLinkEdges(t *testing.T) {
	c := store.NewCollection()
	for i, d := range []string{
		`<country id="us"><name>United States</name></country>`,
		`<sea id="pac" bordering="us"><name>Pacific Ocean</name></sea>`,
	} {
		if _, err := c.AddXML(fmt.Sprintf("d%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	ix := index.Build(c)
	g := graph.New(c, graph.DiscoverOptions{IDRefAttrs: []string{"bordering"}}, nil).Extend(c, 0, c.LiveDocs())
	dg, err := dataguide.Build(c, g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	rs := runTopK(t, ix, g, `(name, pacific) AND (name, united)`, 10)
	if len(rs) != 1 {
		t.Fatalf("results = %d", len(rs))
	}
	s := NewSummarizer(dg, g)
	conns := s.Connections(rs)
	found := false
	for _, cn := range conns {
		if cn.Kind == LinkEdge && cn.Support > 0 {
			found = true
			if cn.Link.Label != "sea" {
				t.Errorf("link label = %q", cn.Link.Label)
			}
		}
	}
	if !found {
		t.Errorf("no supported link connection: %v", describeAll(c, conns))
	}
}

func TestConnectionsEmptyResults(t *testing.T) {
	_, _, g, dg := fixture(t)
	s := NewSummarizer(dg, g)
	if got := s.Connections(nil); got != nil {
		t.Errorf("Connections(nil) = %v", got)
	}
}

func describeAll(c *store.Collection, conns []Connection) []string {
	var out []string
	for _, cn := range conns {
		out = append(out, fmt.Sprintf("%s (support=%d fp=%v)", cn.Describe(c.Dict()), cn.Support, cn.FalsePositive))
	}
	return out
}

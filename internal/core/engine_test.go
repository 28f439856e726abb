package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"seda/internal/cube"
	"seda/internal/keys"
	"seda/internal/rel"
	"seda/internal/store"
	"seda/internal/summary"
)

// corpus builds the Figure 2/3 mini world: three annual US docs plus a
// Mexico doc with import and export variants.
func corpus(t testing.TB) *store.Collection {
	t.Helper()
	c := store.NewCollection()
	mk := func(name, year, kind string, items [][2]string) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, `<country><name>%s</name><year>%s</year><economy>`, name, year)
		if year < "2005" {
			fmt.Fprintf(&sb, `<GDP>10.082T</GDP>`)
		} else {
			fmt.Fprintf(&sb, `<GDP_ppp>12.31T</GDP_ppp>`)
		}
		fmt.Fprintf(&sb, `<%s>`, kind)
		for _, it := range items {
			fmt.Fprintf(&sb, `<item><trade_country>%s</trade_country><percentage>%s</percentage></item>`, it[0], it[1])
		}
		fmt.Fprintf(&sb, `</%s></economy></country>`, kind)
		return sb.String()
	}
	docs := []string{
		mk("United States", "2004", "import_partners", [][2]string{{"China", "12.5%"}, {"Mexico", "10.7%"}}),
		mk("United States", "2005", "import_partners", [][2]string{{"China", "13.8%"}, {"Mexico", "10.3%"}}),
		mk("United States", "2006", "import_partners", [][2]string{{"China", "15%"}, {"Canada", "16.9%"}}),
		mk("Mexico", "2003", "export_partners", [][2]string{{"United States", "70.6%"}}),
	}
	for i, d := range docs {
		if _, err := c.AddXML(fmt.Sprintf("doc%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func newEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := NewEngine(corpus(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineConstruction(t *testing.T) {
	e := newEngine(t)
	if e.Index() == nil || e.Graph() == nil || e.Dataguides() == nil || e.Catalog() == nil || e.Summarizer() == nil {
		t.Fatal("engine components missing")
	}
	if len(e.BuildTimings) < 3 {
		t.Errorf("timings = %v", e.BuildTimings)
	}
	if _, err := NewEngine(nil, Config{}); err == nil {
		t.Error("nil collection accepted")
	}
	if _, err := NewEngine(store.NewCollection(), Config{}); err == nil {
		t.Error("empty collection accepted")
	}
	if _, err := NewEngine(corpus(t), Config{DataguideThreshold: 3}); err == nil {
		t.Error("bad threshold accepted")
	}
}

// TestFigure6Flow walks the whole control flow of Figure 6: search →
// context summary → refinement → top-k again → connection summary →
// selection → complete results → cube → OLAP.
func TestFigure6Flow(t *testing.T) {
	e := newEngine(t)
	// Figure 3(b)'s catalog.
	baseKey := keys.MustParse("(/country/name, /country/year)")
	if err := e.Catalog().AddDimension("country", cube.ContextEntry{Context: "/country/name", Key: baseKey}); err != nil {
		t.Fatal(err)
	}
	if err := e.Catalog().AddDimension("year", cube.ContextEntry{Context: "/country/year", Key: baseKey}); err != nil {
		t.Fatal(err)
	}
	if err := e.Catalog().AddDimension("import-country", cube.ContextEntry{
		Context: "/country/economy/import_partners/item/trade_country",
		Key:     keys.MustParse("(/country/name, /country/year, .)"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Catalog().AddFact("import-trade-percentage", cube.ContextEntry{
		Context: "/country/economy/import_partners/item/percentage",
		Key:     keys.MustParse("(/country/name, /country/year, ../trade_country)"),
	}); err != nil {
		t.Fatal(err)
	}

	s, err := e.NewSession(`(*, "United States") AND (trade_country, *) AND (percentage, *)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TopK(10); err != nil {
		t.Fatal(err)
	}
	ctxs := s.ContextSummary()
	if len(ctxs) != 3 {
		t.Fatalf("context buckets = %d", len(ctxs))
	}
	// "United States" appears in 3 contexts in this corpus (name, import
	// tc as the export partner of Mexico... actually name + export tc).
	if len(ctxs[0].Entries) < 2 {
		t.Fatalf("US contexts = %d", len(ctxs[0].Entries))
	}
	// The user picks the import contexts (the §5 refinement).
	if err := s.RefineContexts(0, "/country/name"); err != nil {
		t.Fatal(err)
	}
	if err := s.RefineContexts(1, "/country/economy/import_partners/item/trade_country"); err != nil {
		t.Fatal(err)
	}
	if err := s.RefineContexts(2, "/country/economy/import_partners/item/percentage"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TopK(20); err != nil {
		t.Fatal(err)
	}
	conns, err := s.ConnectionSummary()
	if err != nil {
		t.Fatal(err)
	}
	if len(conns) == 0 {
		t.Fatal("no connections proposed")
	}
	// Choose: name~trade_country via /country, trade_country~percentage
	// via item (supported, shortest).
	var chosen []int
	dict := e.Collection().Dict()
	for i, cn := range conns {
		if cn.Kind != summary.Tree {
			continue
		}
		jp := dict.Path(cn.JoinPath)
		if (cn.TermA == 0 && cn.TermB == 1 && jp == "/country") ||
			(cn.TermA == 1 && cn.TermB == 2 && jp == "/country/economy/import_partners/item") {
			chosen = append(chosen, i)
		}
	}
	if len(chosen) != 2 {
		t.Fatalf("expected 2 choosable connections, got %d of %d", len(chosen), len(conns))
	}
	if err := s.ChooseConnections(chosen...); err != nil {
		t.Fatal(err)
	}
	tuples, err := s.CompleteResults()
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 6 {
		t.Fatalf("R(q) = %d, want 6", len(tuples))
	}
	star, err := s.BuildCube(cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ft := star.FactTable("import-trade-percentage")
	if ft == nil || ft.NumRows() != 6 {
		t.Fatalf("fact table: %v", star.FactTables)
	}
	// OLAP hand-off: SUM by import country.
	oc, err := e.Analyze(star, "import-trade-percentage", []string{"name", "year", "trade_country"})
	if err != nil {
		t.Fatal(err)
	}
	byPartner, err := oc.Aggregate([]string{"trade_country"}, rel.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if byPartner.NumRows() != 3 {
		t.Errorf("partners = %d", byPartner.NumRows())
	}
	agg, err := e.Aggregate(star, "import-trade-percentage", []string{"year"}, rel.Sum)
	if err != nil || agg.NumRows() != 3 {
		t.Errorf("Aggregate: %v %v", agg, err)
	}
	// Phase timings recorded.
	for _, phase := range []string{"topk", "contexts", "connections", "complete", "cube"} {
		if _, ok := s.Timings[phase]; !ok {
			t.Errorf("missing timing for %s", phase)
		}
	}
}

func TestSessionGuards(t *testing.T) {
	e := newEngine(t)
	if _, err := e.NewSession("not a query"); err == nil {
		t.Error("bad query accepted")
	}
	s, err := e.NewSession(`(trade_country, *) AND (percentage, *)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ConnectionSummary(); err == nil {
		t.Error("connection summary before topk accepted")
	}
	if _, err := s.CompleteResults(); err == nil {
		t.Error("complete results without connections accepted")
	}
	if err := s.RefineContexts(9, "/x"); err == nil {
		t.Error("out-of-range term accepted")
	}
	if err := s.RefineContexts(0); err == nil {
		t.Error("empty selection accepted")
	}
	if _, err := s.TopK(5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ConnectionSummary(); err != nil {
		t.Fatal(err)
	}
	if err := s.ChooseConnections(999); err == nil {
		t.Error("out-of-range connection accepted")
	}
}

func TestResultTableAndDOT(t *testing.T) {
	e := newEngine(t)
	s, err := e.NewSession(`(trade_country, *) AND (percentage, *)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ConnectionsDOT(); err == nil {
		t.Error("DOT before summary accepted")
	}
	if _, err := s.TopK(10); err != nil {
		t.Fatal(err)
	}
	conns, err := s.ConnectionSummary()
	if err != nil {
		t.Fatal(err)
	}
	dot, err := s.ConnectionsDOT()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "digraph") {
		t.Errorf("dot = %q", dot)
	}
	// Choose the same-item connection and render Figure 3(a)'s table.
	idx := -1
	dict := e.Collection().Dict()
	for i, cn := range conns {
		if cn.Kind == summary.Tree && strings.HasSuffix(dict.Path(cn.JoinPath), "/item") {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no same-item connection")
	}
	if err := s.ChooseConnections(idx); err != nil {
		t.Fatal(err)
	}
	tab, err := s.ResultTable()
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"nodeid1", "path1", "nodeid2", "path2"}
	if strings.Join(tab.Cols, ",") != strings.Join(wantCols, ",") {
		t.Fatalf("cols = %v", tab.Cols)
	}
	if tab.NumRows() == 0 {
		t.Fatal("empty result table")
	}
	// Path columns carry full root-to-leaf paths; nodeid columns carry
	// Dewey refs — Figure 3(a)'s schema.
	if !strings.HasPrefix(tab.Rows[0][1].Str, "/country/") {
		t.Errorf("path cell = %q", tab.Rows[0][1].Str)
	}
	if !strings.Contains(tab.Rows[0][0].Str, "@") {
		t.Errorf("nodeid cell = %q", tab.Rows[0][0].Str)
	}
}

func TestSingleTermCompleteWithoutConnections(t *testing.T) {
	e := newEngine(t)
	s, err := e.NewSession(`(percentage, *)`)
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := s.CompleteResults()
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 7 {
		t.Errorf("single-term tuples = %d, want 7", len(tuples))
	}
}

// TestParallelEngineMatchesSequential: a parallel-built engine must be
// behaviorally identical to a sequential one — same dataguides, and the
// same (parallel-searched) top-k results as a sequential search.
func TestParallelEngineMatchesSequential(t *testing.T) {
	col := corpus(t)
	seqEng, err := NewEngine(col, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parEng, err := NewEngine(col, Config{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sg, pg := len(seqEng.Dataguides().Guides), len(parEng.Dataguides().Guides); sg != pg {
		t.Errorf("guide counts differ: sequential %d, parallel %d", sg, pg)
	}
	const q = `(*, "United States") AND (trade_country, *) AND (percentage, *)`
	ss, err := seqEng.NewSession(q)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := parEng.NewSession(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ss.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ps.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("parallel engine's top-k differs from sequential engine's")
	}
}

package seda

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seda/internal/keys"
	"seda/internal/summary"
)

// query1 is the paper's running example (§1).
const query1 = `(*, "United States") AND (trade_country, *) AND (percentage, *)`

const (
	nameP = "/country/name"
	tcP   = "/country/economy/import_partners/item/trade_country"
	pcP   = "/country/economy/import_partners/item/percentage"
	itP   = "/country/economy/import_partners/item"
)

// wfbEngine builds an engine over a scaled World Factbook corpus with the
// Figure 3(b) catalog loaded.
func wfbEngine(t testing.TB, scale float64) *Engine {
	t.Helper()
	col := WorldFactbook(scale)
	eng, err := NewEngine(col, Config{})
	if err != nil {
		t.Fatal(err)
	}
	baseKey, err := ParseKey("(/country/name, /country/year)")
	if err != nil {
		t.Fatal(err)
	}
	cat := eng.Catalog()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(cat.AddDimension("country", ContextEntry{Context: nameP, Key: baseKey}))
	must(cat.AddDimension("year", ContextEntry{Context: "/country/year", Key: baseKey}))
	must(cat.AddDimension("import-country", ContextEntry{Context: tcP, Key: keys.MustParse("(/country/name, /country/year, .)")}))
	must(cat.AddFact("import-trade-percentage", ContextEntry{Context: pcP, Key: keys.MustParse("(/country/name, /country/year, ../trade_country)")}))
	must(cat.AddFact("GDP",
		ContextEntry{Context: "/country/economy/GDP", Key: baseKey},
		ContextEntry{Context: "/country/economy/GDP_ppp", Key: baseKey},
	))
	return eng
}

// TestQuery1Figure3 walks the paper's full scenario on the generated World
// Factbook corpus: search, context disambiguation, connection choice,
// complete results, star schema, and an OLAP aggregate.
func TestQuery1Figure3(t *testing.T) {
	eng := wfbEngine(t, 0.05)
	s, err := eng.NewSession(query1)
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
	// The three §1 contexts of "United States" must all be present (plus
	// the long tail of stat contexts).
	have := map[string]bool{}
	for _, e := range ctxs[0].Entries {
		have[e.PathString] = true
	}
	for _, want := range []string{nameP, tcP, "/country/economy/export_partners/item/trade_country"} {
		if !have[want] {
			t.Errorf("US context summary missing %s", want)
		}
	}
	// trade_country and percentage each appear in import and export
	// contexts — the paper's 2x2.
	if len(ctxs[1].Entries) != 2 || len(ctxs[2].Entries) != 2 {
		t.Fatalf("trade_country/percentage contexts = %d/%d, want 2/2",
			len(ctxs[1].Entries), len(ctxs[2].Entries))
	}
	// Refine to the import interpretation.
	if err := s.RefineContexts(0, nameP); err != nil {
		t.Fatal(err)
	}
	if err := s.RefineContexts(1, tcP); err != nil {
		t.Fatal(err)
	}
	if err := s.RefineContexts(2, pcP); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TopK(20); err != nil {
		t.Fatal(err)
	}
	conns, err := s.ConnectionSummary()
	if err != nil {
		t.Fatal(err)
	}
	// The §6 ambiguity: same-item and cross-item joins both proposed for
	// (trade_country, percentage).
	dict := eng.Collection().Dict()
	var pick []int
	sawCrossItem := false
	for i, cn := range conns {
		if cn.Kind != summary.Tree {
			continue
		}
		jp := dict.Path(cn.JoinPath)
		if cn.TermA == 1 && cn.TermB == 2 && jp == itP {
			pick = append(pick, i)
		}
		if cn.TermA == 1 && cn.TermB == 2 && jp == "/country/economy/import_partners" {
			sawCrossItem = true
		}
		if cn.TermA == 0 && cn.TermB == 1 && jp == "/country" {
			pick = append(pick, i)
		}
	}
	if !sawCrossItem {
		t.Error("cross-item connection not proposed (§6 two-ways ambiguity)")
	}
	if len(pick) != 2 {
		t.Fatalf("expected same-item and name joins, got %d", len(pick))
	}
	if err := s.ChooseConnections(pick...); err != nil {
		t.Fatal(err)
	}
	tuples, err := s.CompleteResults()
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) == 0 {
		t.Fatal("empty complete result set")
	}
	star, err := s.BuildCube(CubeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ft := star.FactTable("import-trade-percentage")
	if ft == nil {
		t.Fatal("no fact table")
	}
	wantCols := "name,year,trade_country,import-trade-percentage"
	if strings.Join(ft.Cols, ",") != wantCols {
		t.Fatalf("fact cols = %v", ft.Cols)
	}
	if ft.NumRows() != len(tuples) {
		t.Errorf("fact rows = %d, tuples = %d", ft.NumRows(), len(tuples))
	}
	// Year dimension auto-added; every US partner percentage is keyed.
	if star.DimTable("year") == nil {
		t.Error("year dimension not auto-added")
	}
	// Rows only reference United States (term 0 was restricted).
	for _, r := range ft.Rows {
		if r[0].Str != "United States" {
			t.Errorf("unexpected country %q", r[0].Str)
		}
		if !r[3].IsNum {
			t.Errorf("measure not numeric: %v", r[3])
		}
	}
	// OLAP hand-off.
	oc, err := eng.Analyze(star, "import-trade-percentage", []string{"year", "trade_country"})
	if err != nil {
		t.Fatal(err)
	}
	byYear, err := oc.Aggregate([]string{"year"}, Sum)
	if err != nil {
		t.Fatal(err)
	}
	if byYear.NumRows() == 0 {
		t.Error("no aggregate rows")
	}
}

// TestMondialLinkedExploration exercises link discovery and link-backed
// connections on the Mondial corpus (the Figure 1 graph).
func TestMondialLinkedExploration(t *testing.T) {
	col := Mondial(0.02)
	eng, err := NewEngine(col, MondialConfig())
	if err != nil {
		t.Fatal(err)
	}
	if eng.Graph().NumEdges() == 0 {
		t.Fatal("no link edges discovered")
	}
	s, err := eng.NewSession(`(/sea/name, "Pacific Ocean") AND (/country/name, *)`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no cross-document results through sea-country links")
	}
	if rs[0].Nodes[0].Doc == rs[0].Nodes[1].Doc {
		t.Error("expected a cross-document tuple")
	}
	conns, err := s.ConnectionSummary()
	if err != nil {
		t.Fatal(err)
	}
	foundLink := false
	for _, cn := range conns {
		if cn.Kind == summary.LinkEdge && cn.Support > 0 {
			foundLink = true
		}
	}
	if !foundLink {
		t.Error("no supported link connection proposed")
	}
}

// TestSchemaEvolutionGDPFact verifies the §7 heterogeneity handling: one
// fact defined over both GDP and GDP_ppp contexts extracts across the 2005
// schema change.
func TestSchemaEvolutionGDPFact(t *testing.T) {
	eng := wfbEngine(t, 0.05)
	s, err := eng.NewSession(`(/country/name, *)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CompleteResults(); err != nil {
		t.Fatal(err)
	}
	star, err := s.BuildCube(CubeOptions{AddFacts: []string{"GDP"}, RemoveDimensions: []string{"country"}})
	if err != nil {
		t.Fatal(err)
	}
	gt := star.FactTable("GDP")
	if gt == nil {
		t.Fatal("no GDP fact table")
	}
	years := map[string]bool{}
	for _, r := range gt.Rows {
		years[r[1].Str] = true
	}
	// Both pre-2005 (GDP) and post-2005 (GDP_ppp) years must appear.
	if !years["2002"] || !years["2007"] {
		t.Errorf("GDP fact missing evolution years: %v", years)
	}
}

// TestDiscoverKeyOnWFB checks the GORDIAN-style discovery finds a valid
// key for the percentage context.
func TestDiscoverKeyOnWFB(t *testing.T) {
	col := WorldFactbook(0.03)
	k, ok := DiscoverKey(col, pcP)
	if !ok {
		t.Fatal("no key discovered for percentage")
	}
	if !strings.Contains(k.String(), "../trade_country") {
		t.Errorf("discovered key %s lacks the sibling component", k)
	}
}

// TestPublicLoadSaveRoundtrip exercises a WriteXML → LoadXMLDir round trip
// through the public API (engine snapshots: ExampleSaveEngineFile).
func TestPublicLoadSaveRoundtrip(t *testing.T) {
	dir := t.TempDir()
	col := WorldFactbook(0.01)
	for i, d := range col.Docs() {
		var buf bytes.Buffer
		if err := d.WriteXML(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%03d.xml", i)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadXMLDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumDocs() != col.NumDocs() {
		t.Fatalf("loaded %d docs, want %d", loaded.NumDocs(), col.NumDocs())
	}
	if loaded.Stats().NumPaths != col.Stats().NumPaths {
		t.Errorf("paths %d != %d", loaded.Stats().NumPaths, col.Stats().NumPaths)
	}
}

// TestDataguideSweepMonotonic is the E5 shape check at small scale: guide
// counts shrink as the threshold drops, and threshold 0 gives near one
// guide per distinct profile.
func TestDataguideSweepMonotonic(t *testing.T) {
	col := WorldFactbook(0.05)
	prev := -1
	for _, th := range []float64{0.8, 0.6, 0.4, 0.2} {
		dg, err := BuildDataguides(col, th)
		if err != nil {
			t.Fatal(err)
		}
		if err := dg.CoverageInvariant(); err != nil {
			t.Fatal(err)
		}
		n := len(dg.Guides)
		if prev >= 0 && n > prev {
			t.Errorf("guides grew when threshold dropped to %v: %d > %d", th, n, prev)
		}
		prev = n
	}
}

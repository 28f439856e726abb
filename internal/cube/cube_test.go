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
	"seda/internal/summary"
	"seda/internal/twig"
)

const (
	namePath = "/country/name"
	yearPath = "/country/year"
	tcPath   = "/country/economy/import_partners/item/trade_country"
	pcPath   = "/country/economy/import_partners/item/percentage"
	itPath   = "/country/economy/import_partners/item"
)

// corpus reproduces the data behind the paper's Figure 3 fact table: three
// annual United States documents whose import items yield exactly the six
// (year, partner, percentage) rows the paper prints. The country name is a
// <name> child rather than direct text — see DESIGN.md substitutions.
func corpus(t testing.TB) *store.Collection {
	t.Helper()
	c := store.NewCollection()
	mk := func(year, gdpTag, gdp string, items [][2]string) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, `<country><name>United States</name><year>%s</year><economy><%s>%s</%s><import_partners>`,
			year, gdpTag, gdp, gdpTag)
		for _, it := range items {
			fmt.Fprintf(&sb, `<item><trade_country>%s</trade_country><percentage>%s</percentage></item>`, it[0], it[1])
		}
		sb.WriteString(`</import_partners></economy></country>`)
		return sb.String()
	}
	docs := []string{
		mk("2004", "GDP", "11.75T", [][2]string{{"China", "12.5%"}, {"Mexico", "10.7%"}}),
		mk("2005", "GDP_ppp", "12.31T", [][2]string{{"China", "13.8%"}, {"Mexico", "10.3%"}}),
		mk("2006", "GDP_ppp", "12.98T", [][2]string{{"China", "15%"}, {"Canada", "16.9%"}}),
	}
	for i, d := range docs {
		if _, err := c.AddXML(fmt.Sprintf("wfb%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// figure3Catalog is the paper's Figure 3(b) F and D sets, adapted to the
// <name> child representation.
func figure3Catalog(t testing.TB) *Catalog {
	t.Helper()
	cat := NewCatalog()
	baseKey := keys.MustParse("(/country/name, /country/year)")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(cat.AddDimension("country", ContextEntry{Context: namePath, Key: baseKey}))
	must(cat.AddDimension("year", ContextEntry{Context: yearPath, Key: baseKey}))
	must(cat.AddDimension("import-country", ContextEntry{
		Context: tcPath, Key: keys.MustParse("(/country/name, /country/year, .)")}))
	must(cat.AddFact("import-trade-percentage", ContextEntry{
		Context: pcPath, Key: keys.MustParse("(/country/name, /country/year, ../trade_country)")}))
	must(cat.AddFact("GDP",
		ContextEntry{Context: "/country/economy/GDP", Key: baseKey},
		ContextEntry{Context: "/country/economy/GDP_ppp", Key: baseKey},
	))
	return cat
}

// query1Tuples computes the complete result set of Query 1 after the
// paper's context and connection selections.
func query1Tuples(t testing.TB, c *store.Collection) []twig.Tuple {
	t.Helper()
	ix := index.Build(c)
	g := graph.New(c, graph.DiscoverOptions{}, nil)
	e := twig.New(ix, g)
	dict := c.Dict()
	mk := func(ctx, search string) query.Term {
		tm, err := query.NewTerm(ctx, search)
		if err != nil {
			t.Fatal(err)
		}
		return tm
	}
	conn := func(a, b int, pa, pb, join string) summary.Connection {
		return summary.Connection{
			TermA: a, TermB: b,
			PathA: dict.LookupPath(pa), PathB: dict.LookupPath(pb),
			Kind:     summary.Tree,
			JoinPath: dict.LookupPath(join),
		}
	}
	plan := twig.Plan{
		Terms: []query.Term{
			mk(namePath, `"United States"`),
			mk(tcPath, "*"),
			mk(pcPath, "*"),
		},
		Connections: []summary.Connection{
			conn(0, 1, namePath, tcPath, "/country"),
			conn(1, 2, tcPath, pcPath, itPath),
		},
	}
	out, err := e.ComputeAll(plan)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCatalogValidation(t *testing.T) {
	cat := NewCatalog()
	k := keys.MustParse("/a")
	if err := cat.AddFact("", ContextEntry{Context: "/a", Key: k}); err == nil {
		t.Error("empty name accepted")
	}
	if err := cat.AddFact("f"); err == nil {
		t.Error("no contexts accepted")
	}
	if err := cat.AddFact("f", ContextEntry{Context: "a/b", Key: k}); err == nil {
		t.Error("relative context accepted")
	}
	if err := cat.AddFact("f", ContextEntry{Context: "/a"}); err == nil {
		t.Error("missing key accepted")
	}
	if err := cat.AddFact("f", ContextEntry{Context: "/a", Key: k}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddDimension("f", ContextEntry{Context: "/a", Key: k}); err == nil {
		t.Error("duplicate name accepted")
	}
	if cat.Lookup("f") == nil || cat.Lookup("f").String() == "" {
		t.Error("lookup broken")
	}
	if len(cat.Facts()) != 1 || len(cat.Dimensions()) != 0 {
		t.Error("listing broken")
	}
	cat.Remove("f")
	if cat.Lookup("f") != nil {
		t.Error("remove broken")
	}
}

func TestFigure3EndToEnd(t *testing.T) {
	c := corpus(t)
	cat := figure3Catalog(t)
	tuples := query1Tuples(t, c)
	if len(tuples) != 6 {
		t.Fatalf("R(q) = %d tuples, want 6", len(tuples))
	}
	b := NewBuilder(c, cat)
	star, err := b.Build(tuples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Matching: col0 -> country dim, col1 -> import-country dim, col2 ->
	// percentage fact.
	kinds := map[string]int{}
	for _, m := range star.Matches {
		kinds[fmt.Sprintf("%d:%s", m.Column, m.Def.Name)]++
	}
	for _, want := range []string{"0:country", "1:import-country", "2:import-trade-percentage"} {
		if kinds[want] != 1 {
			t.Errorf("missing match %s (have %v)", want, kinds)
		}
	}
	// The fact table carries the paper's six rows with the augmented year
	// column.
	ft := star.FactTable("import-trade-percentage")
	if ft == nil {
		t.Fatalf("no fact table; tables = %v", star.FactTables)
	}
	wantCols := []string{"name", "year", "trade_country", "import-trade-percentage"}
	if strings.Join(ft.Cols, ",") != strings.Join(wantCols, ",") {
		t.Fatalf("fact cols = %v, want %v", ft.Cols, wantCols)
	}
	if ft.NumRows() != 6 {
		t.Fatalf("fact rows = %d, want 6\n%s", ft.NumRows(), ft)
	}
	wantRows := map[string]float64{
		"2004|China":  12.5,
		"2004|Mexico": 10.7,
		"2005|China":  13.8,
		"2005|Mexico": 10.3,
		"2006|China":  15,
		"2006|Canada": 16.9,
	}
	for _, r := range ft.Rows {
		k := r[1].Str + "|" + r[2].Str
		if r[0].Str != "United States" {
			t.Errorf("country = %q", r[0].Str)
		}
		want, ok := wantRows[k]
		if !ok {
			t.Errorf("unexpected row %v", r)
			continue
		}
		if !r[3].IsNum || r[3].Num != want {
			t.Errorf("row %s measure = %v, want %v", k, r[3], want)
		}
		delete(wantRows, k)
	}
	if len(wantRows) != 0 {
		t.Errorf("missing rows: %v", wantRows)
	}
	// The year dimension is auto-added ("the system will automatically add
	// the /country/year column ... and add this dimension to the output").
	yd := star.DimTable("year")
	if yd == nil {
		t.Fatal("year dimension not auto-added")
	}
	if yd.NumRows() != 3 {
		t.Errorf("year members = %d", yd.NumRows())
	}
	ic := star.DimTable("import-country")
	if ic == nil || ic.NumRows() != 3 { // China, Mexico, Canada
		t.Fatalf("import-country dim: %v", ic)
	}
	cd := star.DimTable("country")
	if cd == nil || cd.NumRows() != 1 {
		t.Fatalf("country dim: %v", cd)
	}
	// SQL artifacts mention the fact table and an XMLQUERY extraction.
	sql := strings.Join(star.SQL, "\n")
	if !strings.Contains(sql, "CREATE TABLE fact_import_trade_percentage") ||
		!strings.Contains(sql, "XMLQUERY") {
		t.Errorf("sql artifacts:\n%s", sql)
	}
}

func TestPartialMatchWarning(t *testing.T) {
	c := store.NewCollection()
	// Percentage under both import and export; fact covers only import.
	docs := []string{
		`<country><name>A</name><year>2004</year><economy>
			<import_partners><item><trade_country>X</trade_country><percentage>1%</percentage></item></import_partners>
			<export_partners><item><trade_country>Y</trade_country><percentage>2%</percentage></item></export_partners>
		 </economy></country>`,
	}
	for i, d := range docs {
		if _, err := c.AddXML(fmt.Sprintf("d%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	cat := NewCatalog()
	if err := cat.AddFact("pct", ContextEntry{
		Context: pcPath,
		Key:     keys.MustParse("(/country/name, /country/year, ../trade_country)"),
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
	if len(tuples) != 2 {
		t.Fatalf("tuples = %d", len(tuples))
	}
	b := NewBuilder(c, cat)
	_, err = b.Build(tuples, Options{})
	// Partial matches do not enter Fq, so no fact is available.
	if err == nil {
		t.Fatal("expected no-fact error for partial-only match")
	}
	if !strings.Contains(err.Error(), "no fact") {
		t.Errorf("err = %v", err)
	}
}

func TestDefineNewWithKeyVerification(t *testing.T) {
	c := corpus(t)
	tuples := query1Tuples(t, c)
	// A bad key (just the country name) collides across rows.
	cat := NewCatalog()
	b := NewBuilder(c, cat)
	_, err := b.Build(tuples, Options{Define: []NewDef{{
		Name: "pct", Column: 2, IsFact: true, Key: "(/country/name)",
	}}})
	if err == nil || !strings.Contains(err.Error(), "not unique") {
		t.Fatalf("bad key not rejected: %v", err)
	}
	// The paper's key verifies and the build succeeds.
	star, err := b.Build(tuples, Options{Define: []NewDef{{
		Name: "pct", Column: 2, IsFact: true,
		Key: "(/country/name, /country/year, ../trade_country)",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if star.FactTable("pct") == nil || star.FactTable("pct").NumRows() != 6 {
		t.Fatalf("defined fact table: %v", star.FactTables)
	}
	// The catalog was expanded.
	if cat.Lookup("pct") == nil {
		t.Error("catalog not expanded by user definition")
	}
	// Out-of-range column.
	if _, err := b.Build(tuples, Options{Define: []NewDef{{Name: "x", Column: 9, Key: "(/a)"}}}); err == nil {
		t.Error("out-of-range define accepted")
	}
}

func TestAddFactLocatedByContext(t *testing.T) {
	// GDP is not in the query result; adding it locates values via its
	// context paths inside the result documents — including the GDP →
	// GDP_ppp schema evolution.
	c := corpus(t)
	cat := figure3Catalog(t)
	tuples := query1Tuples(t, c)
	b := NewBuilder(c, cat)
	star, err := b.Build(tuples, Options{AddFacts: []string{"GDP"}})
	if err != nil {
		t.Fatal(err)
	}
	gt := star.FactTable("GDP")
	if gt == nil {
		t.Fatalf("no GDP table: %v", star.FactTables)
	}
	if gt.NumRows() != 3 {
		t.Fatalf("GDP rows = %d, want 3\n%s", gt.NumRows(), gt)
	}
	// 2004 came from GDP, 2005/2006 from GDP_ppp — heterogeneity handled
	// by the ContextList.
	seen := map[string]bool{}
	for _, r := range gt.Rows {
		seen[r[1].Str] = true
	}
	for _, y := range []string{"2004", "2005", "2006"} {
		if !seen[y] {
			t.Errorf("GDP missing year %s", y)
		}
	}
	if _, err := b.Build(tuples, Options{AddFacts: []string{"nosuch"}}); err == nil {
		t.Error("unknown AddFacts accepted")
	}
	if _, err := b.Build(tuples, Options{AddDimensions: []string{"GDP"}}); err == nil {
		t.Error("fact passed as dimension accepted")
	}
}

func TestMergeFactTablesSameKeys(t *testing.T) {
	// GDP and population share the key (name, year): one merged table with
	// two measures.
	c := store.NewCollection()
	for i, d := range []string{
		`<country><name>A</name><year>2004</year><economy><GDP>10T</GDP></economy><population>300</population></country>`,
		`<country><name>A</name><year>2005</year><economy><GDP>11T</GDP></economy><population>301</population></country>`,
	} {
		if _, err := c.AddXML(fmt.Sprintf("d%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	baseKey := keys.MustParse("(/country/name, /country/year)")
	cat := NewCatalog()
	if err := cat.AddFact("gdp", ContextEntry{Context: "/country/economy/GDP", Key: baseKey}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddFact("population", ContextEntry{Context: "/country/population", Key: baseKey}); err != nil {
		t.Fatal(err)
	}
	ix := index.Build(c)
	e := twig.New(ix, graph.New(c, graph.DiscoverOptions{}, nil))
	tm, err := query.NewTerm("GDP", "*")
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := e.ComputeAll(twig.Plan{Terms: []query.Term{tm}})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(c, cat)
	star, err := b.Build(tuples, Options{AddFacts: []string{"population"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(star.FactTables) != 1 {
		t.Fatalf("fact tables = %d, want 1 (merged)", len(star.FactTables))
	}
	ft := star.FactTables[0]
	if ft.ColIndex("gdp") < 0 || ft.ColIndex("population") < 0 {
		t.Fatalf("merged cols = %v", ft.Cols)
	}
	if ft.NumRows() != 2 {
		t.Fatalf("merged rows = %d\n%s", ft.NumRows(), ft)
	}
	for _, r := range ft.Rows {
		if r[2].IsNull || r[3].IsNull {
			t.Errorf("merged row has NULL: %v", r)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	c := corpus(t)
	cat := figure3Catalog(t)
	b := NewBuilder(c, cat)
	if _, err := b.Build(nil, Options{}); err == nil {
		t.Error("empty result accepted")
	}
}

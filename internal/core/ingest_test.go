package core

import (
	"bytes"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"testing"

	"seda/internal/datagen"
	"seda/internal/fulltext"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// The tentpole invariant of incremental ingest: an engine produced by any
// sequence of AddDocuments calls answers top-k, context summaries, and
// connection summaries byte-identically to an engine built from scratch
// over the same documents in the same order. The tests render all three
// answer surfaces to strings and compare them exactly; run them under
// -race (make test does) to also exercise the generation-isolation
// claims.

// renderXML serializes every document of col so scratch and incremental
// engines can be built from the identical byte streams.
func renderXML(t *testing.T, col *store.Collection) []IngestDoc {
	t.Helper()
	out := make([]IngestDoc, 0, col.NumDocs())
	for _, doc := range col.Docs() {
		var b bytes.Buffer
		if err := doc.WriteXML(&b); err != nil {
			t.Fatalf("rendering %s: %v", doc.Name, err)
		}
		out = append(out, IngestDoc{Name: doc.Name, XML: b.Bytes()})
	}
	return out
}

// scratchEngine parses raw into a fresh collection and builds the engine
// in one shot.
func scratchEngine(t *testing.T, raw []IngestDoc, cfg Config) *Engine {
	t.Helper()
	col := store.NewCollection()
	for _, d := range raw {
		if _, err := col.AddXML(d.Name, d.XML); err != nil {
			t.Fatalf("adding %s: %v", d.Name, err)
		}
	}
	eng, err := NewEngine(col, cfg)
	if err != nil {
		t.Fatalf("scratch engine: %v", err)
	}
	return eng
}

// incrementalEngine builds a base engine over raw[:base] and ingests the
// rest in batches batches.
func incrementalEngine(t *testing.T, raw []IngestDoc, cfg Config, base, batches int) *Engine {
	t.Helper()
	eng := scratchEngine(t, raw[:base], cfg)
	rest := raw[base:]
	for i := 0; i < batches; i++ {
		lo, hi := i*len(rest)/batches, (i+1)*len(rest)/batches
		if lo == hi {
			continue
		}
		next, err := eng.AddDocumentsXML(rest[lo:hi])
		if err != nil {
			t.Fatalf("ingest batch %d: %v", i, err)
		}
		eng = next
	}
	return eng
}

// docWords returns the distinct words of the engine's live document text
// in sorted order — the node index's vocabulary, read from the documents.
func docWords(eng *Engine) []string {
	seen := make(map[string]bool)
	for _, d := range eng.Collection().LiveDocs() {
		d.Walk(func(n *xmldoc.Node) bool {
			for _, w := range fulltext.TokenizeTerms(n.Text) {
				seen[w] = true
			}
			return true
		})
	}
	return slices.Sorted(maps.Keys(seen))
}

// pickQueries derives corpus-agnostic queries from the engine's own
// documents: a couple of mid-frequency words combined into one- and
// two-term queries, so every corpus exercises tuples, contexts, and
// connections without hand-picked keywords.
func pickQueries(eng *Engine) []string {
	var terms []string
	numDocs := eng.Collection().NumDocs()
	for _, term := range docWords(eng) {
		df := eng.Index().DocFreq(term)
		if df >= 2 && df <= numDocs/2+1 && len(term) >= 3 {
			terms = append(terms, term)
			if len(terms) == 3 {
				break
			}
		}
	}
	var qs []string
	for _, term := range terms {
		qs = append(qs, fmt.Sprintf("(*, %s)", term))
	}
	if len(terms) >= 2 {
		qs = append(qs, fmt.Sprintf("(*, %s) AND (*, %s)", terms[0], terms[1]))
	}
	if len(terms) >= 3 {
		qs = append(qs, fmt.Sprintf("(*, %s) AND (*, %s)", terms[1], terms[2]))
	}
	return qs
}

func corpusConfigs() []struct {
	name  string
	gen   func(float64) *store.Collection
	scale float64
	cfg   Config
} {
	return []struct {
		name  string
		gen   func(float64) *store.Collection
		scale float64
		cfg   Config
	}{
		{"worldfactbook", datagen.WorldFactbook, 0.05, Config{}},
		{"mondial", datagen.Mondial, 0.05, Config{Discover: datagen.DiscoverOptionsFor("mondial")}},
		{"googlebase", datagen.GoogleBase, 0.04, Config{}},
		{"recipeml", datagen.RecipeML, 0.04, Config{}},
	}
}

// TestIngestEquivalence is the acceptance criterion: incremental adds
// across every corpus answer byte-identically to a from-scratch build.
func TestIngestEquivalence(t *testing.T) {
	for _, c := range corpusConfigs() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			raw := renderXML(t, c.gen(c.scale))
			if len(raw) < 5 {
				t.Fatalf("corpus too small: %d docs", len(raw))
			}
			scratch := scratchEngine(t, raw, c.cfg)
			base := len(raw) * 3 / 5
			incr := incrementalEngine(t, raw, c.cfg, base, 2)

			if got, want := incr.Collection().Stats(), scratch.Collection().Stats(); got != want {
				t.Fatalf("collection stats diverge: incremental %+v, scratch %+v", got, want)
			}
			if got, want := incr.Graph().NumEdges(), scratch.Graph().NumEdges(); got != want {
				t.Fatalf("edge count diverges: incremental %d, scratch %d", got, want)
			}
			if err := incr.Dataguides().CoverageInvariant(); err != nil {
				t.Fatalf("incremental dataguide: %v", err)
			}
			if got, want := len(incr.Dataguides().Guides), len(scratch.Dataguides().Guides); got != want {
				t.Fatalf("guide count diverges: incremental %d, scratch %d", got, want)
			}

			queries := pickQueries(scratch)
			if len(queries) == 0 {
				t.Fatal("no queries derived from vocabulary")
			}
			want := mustCanonical(t, scratch, queries)
			got := mustCanonical(t, incr, queries)
			if got != want {
				t.Errorf("answers diverge for %s\n--- scratch ---\n%s\n--- incremental ---\n%s", c.name, want, got)
			}
		})
	}
}

// TestIngestAfterSnapshotLoad exercises the retained-state rebuild path: a
// snapshot carries no discovery state, so the first ingest after a load
// reconstructs it from the old documents — and must still produce
// byte-identical answers.
func TestIngestAfterSnapshotLoad(t *testing.T) {
	c := corpusConfigs()[1] // mondial: the link-heavy corpus
	raw := renderXML(t, c.gen(c.scale))
	scratch := scratchEngine(t, raw, c.cfg)
	base := len(raw) * 3 / 5

	baseEng := scratchEngine(t, raw[:base], c.cfg)
	path := filepath.Join(t.TempDir(), "base.snap")
	if err := SaveEngineFile(path, baseEng, ""); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngineFile(path, c.cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	incr, err := loaded.AddDocumentsXML(raw[base:])
	if err != nil {
		t.Fatal(err)
	}

	queries := pickQueries(scratch)
	want := mustCanonical(t, scratch, queries)
	got := mustCanonical(t, incr, queries)
	if got != want {
		t.Errorf("answers diverge after snapshot-load ingest\n--- scratch ---\n%s\n--- incremental ---\n%s", want, got)
	}
}

// TestIngestGenerationIsolation: deriving a new generation must leave the
// old engine's answers untouched (in-flight sessions keep reading the old
// corpus), and the generations must not share mutable layer state.
func TestIngestGenerationIsolation(t *testing.T) {
	c := corpusConfigs()[0]
	raw := renderXML(t, c.gen(c.scale))
	base := len(raw) - 2
	old := scratchEngine(t, raw[:base], c.cfg)
	queries := pickQueries(old)
	before := mustCanonical(t, old, queries)
	oldDocs, oldEdges := old.Collection().NumDocs(), old.Graph().NumEdges()

	next, err := old.AddDocumentsXML(raw[base:])
	if err != nil {
		t.Fatal(err)
	}
	if next.ID() == old.ID() {
		t.Fatal("new generation reuses the old engine id")
	}
	if next.Collection().NumDocs() != base+2 {
		t.Fatalf("new generation has %d docs, want %d", next.Collection().NumDocs(), base+2)
	}
	if old.Collection().NumDocs() != oldDocs || old.Graph().NumEdges() != oldEdges {
		t.Fatal("ingest mutated the old generation's layers")
	}
	if after := mustCanonical(t, old, queries); after != before {
		t.Errorf("old generation's answers changed after ingest\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	if next.Catalog() != old.Catalog() {
		t.Error("catalog should carry across generations")
	}
	if next.Entities() != old.Entities() {
		t.Error("entity registry should carry across generations")
	}
}

// TestIngestValueLinks: value-based (PK/FK) edges must extend in both
// directions — new sources joining old targets and old sources joining
// new targets.
func TestIngestValueLinks(t *testing.T) {
	mk := func(n int) IngestDoc {
		return IngestDoc{
			Name: fmt.Sprintf("d%d.xml", n),
			XML: []byte(fmt.Sprintf(
				`<order><customer>c%d</customer><account><owner>c%d</owner></account></order>`, n%3, (n+1)%3)),
		}
	}
	var raw []IngestDoc
	for i := 0; i < 6; i++ {
		raw = append(raw, mk(i))
	}
	cfg := Config{ValueLinks: []ValueLink{{FromPath: "/order/customer", ToPath: "/order/account/owner", Label: "owns"}}}

	// edges renders the link edges as a sorted multiset (order may differ
	// for late-resolved pairs), with document names for ids so a masked
	// engine compares with a from-scratch one over its survivors.
	edges := func(e *Engine) []string {
		col := e.Collection()
		var out []string
		for _, ed := range e.Graph().Edges() {
			out = append(out, fmt.Sprintf("%s@%s->%s@%s %v %s",
				col.Doc(ed.From.Doc).Name, ed.From.Dewey, col.Doc(ed.To.Doc).Name, ed.To.Dewey, ed.Kind, ed.Label))
		}
		slices.Sort(out)
		return out
	}
	check := func(step string, got *Engine, live []IngestDoc) {
		t.Helper()
		want := edges(scratchEngine(t, live, cfg))
		if len(want) == 0 {
			t.Fatalf("%s: the corpus has no value-link edges", step)
		}
		if g := edges(got); !slices.Equal(g, want) {
			t.Errorf("%s: edges diverge from scratch\n got %q\nwant %q", step, g, want)
		}
	}

	check("ingest", incrementalEngine(t, raw, cfg, 3, 2), raw)

	// A saved and loaded engine carries no fold state: its first ingest
	// rebuilds the joins from the loaded documents.
	loaded, err := LoadEngine(bytes.NewReader(saveToBytes(t, scratchEngine(t, raw[:3], cfg), "")), cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := loaded.AddDocumentsXML(raw[3:])
	if err != nil {
		t.Fatal(err)
	}
	check("ingest after load", eng, raw)

	// A delete re-folds the survivors' joins from empty layers.
	if eng, _, err = eng.DeleteDocuments(raw[1].Name); err != nil {
		t.Fatal(err)
	}
	check("delete", eng, append(raw[:1:1], raw[2:]...))
}

// TestIngestLateLinkResolution: a dangling IDREF in an old document must
// become an edge when a new document defines the id (equivalence with a
// full rescan in the old→new direction).
func TestIngestLateLinkResolution(t *testing.T) {
	raw := []IngestDoc{
		{Name: "a.xml", XML: []byte(`<lab id="lab1"><member ref="lab2">alice</member></lab>`)},
		{Name: "b.xml", XML: []byte(`<lab id="lab3"><member ref="lab1">bob</member></lab>`)},
	}
	late := IngestDoc{Name: "c.xml", XML: []byte(`<lab id="lab2"><member ref="lab3">carol</member></lab>`)}

	scratch := scratchEngine(t, append(append([]IngestDoc(nil), raw...), late), Config{})
	base := scratchEngine(t, raw, Config{})
	if base.Graph().NumEdges() != 1 {
		t.Fatalf("base should have 1 edge (a->nothing dangling, b->a), got %d", base.Graph().NumEdges())
	}
	incr, err := base.AddDocumentsXML([]IngestDoc{late})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := incr.Graph().NumEdges(), scratch.Graph().NumEdges(); got != want {
		t.Fatalf("edge count diverges: incremental %d, scratch %d (the a.xml->lab2 reference must resolve)", got, want)
	}
	if incr.Graph().NumEdges() != 3 {
		t.Fatalf("want 3 edges after ingest, got %d", incr.Graph().NumEdges())
	}
}

func TestAddDocumentsRejectsEmpty(t *testing.T) {
	eng := scratchEngine(t, []IngestDoc{{Name: "a.xml", XML: []byte(`<a><b>x</b></a>`)}}, Config{})
	if _, err := eng.AddDocuments(nil); err == nil {
		t.Error("want error for empty batch")
	}
	if _, err := eng.AddDocumentsXML([]IngestDoc{{Name: "bad.xml", XML: []byte(`<a>`)}}); err == nil {
		t.Error("want error for malformed XML")
	}
}

package dataguide

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"seda/internal/datagen"
	"seda/internal/graph"
	"seda/internal/pathdict"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

func addDocs(t testing.TB, c *store.Collection, docs ...string) {
	t.Helper()
	for i, d := range docs {
		if _, err := c.AddXML(fmt.Sprintf("doc%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubsetAbsorption(t *testing.T) {
	c := store.NewCollection()
	addDocs(t, c,
		`<country><name>A</name><year>2002</year><economy><GDP>1</GDP></economy></country>`,
		`<country><name>B</name><year>2003</year></country>`, // subset
		`<country><name>C</name></country>`,                  // subset
	)
	s, err := Build(c, nil, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Guides) != 1 {
		t.Fatalf("guides = %d, want 1 (subsets absorb)", len(s.Guides))
	}
	if got := s.Guides[0].NumDocs(); got != 3 {
		t.Errorf("guide docs = %d", got)
	}
	if err := s.CoverageInvariant(); err != nil {
		t.Error(err)
	}
}

func TestOverlapMergeVsNewGuide(t *testing.T) {
	c := store.NewCollection()
	// doc0: paths /r,/r/a,/r/b,/r/c,/r/d (5)
	// doc1: shares /r,/r/a,/r/b plus new /r/e,/r/f (5, common 3, overlap .6)
	// doc2: disjoint root -> overlap 0.
	addDocs(t, c,
		`<r><a/><b/><c/><d/></r>`,
		`<r><a/><b/><e/><f/></r>`,
		`<z><q/></z>`,
	)
	s, err := Build(c, nil, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Guides) != 2 {
		t.Fatalf("guides = %d, want 2", len(s.Guides))
	}
	if s.GuideOf(0) != s.GuideOf(1) {
		t.Error("doc0 and doc1 should merge at threshold 0.4")
	}
	if s.GuideOf(2) == s.GuideOf(0) {
		t.Error("disjoint doc must not merge")
	}
	// Merged guide is the union.
	if s.GuideOf(0).Size() != 7 {
		t.Errorf("merged size = %d, want 7", s.GuideOf(0).Size())
	}
	// At a higher threshold they stay separate.
	s2, err := Build(c, nil, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Guides) != 3 {
		t.Errorf("guides at 0.8 = %d, want 3", len(s2.Guides))
	}
	// Threshold 0 means never merge by overlap (only subset absorption) —
	// the paper's "1600 dataguides for 1600 documents" regime.
	s0, err := Build(c, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s0.Guides) != 3 {
		t.Errorf("guides at 0 = %d, want 3", len(s0.Guides))
	}
}

func TestThresholdValidation(t *testing.T) {
	c := store.NewCollection()
	if _, err := Build(c, nil, -0.1); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := Build(c, nil, 1.5); err == nil {
		t.Error("threshold > 1 accepted")
	}
}

func TestOverlapMetric(t *testing.T) {
	d := pathdict.New()
	mk := func(paths ...string) []pathdict.PathID {
		var out []pathdict.PathID
		for _, p := range paths {
			id, err := d.InternPath(p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, id)
		}
		return out
	}
	a := mk("/r/a", "/r/b", "/r/c")
	b := mk("/r/a", "/r/b", "/r/c")
	if got := Overlap(a, b); got != 1 {
		t.Errorf("identical overlap = %v", got)
	}
	cpaths := mk("/r/a", "/x/y", "/x/z", "/x/w")
	// common with a = 1; |a| = 3... note mk interns parents too but Overlap
	// works on the given lists only.
	got := Overlap(a, cpaths)
	want := 1.0 / 4.0 // min(1/3, 1/4)
	if got != want {
		t.Errorf("overlap = %v, want %v", got, want)
	}
	if Overlap(nil, a) != 0 {
		t.Error("empty set overlap must be 0")
	}
}

func TestPropOverlapSymmetricBounded(t *testing.T) {
	d := pathdict.New()
	var pool []pathdict.PathID
	for i := 0; i < 20; i++ {
		id, _ := d.InternPath(fmt.Sprintf("/r/p%d", i))
		pool = append(pool, id)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pick := func() []pathdict.PathID {
			var out []pathdict.PathID
			for _, p := range pool {
				if r.Intn(2) == 0 {
					out = append(out, p)
				}
			}
			return out
		}
		a, b := pick(), pick()
		o1, o2 := Overlap(a, b), Overlap(b, a)
		if o1 != o2 {
			return false
		}
		if o1 < 0 || o1 > 1 {
			return false
		}
		// Identity on non-empty sets.
		if len(a) > 0 && Overlap(a, a) != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropCoverageInvariant: regardless of threshold, every document's
// paths are covered by its guide, and guide count shrinks monotonically as
// the threshold drops.
func TestPropCoverageAndMonotonicity(t *testing.T) {
	ff := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := store.NewCollection()
		n := 3 + r.Intn(8)
		if !buildRandom(c, r, n) {
			return false
		}
		prev := -1
		for _, th := range []float64{0.9, 0.6, 0.3, 0.1} {
			s, err := Build(c, nil, th)
			if err != nil {
				return false
			}
			if s.CoverageInvariant() != nil {
				return false
			}
			if prev >= 0 && len(s.Guides) > prev {
				return false // lower threshold must not increase guide count
			}
			prev = len(s.Guides)
		}
		return true
	}
	if err := quick.Check(ff, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func buildRandom(c *store.Collection, r *rand.Rand, n int) bool {
	tags := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < n; i++ {
		root := xmldoc.Elem("r")
		for _, tg := range tags {
			if r.Intn(2) == 0 {
				root.Add(xmldoc.Text(tg, "v"))
			}
		}
		if len(root.Children) == 0 {
			root.Add(xmldoc.Text("a", "v"))
		}
		c.AddDocument(xmldoc.Build(fmt.Sprintf("d%d", i), root, c.Dict()))
	}
	return true
}

func TestRepeatableDetection(t *testing.T) {
	c := store.NewCollection()
	addDocs(t, c,
		`<country><economy><import_partners>
			<item><trade_country>China</trade_country><percentage>15%</percentage></item>
			<item><trade_country>Canada</trade_country><percentage>16.9%</percentage></item>
		 </import_partners></economy></country>`,
	)
	s, err := Build(c, nil, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	dict := c.Dict()
	g := s.GuideOf(0)
	item := dict.LookupPath("/country/economy/import_partners/item")
	if !g.Repeatable(item) {
		t.Error("item must be repeatable")
	}
	ip := dict.LookupPath("/country/economy/import_partners")
	if g.Repeatable(ip) {
		t.Error("import_partners occurs once; not repeatable")
	}
}

func TestTreeConnectionsPaperExample(t *testing.T) {
	// The §6 example: two ways to connect trade_country and percentage —
	// within one item, or across items via import_partners.
	c := store.NewCollection()
	addDocs(t, c,
		`<country><economy><import_partners>
			<item><trade_country>China</trade_country><percentage>15%</percentage></item>
			<item><trade_country>Canada</trade_country><percentage>16.9%</percentage></item>
		 </import_partners></economy></country>`,
	)
	s, err := Build(c, nil, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	dict := c.Dict()
	g := s.GuideOf(0)
	tc := dict.LookupPath("/country/economy/import_partners/item/trade_country")
	pc := dict.LookupPath("/country/economy/import_partners/item/percentage")
	joins := g.TreeConnections(dict, tc, pc)
	var got []string
	for _, j := range joins {
		got = append(got, dict.Path(j))
	}
	want := []string{
		"/country/economy/import_partners/item",
		"/country/economy/import_partners",
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("TreeConnections = %v, want %v", got, want)
	}
	// Paths not in the guide yield nothing.
	if g.TreeConnections(dict, tc, pathdict.InvalidPath) != nil {
		t.Error("unknown path should yield no connections")
	}
}

func TestLinksAcrossGuides(t *testing.T) {
	c := store.NewCollection()
	addDocs(t, c,
		`<country id="us"><name>United States</name></country>`,
		`<sea id="pac" bordering="us"><name>Pacific</name></sea>`,
	)
	g := graph.New(c, graph.DiscoverOptions{IDRefAttrs: []string{"bordering"}}, nil).Extend(c, 0, c.LiveDocs())
	s, err := Build(c, g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Guides) != 2 {
		t.Fatalf("guides = %d", len(s.Guides))
	}
	if len(s.Links()) != 1 {
		t.Fatalf("links = %d, want 1", len(s.Links()))
	}
	l := s.Links()[0]
	dict := c.Dict()
	if dict.Path(l.FromPath) != "/sea" || dict.Path(l.ToPath) != "/country" {
		t.Errorf("link endpoints: %s -> %s", dict.Path(l.FromPath), dict.Path(l.ToPath))
	}
	if l.Count != 1 || l.Kind != graph.IDRef {
		t.Errorf("link = %+v", l)
	}
	// LinksBetween works in both directions.
	if got := s.LinksBetween(l.ToPath, l.FromPath); len(got) != 1 {
		t.Errorf("LinksBetween reversed = %d", len(got))
	}
}

func TestStatsShape(t *testing.T) {
	c := store.NewCollection()
	addDocs(t, c,
		`<r><a/></r>`, `<r><a/></r>`, `<r><a/></r>`, `<z/>`,
	)
	s, _ := Build(c, nil, 0.4)
	st := s.Stats()
	if st.Documents != 4 || st.Guides != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.Reduction != 2 {
		t.Errorf("reduction = %v", st.Reduction)
	}
}

// refGuide is one guide of referenceFold.
type refGuide struct {
	docs  []xmldoc.DocID
	paths map[pathdict.PathID]struct{}
	rep   map[pathdict.PathID]bool
}

// referenceFold is the map-based §6.1 fold this package ran before path
// sets became bitsets: each document's path set and repeatability marks
// as maps, probed path by path against every guide. It is the oracle the
// bitset fold must match guide for guide.
func referenceFold(docs []*xmldoc.Document, threshold float64) ([]*refGuide, map[xmldoc.DocID]int) {
	var guides []*refGuide
	docGuide := make(map[xmldoc.DocID]int)
	for _, doc := range docs {
		paths := make(map[pathdict.PathID]struct{})
		rep := make(map[pathdict.PathID]bool)
		doc.Walk(func(n *xmldoc.Node) bool {
			paths[n.Path] = struct{}{}
			seen := make(map[pathdict.PathID]int, len(n.Children))
			for _, c := range n.Children {
				seen[c.Path]++
				if seen[c.Path] == 2 {
					rep[c.Path] = true
				}
			}
			return true
		})
		absorbed := false
		bestIdx, bestOverlap := -1, 0.0
		for i, g := range guides {
			common := 0
			for p := range paths {
				if _, ok := g.paths[p]; ok {
					common++
				}
			}
			if common == len(paths) {
				g.docs = append(g.docs, doc.ID)
				for p := range rep {
					g.rep[p] = true
				}
				docGuide[doc.ID] = i
				absorbed = true
				break
			}
			if ov := overlap(common, len(paths), len(g.paths)); ov > bestOverlap {
				bestIdx, bestOverlap = i, ov
			}
		}
		switch {
		case absorbed:
		case bestIdx >= 0 && bestOverlap >= threshold && threshold > 0:
			g := guides[bestIdx]
			for p := range paths {
				g.paths[p] = struct{}{}
			}
			for p := range rep {
				g.rep[p] = true
			}
			g.docs = append(g.docs, doc.ID)
			docGuide[doc.ID] = bestIdx
		default:
			docGuide[doc.ID] = len(guides)
			guides = append(guides, &refGuide{docs: []xmldoc.DocID{doc.ID}, paths: paths, rep: rep})
		}
	}
	return guides, docGuide
}

// assertMatchesReference checks s against referenceFold over docs: guide
// ids, document lists in order, path sets, sizes, repeatable marks, and
// the document→guide assignment.
func assertMatchesReference(t *testing.T, s *Set, docs []*xmldoc.Document) {
	t.Helper()
	want, wantOf := referenceFold(docs, s.Threshold)
	if len(s.Guides) != len(want) {
		t.Fatalf("threshold %v: %d guides, reference %d", s.Threshold, len(s.Guides), len(want))
	}
	assigned := s.GuideDocs()
	for i, g := range s.Guides {
		r := want[i]
		if g.ID != i || !reflect.DeepEqual(assigned[i], r.docs) || g.NumDocs() != len(r.docs) {
			t.Fatalf("threshold %v guide %d: id %d docs %v (%d), reference docs %v", s.Threshold, i, g.ID, assigned[i], g.NumDocs(), r.docs)
		}
		if got, ref := g.Paths(), slices.Sorted(maps.Keys(r.paths)); !reflect.DeepEqual(got, ref) || g.Size() != len(ref) {
			t.Fatalf("threshold %v guide %d: paths %v (size %d), reference %v", s.Threshold, i, got, g.Size(), ref)
		}
		if got, ref := g.repeatable.ids(), slices.Sorted(maps.Keys(r.rep)); !reflect.DeepEqual(got, ref) {
			t.Fatalf("threshold %v guide %d: repeatable %v, reference %v", s.Threshold, i, got, ref)
		}
	}
	for _, d := range docs {
		if g := s.GuideOf(d.ID); g == nil || g.ID != wantOf[d.ID] {
			t.Fatalf("threshold %v: doc %d assigned to %v, reference guide %d", s.Threshold, d.ID, g, wantOf[d.ID])
		}
	}
}

// TestFoldMatchesReference pins the bitset fold to the map-based oracle on
// every generated corpus and the paper's threshold range.
func TestFoldMatchesReference(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  func(float64) *store.Collection
	}{
		{"worldfactbook", datagen.WorldFactbook},
		{"mondial", datagen.Mondial},
		{"googlebase", datagen.GoogleBase},
		{"recipeml", datagen.RecipeML},
		{"random", randomCorpus},
	} {
		col := c.gen(0.1)
		for _, th := range []float64{0, 0.4, 0.7, 1} {
			s, err := Build(col, nil, th)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/%v", c.name, th), func(t *testing.T) {
				assertMatchesReference(t, s, col.LiveDocs())
			})
		}
	}
}

// randomCorpus draws small documents over a handful of tags with
// repeated and nested children, so overlap ties, subset absorptions that
// add repeatable marks, and threshold-boundary merges all occur — shapes
// the generated corpora rarely produce. scale is ignored.
func randomCorpus(float64) *store.Collection {
	r := rand.New(rand.NewSource(7))
	c := store.NewCollection()
	tags := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 300; i++ {
		root := xmldoc.Elem([]string{"r", "s"}[r.Intn(2)])
		for _, tg := range tags {
			for n := r.Intn(3); n > 0; n-- {
				child := xmldoc.Elem(tg)
				for m := r.Intn(3); m > 0; m-- {
					child.Add(xmldoc.Text(tags[r.Intn(2)], "v"))
				}
				root.Add(child)
			}
		}
		c.AddDocument(xmldoc.Build(fmt.Sprintf("d%d", i), root, c.Dict()))
	}
	return c
}

// TestExtendAndRefoldMatchReference covers the two other ways a Set is
// derived: a 3-step Extend chain (ingest) and a re-fold over survivors
// after masking every third document (delete/update/compact).
func TestExtendAndRefoldMatchReference(t *testing.T) {
	var raw [][]byte
	for _, doc := range datagen.WorldFactbook(0.1).Docs() {
		var b bytes.Buffer
		if err := doc.WriteXML(&b); err != nil {
			t.Fatal(err)
		}
		raw = append(raw, b.Bytes())
	}
	col := store.NewCollection()
	base := len(raw) / 2
	for i, x := range raw[:base] {
		if _, err := col.AddXML(fmt.Sprintf("d%d", i), x); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Build(col, nil, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	rest := raw[base:]
	for step := 0; step < 3; step++ {
		var docs []*xmldoc.Document
		for _, x := range rest[step*len(rest)/3 : (step+1)*len(rest)/3] {
			d, err := xmldoc.Parse(x, col.Dict())
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, d)
		}
		col = col.Extend(docs)
		if s, err = s.Extend(col, nil, xmldoc.DocID(col.NumDocs()-len(docs)), docs); err != nil {
			t.Fatal(err)
		}
	}
	assertMatchesReference(t, s, col.LiveDocs())

	var dead []xmldoc.DocID
	for i := 0; i < col.NumDocs(); i += 3 {
		dead = append(dead, xmldoc.DocID(i))
	}
	masked, err := col.WithTombstones(dead)
	if err != nil {
		t.Fatal(err)
	}
	refold, err := Build(masked, nil, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, refold, masked.LiveDocs())
}

package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"seda/internal/dewey"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// fixture builds a Mondial-like linked corpus: countries and seas with
// IDREF "bordering" relations and an XLink trade reference, mirroring the
// paper's Figure 1.
func fixture(t testing.TB) (*store.Collection, *Graph) {
	t.Helper()
	c := store.NewCollection()
	docs := []string{
		`<country id="us"><name>United States</name>
			<economy><import_partners><item><trade_country href="#cn">China</trade_country><percentage>15%</percentage></item></import_partners></economy>
		 </country>`,
		`<country id="cn"><name>China</name></country>`,
		`<sea id="pacific" bordering="us cn"><name>Pacific Ocean</name></sea>`,
		`<country id="ph" bordering="pacific"><name>Philippines</name></country>`,
	}
	for i, d := range docs {
		if _, err := c.AddXML(fmt.Sprintf("doc%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	return c, New(c, DiscoverOptions{}, nil)
}

// folded folds every live document of c into an empty graph, as a
// from-source build does.
func folded(c *store.Collection, opts DiscoverOptions, specs ...ValueLinkSpec) *Graph {
	return New(c, opts, specs).Extend(c, 0, c.LiveDocs())
}

func TestDiscoverLinks(t *testing.T) {
	c, _ := fixture(t)
	g := folded(c, DiscoverOptions{IDRefAttrs: []string{"bordering"}})
	// References in document order: doc0's trade_country href="#cn" (an
	// XLink), the sea's bordering="us cn", then ph's bordering="pacific".
	// Each edge targets the element owning the id and is labeled with the
	// referencing element's tag.
	want := []struct {
		from, to xmldoc.DocID
		kind     EdgeKind
		label    string
	}{
		{0, 1, XLink, "trade_country"},
		{2, 0, IDRef, "sea"},
		{2, 1, IDRef, "sea"},
		{3, 2, IDRef, "country"},
	}
	if g.NumEdges() != len(want) {
		t.Fatalf("edges = %v, want %d", g.Edges(), len(want))
	}
	for i, e := range g.Edges() {
		w := want[i]
		if e.From.Doc != w.from || e.To.Doc != w.to || e.Kind != w.kind || e.Label != w.label || !dewey.Equal(e.To.Dewey, dewey.Root()) {
			t.Errorf("edge %d = %+v, want %+v to the root", i, e, w)
		}
	}
}

// TestDiscoverDanglingAndDuplicates: a reference to an unknown id dangles
// until a later batch defines the id, and a duplicate id keeps its first
// owner, across batches too.
func TestDiscoverDanglingAndDuplicates(t *testing.T) {
	c := store.NewCollection()
	for i, d := range []string{
		`<a id="x" ref="nope"/>`,
		`<b id="x"/>`, // duplicate id
	} {
		if _, err := c.AddXML(fmt.Sprintf("d%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	g := folded(c, DiscoverOptions{})
	if g.NumEdges() != 0 {
		t.Errorf("edges = %d", g.NumEdges())
	}
	late, err := xmldoc.Parse([]byte(`<c id="nope" ref="x"/>`), c.Dict())
	if err != nil {
		t.Fatal(err)
	}
	c2 := c.Extend([]*xmldoc.Document{late})
	g2 := g.Extend(c2, xmldoc.DocID(c.NumDocs()), []*xmldoc.Document{late})
	got := make([]string, 0, g2.NumEdges())
	for _, e := range g2.Edges() {
		got = append(got, fmt.Sprintf("%d->%d %s", e.From.Doc, e.To.Doc, e.Label))
	}
	if want := []string{"0->2 a", "2->0 c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("edges after the late batch = %v, want %v", got, want)
	}
	if g.NumEdges() != 0 {
		t.Error("Extend modified its receiver")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	_, g := fixture(t)
	good := xmldoc.NodeRef{Doc: 0, Dewey: dewey.Root()}
	bad := xmldoc.NodeRef{Doc: 9, Dewey: dewey.Root()}
	if err := g.AddEdge(good, bad, IDRef, "x"); err == nil {
		t.Error("dangling target accepted")
	}
	if err := g.AddEdge(bad, good, IDRef, "x"); err == nil {
		t.Error("dangling source accepted")
	}
	if err := g.AddEdge(good, good, Value, "self"); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
}

func TestAddValueLinks(t *testing.T) {
	c := store.NewCollection()
	docs := []string{
		`<country><name>China</name></country>`,
		`<country><name>United States</name>
			<economy><import_partners><item><trade_country>China</trade_country></item></import_partners></economy></country>`,
	}
	for i, d := range docs {
		if _, err := c.AddXML(fmt.Sprintf("d%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	g := folded(c, DiscoverOptions{}, ValueLinkSpec{"/country/economy/import_partners/item/trade_country", "/country/name", "trade partner"})
	if g.NumEdges() != 1 {
		t.Fatalf("value-link edges = %d, want 1", g.NumEdges())
	}
	e := g.Edges()[0]
	if e.Kind != Value || e.Label != "trade partner" {
		t.Errorf("edge = %+v", e)
	}
	if e.To.Doc != 0 {
		t.Errorf("edge target doc = %d", e.To.Doc)
	}
	// Unknown paths join nothing.
	if folded(c, DiscoverOptions{}, ValueLinkSpec{"/nope", "/country/name", "x"}).NumEdges() != 0 {
		t.Error("unknown from-path should add nothing")
	}
}

func TestTreeDistanceAndPairDistance(t *testing.T) {
	_, g := fixture(t)
	// Within doc0: trade_country (1.2.1.1.1) and percentage (1.2.1.1.2) are
	// siblings -> distance 2.
	tc := xmldoc.NodeRef{Doc: 0, Dewey: dewey.ID{1, 2, 1, 1, 1}}
	pc := xmldoc.NodeRef{Doc: 0, Dewey: dewey.ID{1, 2, 1, 1, 2}}
	if d := TreeDistance(tc, pc); d != 2 {
		t.Errorf("sibling tree distance = %d", d)
	}
	if d := g.PairDistance(tc, pc, 2); d != 2 {
		t.Errorf("PairDistance same doc = %d", d)
	}
	if TreeDistance(tc, xmldoc.NodeRef{Doc: 1, Dewey: dewey.Root()}) != Unreachable {
		t.Error("cross-doc tree distance must be unreachable")
	}
}

func TestCrossDocDistanceViaLinks(t *testing.T) {
	c, _ := fixture(t)
	g := folded(c, DiscoverOptions{IDRefAttrs: []string{"bordering"}})
	us := xmldoc.NodeRef{Doc: 0, Dewey: dewey.Root()}
	cnName := xmldoc.NodeRef{Doc: 1, Dewey: dewey.ID{1, 2}}
	// Two routes exist: via the trade_country XLink (us root to
	// trade_country = 4 tree edges, +2 link, +1 to name = 7) or through the
	// Pacific sea's bordering IDREFs (0 +2 +0 +2 +1 = 5). Dijkstra must
	// find the shorter two-hop route.
	if d := g.PairDistance(us, cnName, 2); d != 5 {
		t.Errorf("PairDistance(us, cn/name, 2 hops) = %d, want 5", d)
	}
	// Capped to one hop, only the direct XLink route remains.
	if d := g.PairDistance(us, cnName, 1); d != 7 {
		t.Errorf("PairDistance(us, cn/name, 1 hop) = %d, want 7", d)
	}
	// With zero link hops allowed: unreachable.
	if g.PairDistance(us, cnName, 0) != Unreachable {
		t.Error("0 hops should be unreachable")
	}
	// Philippines -> Pacific -> China needs 2 hops.
	ph := xmldoc.NodeRef{Doc: 3, Dewey: dewey.Root()}
	cn := xmldoc.NodeRef{Doc: 1, Dewey: dewey.Root()}
	if d := g.PairDistance(ph, cn, 2); d == Unreachable {
		t.Error("2-hop path should exist")
	}
	if d := g.PairDistance(ph, cn, 1); d != Unreachable {
		t.Errorf("1 hop should not reach, got %d", d)
	}
}

// TestPairDistanceUnlinkedShortcut pins PairDistance's no-link shortcut to
// the full portal search: on every node pair of a corpus mixing linked
// and unlinked documents, at every hop cap, both give the same distance.
func TestPairDistanceUnlinkedShortcut(t *testing.T) {
	c, _ := fixture(t)
	for i, d := range []string{
		`<country id="fr"><name>France</name><economy><item>x</item></economy></country>`,
		`<sea id="north"><name>North Sea</name></sea>`,
	} {
		if _, err := c.AddXML(fmt.Sprintf("extra%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	g := folded(c, DiscoverOptions{IDRefAttrs: []string{"bordering"}})
	search := func(a, b xmldoc.NodeRef, hops int) int {
		d := g.portalDistance(a, b, hops)
		if td := TreeDistance(a, b); td < d {
			return td
		}
		return d
	}
	var refs []xmldoc.NodeRef
	c.EachNode(func(doc *xmldoc.Document, n *xmldoc.Node) {
		refs = append(refs, store.RefOf(doc, n))
	})
	for _, a := range refs {
		for _, b := range refs {
			for hops := 0; hops <= 2; hops++ {
				if got, want := g.PairDistance(a, b, hops), search(a, b, hops); got != want {
					t.Fatalf("PairDistance(%v, %v, %d) = %d, portal search %d", a, b, hops, got, want)
				}
			}
		}
	}
}

func TestSteinerWeightAndCompactness(t *testing.T) {
	c, _ := fixture(t)
	g := folded(c, DiscoverOptions{IDRefAttrs: []string{"bordering"}})
	// Same-doc triple: trade_country, percentage, country root.
	refs := []xmldoc.NodeRef{
		{Doc: 0, Dewey: dewey.Root()},
		{Doc: 0, Dewey: dewey.ID{1, 2, 1, 1, 1}},
		{Doc: 0, Dewey: dewey.ID{1, 2, 1, 1, 2}},
	}
	w, ok := g.SteinerWeight(refs, 2)
	if !ok {
		t.Fatal("same-doc tuple must be connected")
	}
	// MST: root-tc (4) + tc-pc (2) = 6.
	if w != 6 {
		t.Errorf("steiner weight = %d, want 6", w)
	}
	if Compactness(w) <= 0 || Compactness(w) > 1 {
		t.Errorf("compactness out of range: %v", Compactness(w))
	}
	if Compactness(0) != 1 {
		t.Error("single node compactness must be 1")
	}
	if Compactness(Unreachable) != 0 {
		t.Error("unreachable compactness must be 0")
	}
	// Disconnected tuple: doc3 has no link to doc1 within 1 hop.
	_, ok = g.SteinerWeight([]xmldoc.NodeRef{
		{Doc: 3, Dewey: dewey.Root()},
		{Doc: 1, Dewey: dewey.Root()},
	}, 1)
	if ok {
		t.Error("tuple should be disconnected at 1 hop")
	}
	// Singleton and empty tuples.
	if w, ok := g.SteinerWeight(refs[:1], 1); !ok || w != 0 {
		t.Errorf("singleton = %d,%v", w, ok)
	}
	if w, ok := g.SteinerWeight(nil, 1); !ok || w != 0 {
		t.Errorf("empty = %d,%v", w, ok)
	}
}

// Property: PairDistance is symmetric and satisfies the triangle inequality
// on same-doc random nodes (where it reduces to tree distance plus possible
// link shortcuts).
func TestPropPairDistanceMetric(t *testing.T) {
	c := store.NewCollection()
	// One deep document.
	var build func(r *rand.Rand, depth int) *xmldoc.Node
	build = func(r *rand.Rand, depth int) *xmldoc.Node {
		n := xmldoc.Elem(fmt.Sprintf("t%d", r.Intn(3)))
		if depth < 4 {
			for i := 0; i < 1+r.Intn(2); i++ {
				n.Add(build(r, depth+1))
			}
		}
		return n
	}
	r := rand.New(rand.NewSource(7))
	c.AddDocument(xmldoc.Build("d", build(r, 0), c.Dict()))
	g := New(c, DiscoverOptions{}, nil)
	var refs []xmldoc.NodeRef
	c.EachNode(func(d *xmldoc.Document, n *xmldoc.Node) {
		refs = append(refs, store.RefOf(d, n))
	})
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := refs[rr.Intn(len(refs))]
		b := refs[rr.Intn(len(refs))]
		x := refs[rr.Intn(len(refs))]
		dab := g.PairDistance(a, b, 1)
		dba := g.PairDistance(b, a, 1)
		if dab != dba {
			return false
		}
		dax := g.PairDistance(a, x, 1)
		dxb := g.PairDistance(x, b, 1)
		return dab <= dax+dxb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEdgesOfDoc(t *testing.T) {
	c, _ := fixture(t)
	g := folded(c, DiscoverOptions{IDRefAttrs: []string{"bordering"}})
	// doc2 (sea): 2 outgoing + 1 incoming (from ph).
	es := g.EdgesOfDoc(nil, 2)
	if len(es) != 3 {
		t.Errorf("EdgesOfDoc(sea) = %d, want 3", len(es))
	}
	if g.EdgesOfDoc(nil, 99) != nil {
		t.Error("unknown doc should have no edges")
	}
	if !slices.Equal(edgeStrings(es), edgeStrings(edgesOfDocOracle(g, 2))) {
		t.Errorf("EdgesOfDoc(sea) = %q, want the oracle's %q", edgeStrings(es), edgeStrings(edgesOfDocOracle(g, 2)))
	}
	// With warm scratch a call allocates nothing: no set, no new slice.
	if raceEnabled {
		return
	}
	scratch := g.EdgesOfDoc(nil, 2)
	if allocs := testing.AllocsPerRun(100, func() { scratch = g.EdgesOfDoc(scratch[:0], 2) }); allocs != 0 {
		t.Errorf("EdgesOfDoc with warm scratch: %v allocs per call, want 0", allocs)
	}
}

// TestLinkedDocs checks the partner documents the top-k searcher builds
// pair units from: ascending, without repeats, symmetric, and blind to
// intra-document edges, appended after whatever dst already holds.
func TestLinkedDocs(t *testing.T) {
	c, _ := fixture(t)
	g := folded(c, DiscoverOptions{IDRefAttrs: []string{"bordering"}})
	root := func(doc xmldoc.DocID) xmldoc.NodeRef { return xmldoc.NodeRef{Doc: doc, Dewey: dewey.Root()} }
	// A repeated pair and an intra-document edge add no partner.
	if err := g.AddEdge(root(1), root(0), IDRef, "again"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(root(0), xmldoc.NodeRef{Doc: 0, Dewey: dewey.Root().Child(1)}, IDRef, "self"); err != nil {
		t.Fatal(err)
	}
	want := map[xmldoc.DocID][]xmldoc.DocID{0: {1, 2}, 1: {0, 2}, 2: {0, 1, 3}, 3: {2}}
	for doc, w := range want {
		if got := g.LinkedDocs(nil, doc); !reflect.DeepEqual(got, w) {
			t.Errorf("LinkedDocs(%d) = %v, want %v", doc, got, w)
		}
		if g.TreeOnly(doc) {
			t.Errorf("TreeOnly(%d) with link edges", doc)
		}
	}
	if got := g.LinkedDocs([]xmldoc.DocID{7}, 3); !reflect.DeepEqual(got, []xmldoc.DocID{7, 2}) {
		t.Errorf("LinkedDocs after a prefix = %v, want [7 2]", got)
	}
	if len(g.LinkedDocs(nil, 99)) != 0 || !g.TreeOnly(99) {
		t.Error("a document without edges has partners")
	}
}

// TestPairDistanceHopBudget: the cheapest arrival at a node may have spent
// the hop budget that a dearer arrival still has. A reaches C/p for 5 over
// B (two hops) and for 6 over its deep far node (one hop); only the second
// can still cross C/q→D, so within two hops A and D are 6+2+2 = 10 apart,
// and 5+2+2 = 9 apart within three.
func TestPairDistanceHopBudget(t *testing.T) {
	c := store.NewCollection()
	for i, d := range []string{
		`<a><x/><deep><d1><d2><far/></d2></d1></deep></a>`,
		`<b/>`,
		`<c><p/><q/></c>`,
		`<d/>`,
	} {
		if _, err := c.AddXML(fmt.Sprintf("doc%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	g := New(c, DiscoverOptions{}, nil)
	ref := func(doc xmldoc.DocID, path ...uint32) xmldoc.NodeRef {
		return xmldoc.NodeRef{Doc: doc, Dewey: append(dewey.ID{1}, path...)}
	}
	for _, e := range [][2]xmldoc.NodeRef{
		{ref(0, 1), ref(1)},             // A/x → B
		{ref(1), ref(2, 1)},             // B → C/p
		{ref(0, 2, 1, 1, 1), ref(2, 1)}, // A/deep/d1/d2/far → C/p
		{ref(2, 2), ref(3)},             // C/q → D
	} {
		if err := g.AddEdge(e[0], e[1], IDRef, ""); err != nil {
			t.Fatal(err)
		}
	}
	for hops, want := range map[int]int{1: Unreachable, 2: 10, 3: 9} {
		if got := g.PairDistance(ref(0), ref(3), hops); got != want {
			t.Errorf("PairDistance(A, D, %d) = %d, want %d", hops, got, want)
		}
	}
}

// arrival is a node reached at a distance.
type arrival struct {
	ref  xmldoc.NodeRef
	dist int
}

// layeredArrivals is the brute-force oracle for PairDistance: one
// relaxation round per link hop over (node, hops) states, with no priority
// queue and no settled set. layers[h] holds, per node, the cheapest
// arrival from a having crossed exactly h link edges. Link edges are
// crossed in either direction, from any node of the exit's document at its
// tree distance.
func layeredArrivals(g *Graph, a xmldoc.NodeRef, maxLinkHops int) []map[string]arrival {
	layers := []map[string]arrival{{key(a): {a, 0}}}
	for h := 0; h < maxLinkHops; h++ {
		next := map[string]arrival{}
		for _, at := range layers[h] {
			for _, e := range g.Edges() {
				for _, hop := range [2][2]xmldoc.NodeRef{{e.From, e.To}, {e.To, e.From}} {
					exit, entry := hop[0], hop[1]
					if exit.Doc != at.ref.Doc {
						continue
					}
					d := at.dist + TreeDistance(at.ref, exit) + LinkEdgeCost
					if cur, ok := next[key(entry)]; !ok || d < cur.dist {
						next[key(entry)] = arrival{entry, d}
					}
				}
			}
		}
		layers = append(layers, next)
	}
	return layers
}

// TestPairDistanceMatchesLayeredSearch checks PairDistance against the
// layered oracle on every node pair of random linked corpora (nested
// documents, edges across and within documents, some documents unlinked)
// at hop caps 0 to 3.
func TestPairDistanceMatchesLayeredSearch(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := store.NewCollection()
		var elem func(depth int) string
		elem = func(depth int) string {
			s := "<e>"
			for n := r.Intn(4); n > 0 && depth < 3; n-- {
				s += elem(depth + 1)
			}
			return s + "</e>"
		}
		for d := 3 + r.Intn(4); d > 0; d-- {
			if _, err := c.AddXML(fmt.Sprintf("doc%d", d), []byte(elem(0))); err != nil {
				t.Fatal(err)
			}
		}
		var refs []xmldoc.NodeRef
		c.EachNode(func(doc *xmldoc.Document, n *xmldoc.Node) {
			refs = append(refs, store.RefOf(doc, n))
		})
		g := New(c, DiscoverOptions{}, nil)
		for n := 1 + r.Intn(14); n > 0; n-- {
			from, to := refs[r.Intn(len(refs))], refs[r.Intn(len(refs))]
			if err := g.AddEdge(from, to, IDRef, ""); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range refs {
			layers := layeredArrivals(g, a, 3)
			for _, b := range refs {
				want := Unreachable
				for hops := 0; hops <= 3; hops++ {
					for _, at := range layers[hops] {
						if at.ref.Doc == b.Doc {
							want = min(want, at.dist+TreeDistance(at.ref, b))
						}
					}
					if got := g.PairDistance(a, b, hops); got != want {
						t.Fatalf("seed %d: PairDistance(%v, %v, %d) = %d, layered search %d", seed, a, b, hops, got, want)
					}
				}
			}
		}
	}
}

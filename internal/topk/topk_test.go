package topk

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"seda/internal/graph"
	"seda/internal/index"
	"seda/internal/query"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// fixture: three country documents in the paper's Figure 2 shape plus a
// linked sea document.
func fixture(t testing.TB) (*store.Collection, *index.Index, *graph.Graph) {
	t.Helper()
	c := store.NewCollection()
	docs := []string{
		`<country id="us"><name>United States</name><year>2002</year><economy><GDP>10.082T</GDP></economy></country>`,
		`<country id="mx1"><name>Mexico</name><year>2003</year><economy>
			<import_partners>
				<item><trade_country>United States</trade_country><percentage>70.6%</percentage></item>
				<item><trade_country>Germany</trade_country><percentage>3.5%</percentage></item>
			</import_partners></economy></country>`,
		`<country id="mx2"><name>Mexico</name><year>2005</year><economy>
			<export_partners>
				<item><trade_country>United States</trade_country><percentage>15.3%</percentage></item>
			</export_partners></economy></country>`,
		`<sea id="pac" bordering="us"><name>Pacific Ocean</name></sea>`,
	}
	for i, d := range docs {
		if _, err := c.AddXML(fmt.Sprintf("doc%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	ix := index.Build(c)
	g := graph.New(c)
	g.DiscoverLinks(graph.DiscoverOptions{IDRefAttrs: []string{"bordering"}})
	return c, ix, g
}

func TestQuery1TopK(t *testing.T) {
	c, ix, g := fixture(t)
	s := New(ix, g)
	q := query.MustParse(`(*, "United States") AND (trade_country, *) AND (percentage, *)`)
	rs, err := s.Search(q, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	// Best tuple should pair a US trade_country with its sibling
	// percentage (compactness favors the same item).
	best := rs[0]
	if len(best.Nodes) != 3 {
		t.Fatalf("tuple arity = %d", len(best.Nodes))
	}
	dict := c.Dict()
	tcPath := dict.Path(best.Paths[1])
	if !strings.HasSuffix(tcPath, "/item/trade_country") {
		t.Errorf("term2 path = %q", tcPath)
	}
	// The US match and trade_country should be the same node or close kin;
	// percentage must be the sibling of the trade_country.
	tc, pc := best.Nodes[1], best.Nodes[2]
	if tc.Doc != pc.Doc || graph.TreeDistance(tc, pc) != 2 {
		t.Errorf("best tuple not sibling-paired: %v %v", tc, pc)
	}
	// Scores are sorted descending.
	for i := 1; i < len(rs); i++ {
		if rs[i].Score > rs[i-1].Score {
			t.Errorf("results out of order at %d", i)
		}
	}
}

func TestCompactnessWeighsScore(t *testing.T) {
	// With compactness, the sibling pairing of (trade_country=Germany,
	// percentage=3.5%) outranks mixing Germany with the other item's
	// 70.6%. Content alone cannot tell them apart.
	_, ix, g := fixture(t)
	s := New(ix, g)
	q := query.MustParse(`(trade_country, germany) AND (percentage, *)`)
	rs, err := s.Search(q, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) < 2 {
		t.Fatalf("results = %d", len(rs))
	}
	best := rs[0]
	if d := graph.TreeDistance(best.Nodes[0], best.Nodes[1]); d != 2 {
		t.Errorf("best germany tuple distance = %d, want sibling (2)", d)
	}
	if best.Compactness <= rs[1].Compactness {
		t.Errorf("compactness should strictly separate: %v vs %v", best.Compactness, rs[1].Compactness)
	}
	for i, r := range rs {
		if r.Score != r.ContentScore*r.Compactness {
			t.Errorf("result %d: score %v != content %v × compactness %v", i, r.Score, r.ContentScore, r.Compactness)
		}
	}
	// Ranked on the content sum alone, the tuples tie and fall to the
	// deterministic tie-break, which orders them differently.
	byContent := slices.Clone(rs)
	slices.SortStableFunc(byContent, func(a, b Result) int {
		if c := cmp.Compare(b.ContentScore, a.ContentScore); c != 0 {
			return c
		}
		if lessTuple(a.Nodes, b.Nodes) {
			return -1
		}
		if lessTuple(b.Nodes, a.Nodes) {
			return 1
		}
		return 0
	})
	if reflect.DeepEqual(byContent, rs) {
		t.Error("compactness did not change the content-sum order")
	}
}

func TestCrossDocTuples(t *testing.T) {
	_, ix, g := fixture(t)
	s := New(ix, g)
	// "Pacific" lives in the sea doc; "10.082T" in the US doc. They connect
	// through the bordering IDREF edge.
	q := query.MustParse(`(name, pacific) AND (GDP, *)`)
	rs, err := s.Search(q, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("cross-doc results = %d, want 1", len(rs))
	}
	if rs[0].Nodes[0].Doc == rs[0].Nodes[1].Doc {
		t.Error("expected a cross-document tuple")
	}
	// With cross-doc disabled there are no results.
	rs2, err := s.Search(q, Options{K: 3, DisableCrossDoc: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs2) != 0 {
		t.Errorf("DisableCrossDoc results = %d, want 0", len(rs2))
	}
}

func TestDisconnectedTuplesExcluded(t *testing.T) {
	// Two documents with no link between them can never form a tuple
	// (Definition 4).
	c := store.NewCollection()
	for i, d := range []string{`<a><x>alpha</x></a>`, `<b><y>beta</y></b>`} {
		if _, err := c.AddXML(fmt.Sprintf("d%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	ix := index.Build(c)
	s := New(ix, nil)
	q := query.MustParse(`(x, alpha) AND (y, beta)`)
	rs, err := s.Search(q, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Errorf("disconnected tuple returned: %v", rs)
	}
}

func TestSingleTermQuery(t *testing.T) {
	_, ix, g := fixture(t)
	s := New(ix, g)
	rs, err := s.Search(query.MustParse(`(*, mexico)`), Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("results = %d, want 2", len(rs))
	}
	for _, r := range rs {
		if r.Compactness != 1 {
			t.Errorf("singleton compactness = %v", r.Compactness)
		}
	}
}

func TestEmptyQueryAndNoMatch(t *testing.T) {
	_, ix, g := fixture(t)
	s := New(ix, g)
	if _, err := s.Search(query.Query{}, Options{}); err == nil {
		t.Error("empty query should error")
	}
	rs, err := s.Search(query.MustParse(`(*, nosuchtoken)`), Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Errorf("results = %d", len(rs))
	}
}

func TestKLimits(t *testing.T) {
	_, ix, g := fixture(t)
	s := New(ix, g)
	q := query.MustParse(`(trade_country, *) AND (percentage, *)`)
	all, err := s.Search(q, Options{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	one, err := s.Search(q, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Fatalf("K=1 returned %d", len(one))
	}
	if len(all) < 3 {
		t.Fatalf("K=100 returned %d", len(all))
	}
	if one[0].Score != all[0].Score {
		t.Errorf("K=1 best %v != K=100 best %v", one[0].Score, all[0].Score)
	}
}

// TestTAEarlyTermination verifies the threshold-algorithm behavior: with a
// small K over many candidate documents, the scan must stop before
// materializing every unit, and the results must still equal an exhaustive
// scan's.
func TestTAEarlyTermination(t *testing.T) {
	c := store.NewCollection()
	// Many documents where both terms match the same node, so the best
	// tuple per document reaches the unit's upper bound (compactness 1)
	// and the threshold condition can fire. Term frequency varies the
	// content scores across documents.
	for i := 0; i < 60; i++ {
		reps := 1 + i%5
		val := strings.TrimSpace(strings.Repeat("gold ", reps)) + " silver"
		doc := fmt.Sprintf(`<r><x>%s</x></r>`, val)
		if _, err := c.AddXML(fmt.Sprintf("d%d", i), []byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	ix := index.Build(c)
	s := New(ix, nil)
	q := query.MustParse(`(x, gold) AND (x, silver)`)
	top, stats, err := s.SearchStats(q, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("results = %d", len(top))
	}
	if stats.UnitsCandidates != 60 {
		t.Errorf("candidates = %d, want 60", stats.UnitsCandidates)
	}
	if stats.UnitsScanned >= stats.UnitsCandidates {
		t.Errorf("no early termination: scanned %d of %d", stats.UnitsScanned, stats.UnitsCandidates)
	}
	// Exhaustive run agrees on the top scores.
	all, err := s.Search(q, Options{K: 60})
	if err != nil {
		t.Fatal(err)
	}
	for i := range top {
		if top[i].Score != all[i].Score {
			t.Errorf("rank %d: early %v vs exhaustive %v", i, top[i].Score, all[i].Score)
		}
	}
}

// linkedFixture builds a corpus of identical-content document pairs joined
// by an IDREF edge, so every pair yields single-document tuples (from both
// docs), a cross-document candidate unit, and genuine cross-document
// tuples.
func linkedFixture(t testing.TB, pairs int) (*index.Index, *graph.Graph) {
	t.Helper()
	c := store.NewCollection()
	for i := 0; i < pairs; i++ {
		reps := 1 + i%4 // vary scores so bounds are not all equal
		gold := strings.TrimSpace(strings.Repeat("gold ", reps))
		a := fmt.Sprintf(`<a id="a%d"><x>%s</x><y>silver</y></a>`, i, gold)
		b := fmt.Sprintf(`<b ref="a%d"><x>%s</x><y>silver</y></b>`, i, gold)
		if _, err := c.AddXML(fmt.Sprintf("a%d", i), []byte(a)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddXML(fmt.Sprintf("b%d", i), []byte(b)); err != nil {
			t.Fatal(err)
		}
	}
	ix := index.Build(c)
	g := graph.New(c)
	g.DiscoverLinks(graph.DiscoverOptions{IDRefAttrs: []string{"ref"}})
	return ix, g
}

func tupleKey(nodes []xmldoc.NodeRef) string {
	var sb strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&sb, "%v|", n)
	}
	return sb.String()
}

// TestNoDuplicateTuples is the regression test for the cross-document
// duplicate bug: a pair unit used to re-enumerate tuples living wholly
// inside one of its documents, so copies of a single tuple could fill
// several top-k slots (and corrupt the k-th threshold).
func TestNoDuplicateTuples(t *testing.T) {
	ix, g := linkedFixture(t, 6)
	s := New(ix, g)
	q := query.MustParse(`(x, gold) AND (y, silver)`)
	rs, err := s.Search(q, Options{K: 100, PerDocPerTerm: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	seen := make(map[string]bool)
	crossDoc := 0
	for _, r := range rs {
		key := tupleKey(r.Nodes)
		if seen[key] {
			t.Errorf("duplicate tuple in top-k: %s", key)
		}
		seen[key] = true
		if r.Nodes[0].Doc != r.Nodes[1].Doc {
			crossDoc++
		}
	}
	// The dedup must not throw away genuine link-joined tuples.
	if crossDoc == 0 {
		t.Error("no cross-document tuples survived")
	}
	// Each pair contributes 2 single-doc tuples and 2 cross-doc tuples.
	if want := 6 * 4; len(rs) != want {
		t.Errorf("results = %d, want %d", len(rs), want)
	}
}

// TestParallelSearchMatchesSequential: the acceptance bar for the worker
// pool — at any parallelism, and under concurrent Search calls (run with
// -race), the results must be byte-identical to a sequential scan.
func TestParallelSearchMatchesSequential(t *testing.T) {
	ix, g := linkedFixture(t, 20)
	s := New(ix, g)
	queries := []query.Query{
		query.MustParse(`(x, gold) AND (y, silver)`),
		query.MustParse(`(*, gold) AND (*, silver)`),
		query.MustParse(`(x, gold)`),
	}
	for qi, q := range queries {
		for _, k := range []int{1, 3, 10, 1000} {
			seq, err := s.Search(q, Options{K: k, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, par := range []int{2, 3, 8, 16} {
				wg.Add(1)
				go func(par int) {
					defer wg.Done()
					got, err := s.Search(q, Options{K: k, Parallelism: par})
					if err != nil {
						t.Errorf("query %d parallelism %d: %v", qi, par, err)
						return
					}
					if !reflect.DeepEqual(got, seq) {
						t.Errorf("query %d k=%d parallelism %d: results differ from sequential", qi, k, par)
					}
				}(par)
			}
			wg.Wait()
		}
	}
}

// bruteForce enumerates every tuple over full match lists and scores it the
// same way, as an oracle for the TA loop.
func bruteForce(t *testing.T, ix *index.Index, g *graph.Graph, q query.Query, hops int) []float64 {
	t.Helper()
	var lists [][]index.Match
	for _, term := range q.Terms {
		ms, err := ix.MatchTerm(term)
		if err != nil {
			t.Fatal(err)
		}
		lists = append(lists, ms)
	}
	var scores []float64
	tuple := make([]index.Match, len(lists))
	var rec func(i int)
	rec = func(i int) {
		if i == len(lists) {
			refs := make([]xmldoc.NodeRef, len(tuple))
			content := 0.0
			for j, m := range tuple {
				refs[j] = m.Ref
				content += m.Score
			}
			w, ok := g.SteinerWeight(refs, hops)
			if !ok {
				return
			}
			scores = append(scores, content*graph.Compactness(w))
			return
		}
		for _, m := range lists[i] {
			tuple[i] = m
			rec(i + 1)
		}
	}
	rec(0)
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	return scores
}

// TestPropTopKAgainstBruteForce: with beams disabled (huge PerDocPerTerm),
// the TA loop must return exactly the brute-force top-k scores.
func TestPropTopKAgainstBruteForce(t *testing.T) {
	vocab := []string{"red", "green", "blue"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := store.NewCollection()
		n := 2 + r.Intn(4)
		for i := 0; i < n; i++ {
			root := xmldoc.Elem("r")
			for j := 0; j < 1+r.Intn(4); j++ {
				root.Add(xmldoc.Text(fmt.Sprintf("t%d", r.Intn(3)), vocab[r.Intn(len(vocab))]))
			}
			c.AddDocument(xmldoc.Build(fmt.Sprintf("d%d", i), root, c.Dict()))
		}
		ix := index.Build(c)
		g := graph.New(c)
		s := New(ix, g)
		q := query.MustParse(`(*, red) AND (*, green)`)
		got, err := s.Search(q, Options{K: 5, PerDocPerTerm: 1000})
		if err != nil {
			return false
		}
		want := bruteForce(t, ix, g, q, 2)
		if len(want) > 5 {
			want = want[:5]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Abs(got[i].Score-want[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"seda/internal/fulltext"
	"seda/internal/query"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

func mustTerm(t testing.TB, ctx, search string) query.Term {
	t.Helper()
	term, err := query.NewTerm(ctx, search)
	if err != nil {
		t.Fatal(err)
	}
	return term
}

func matchPaths(t *testing.T, c *store.Collection, ms []Match) []string {
	t.Helper()
	var out []string
	for _, m := range ms {
		out = append(out, c.Dict().Path(m.Path))
	}
	sort.Strings(out)
	return out
}

func TestMatchTermEmptyContextThreeUSContexts(t *testing.T) {
	// The paper's §1 example: "United States" occurs in three different
	// element contexts (country name, import partner, export partner) plus
	// our sea's bordering. With an empty context, SEDA matches the deepest
	// nodes containing the phrase.
	c, ix := buildFixture(t)
	ms, err := ix.MatchTerm(mustTerm(t, "*", `"United States"`))
	if err != nil {
		t.Fatal(err)
	}
	got := matchPaths(t, c, ms)
	want := []string{
		"/country/economy/export_partners/item/trade_country",
		"/country/economy/import_partners/item/trade_country",
		"/country/name",
		"/sea/bordering",
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("paths = %v, want %v", got, want)
	}
}

func TestMatchTermTagContext(t *testing.T) {
	c, ix := buildFixture(t)
	// (trade_country, *) matches both import and export instances.
	ms, err := ix.MatchTerm(mustTerm(t, "trade_country", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("trade_country matches = %d, want 3", len(ms))
	}
	// (trade_country, "United States") narrows to the two US partners.
	ms, err = ix.MatchTerm(mustTerm(t, "trade_country", `"United States"`))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("US trade_country matches = %d, want 2", len(ms))
	}
	for _, m := range ms {
		if c.Dict().LeafName(m.Path) != "trade_country" {
			t.Errorf("match leaf = %q", c.Dict().LeafName(m.Path))
		}
	}
}

func TestMatchTermPathContext(t *testing.T) {
	c, ix := buildFixture(t)
	// Restricting to the import context excludes the export match (§5
	// refinement).
	term := mustTerm(t, "/country/economy/import_partners/item/trade_country", `"United States"`)
	ms, err := ix.MatchTerm(term)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1", len(ms))
	}
	if got := c.Dict().Path(ms[0].Path); got != "/country/economy/import_partners/item/trade_country" {
		t.Errorf("path = %q", got)
	}
}

func TestMatchTermContextLifting(t *testing.T) {
	c, ix := buildFixture(t)
	// (country, "United States") must lift the name anchor to the country
	// element whose content contains the phrase — Definition 3's
	// (country, "Romania") example shape. Three countries contain the
	// phrase somewhere (US by name, Mexico 2003 import, Mexico 2005 export).
	ms, err := ix.MatchTerm(mustTerm(t, "country", `"United States"`))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("country matches = %d, want 3", len(ms))
	}
	for _, m := range ms {
		if got := c.Dict().Path(m.Path); got != "/country" {
			t.Errorf("lifted path = %q", got)
		}
	}
}

func TestMatchTermBooleanAndNot(t *testing.T) {
	_, ix := buildFixture(t)
	// Countries whose content has "mexico" but not "germany": only the 2005
	// export document.
	ms, err := ix.MatchTerm(mustTerm(t, "country", "mexico AND NOT germany"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1", len(ms))
	}
	// Pure negation with a context: countries without "germany".
	ms, err = ix.MatchTerm(mustTerm(t, "country", "NOT germany"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("NOT matches = %d, want 2", len(ms))
	}
}

func TestMatchTermConjunctionAcrossChildren(t *testing.T) {
	c := store.NewCollection()
	if _, err := c.AddXML("d", []byte(`<r><a><x>alpha</x><y>beta</y></a><b><x>alpha</x></b></r>`)); err != nil {
		t.Fatal(err)
	}
	ix := Build(c)
	// alpha AND beta co-occur only under <a> (and the root). Deepest = <a>.
	ms, err := ix.MatchTerm(mustTerm(t, "*", "alpha beta"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || c.Dict().Path(ms[0].Path) != "/r/a" {
		t.Fatalf("SLCA result wrong: %v", matchPaths(t, c, ms))
	}
}

func TestMatchTermScoresOrdering(t *testing.T) {
	c := store.NewCollection()
	// One doc mentions the term twice in a tight leaf, another once in a
	// long container.
	docs := []string{
		`<r><x>gold gold</x></r>`,
		`<r><x>gold and lots of other words diluting the score considerably here</x></r>`,
	}
	for i, d := range docs {
		if _, err := c.AddXML(fmt.Sprintf("d%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	ix := Build(c)
	ms, err := ix.MatchTerm(mustTerm(t, "x", "gold"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("matches = %d", len(ms))
	}
	// Matches are Dewey-ordered; doc0's node must out-score doc1's.
	if !(ms[0].Score > ms[1].Score) {
		t.Errorf("tf/length scoring inverted: %v vs %v", ms[0].Score, ms[1].Score)
	}
}

func TestMatchTermNoMatches(t *testing.T) {
	_, ix := buildFixture(t)
	ms, err := ix.MatchTerm(mustTerm(t, "*", "zzzznotfound"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Errorf("matches = %d, want 0", len(ms))
	}
	// Unknown context path.
	ms, err = ix.MatchTerm(mustTerm(t, "/nope/nope", "united"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Errorf("unknown context matches = %d", len(ms))
	}
}

func TestMatchTermWildcardTagContext(t *testing.T) {
	c, ix := buildFixture(t)
	ms, err := ix.MatchTerm(mustTerm(t, "trade*", `"United States"`))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("wildcard tag matches = %d, want 2", len(ms))
	}
	for _, m := range ms {
		if !strings.HasPrefix(c.Dict().LeafName(m.Path), "trade") {
			t.Errorf("leaf %q does not match trade*", c.Dict().LeafName(m.Path))
		}
	}
}

// naiveMatch is the oracle: scan every node and evaluate Definition 3
// directly. For a non-empty context every context-matching satisfying node
// is a result. For the empty context, results are the per-clause deepest
// anchors: for each conjunctive alternative of the expression, the minimal
// nodes whose subtree covers all of the clause's positive terms, filtered
// by full-expression verification. (An ancestor that only satisfies the
// expression through a descendant's terms is not itself a result.)
func naiveMatch(c *store.Collection, t query.Term) []xmldoc.NodeRef {
	dict := c.Dict()
	satisfies := func(n *xmldoc.Node) bool {
		return t.Search.Matches(fulltext.NewContent(n.Content()))
	}
	var out []xmldoc.NodeRef
	if !t.Context.IsEmpty() {
		for _, doc := range c.LiveDocs() {
			d := doc
			d.Walk(func(n *xmldoc.Node) bool {
				if t.Context.Matches(dict, n.Path) && satisfies(n) {
					out = append(out, store.RefOf(d, n))
				}
				return true
			})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
		return out
	}
	clauses := naiveDNF(t.Search)
	seen := make(map[string]bool)
	for _, doc := range c.LiveDocs() {
		d := doc
		for _, clause := range clauses {
			if len(clause) == 0 {
				continue
			}
			var covers []*xmldoc.Node
			d.Walk(func(n *xmldoc.Node) bool {
				if naiveCovers(n, clause) {
					covers = append(covers, n)
				}
				return true
			})
			for _, a := range covers {
				minimal := true
				for _, b := range covers {
					if a != b && a.Dewey.IsAncestorOf(b.Dewey) {
						minimal = false
						break
					}
				}
				if minimal && satisfies(a) {
					ref := store.RefOf(d, a)
					if !seen[ref.String()] {
						seen[ref.String()] = true
						out = append(out, ref)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// naiveProbe mirrors the notion of a positive probe without sharing code
// with the implementation.
type naiveProbe struct {
	term   string
	prefix bool
}

func naiveCovers(n *xmldoc.Node, clause []naiveProbe) bool {
	content := fulltext.NewContent(n.Content())
	for _, p := range clause {
		if p.prefix {
			if !content.MatchPrefix(p.term) {
				return false
			}
		} else if !content.Has(p.term) {
			return false
		}
	}
	return true
}

func naiveDNF(e fulltext.Expr) [][]naiveProbe {
	switch t := e.(type) {
	case fulltext.Word:
		return [][]naiveProbe{{{term: t.Term, prefix: t.Prefix}}}
	case fulltext.Phrase:
		var cl []naiveProbe
		for _, w := range t.TermsSeq {
			cl = append(cl, naiveProbe{term: w})
		}
		return [][]naiveProbe{cl}
	case fulltext.Not, fulltext.MatchAll:
		return [][]naiveProbe{{}}
	case fulltext.Or:
		var out [][]naiveProbe
		for _, c := range t.Children {
			out = append(out, naiveDNF(c)...)
		}
		return out
	case fulltext.And:
		acc := [][]naiveProbe{{}}
		for _, c := range t.Children {
			var next [][]naiveProbe
			for _, a := range acc {
				for _, s := range naiveDNF(c) {
					cl := append(append([]naiveProbe{}, a...), s...)
					next = append(next, cl)
				}
			}
			acc = next
		}
		return acc
	}
	return nil
}

func sameRefs(a []Match, b []xmldoc.NodeRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Ref.Equal(b[i]) {
			return false
		}
	}
	return true
}

// referenceScore is the content score as a per-candidate computation —
// the terms and prefix expansions re-derived for every node — kept as the
// oracle for the scorer MatchTermShard sets up once per call. Scores must
// agree bit for bit. ix must be a one-shard build over the live
// documents, whose base vocabulary and document frequencies are the live
// ones.
func referenceScore(ix *Index, e fulltext.Expr, content *fulltext.Content) float64 {
	tqs := fulltext.Terms(e)
	if len(tqs) == 0 {
		return 1
	}
	n := float64(ix.col.NumLive())
	var s float64
	for _, tq := range tqs {
		tf := float64(content.TermFreq(tq.Term))
		if tq.Prefix {
			tf = 0
			for i := sort.SearchStrings(ix.baseTerms, tq.Term); i < len(ix.baseTerms) && strings.HasPrefix(ix.baseTerms[i], tq.Term); i++ {
				tf += float64(content.TermFreq(ix.baseTerms[i]))
			}
		}
		if tf == 0 {
			continue
		}
		df := float64(ix.baseDocFreq[tq.Term])
		if df == 0 {
			df = 1
		}
		idf := math.Log(1 + n/df)
		s += (1 + math.Log(tf)) * idf
	}
	return s / (1 + 0.3*math.Log(1+float64(content.Len())))
}

// checkMatchOracle compares ix.MatchTerm(term) with the naive evaluator
// over ix's (possibly masked) collection: the same refs in the same
// order, each match carrying its node's path and a score bit-identical to
// referenceScore.
func checkMatchOracle(ix *Index, term query.Term) error {
	got, err := ix.MatchTerm(term)
	if err != nil {
		return err
	}
	if want := naiveMatch(ix.col, term); !sameRefs(got, want) {
		return fmt.Errorf("term %s\n got=%v\nwant=%v", term, got, want)
	}
	live := BuildSharded(compacted(ix.col), 1, 1)
	for _, m := range got {
		node := ix.col.Node(m.Ref)
		if m.Path != node.Path {
			return fmt.Errorf("term %s: %v has path %d, node has %d", term, m.Ref, m.Path, node.Path)
		}
		want := referenceScore(live, term.Search, fulltext.NewContent(node.Content()))
		if math.Float64bits(m.Score) != math.Float64bits(want) {
			return fmt.Errorf("term %s: %v scores %v, reference %v", term, m.Ref, m.Score, want)
		}
	}
	return nil
}

// The oracle's query space: every search form MatchTerm treats
// differently (word, conjunction, disjunction, phrase, negation, a
// negated group, prefix, match-all) crossed with tag, path, disjunctive and tag-prefix contexts.
// The vocabulary holds mixed-case and punctuated spellings of its words,
// so normalization is checked end to end.
var (
	oracleVocab    = []string{"red", "green", "blue", "gold", "Red", "gold.", "-blue-"}
	oracleTags     = []string{"a", "b", "c"}
	oracleSearches = []string{
		"red", "red green", "red OR green", `"red green"`,
		"red AND NOT blue", "g*", "red (green OR gold)", "*", "NOT red",
		"NOT (red AND green)", "NOT red AND green",
	}
	oracleContexts = []string{"*", "a", "b", "c", "a|b", "/a/b", "/a/b/c", "b*"}
)

// oracleCase draws a corpus of one to six random documents and a term
// from the oracle's query space. ok is false when query.NewTerm rejects
// the combination, e.g. (*, *) or (*, NOT red).
func oracleCase(r *rand.Rand) (c *store.Collection, term query.Term, ok bool) {
	c = store.NewCollection()
	nDocs := 1 + r.Intn(6)
	for i := 0; i < nDocs; i++ {
		c.AddDocument(xmldoc.Build(fmt.Sprintf("d%d", i), randDoc(r, oracleTags, oracleVocab, 0), c.Dict()))
	}
	search := oracleSearches[r.Intn(len(oracleSearches))]
	ctx := oracleContexts[r.Intn(len(oracleContexts))]
	term, err := query.NewTerm(ctx, search)
	return c, term, err == nil
}

// maskEveryThird masks documents 2, 5, 8, … of ix's collection and returns
// the masked index, or ix itself when it has fewer than three documents.
func maskEveryThird(tb testing.TB, ix *Index) *Index {
	tb.Helper()
	var dead []xmldoc.DocID
	for id := 2; id < ix.col.NumDocs(); id += 3 {
		dead = append(dead, xmldoc.DocID(id))
	}
	if len(dead) == 0 {
		return ix
	}
	mc, err := ix.col.WithTombstones(dead)
	if err != nil {
		tb.Fatal(err)
	}
	mix, err := extend(ix, mc, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return mix
}

// TestPropMatchTermAgainstOracle cross-checks MatchTerm with the naive
// Definition-3 evaluator on randomized corpora and queries, at one and
// three shards and with every third document masked.
func TestPropMatchTermAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		c, term, ok := oracleCase(rand.New(rand.NewSource(seed)))
		if !ok {
			return true
		}
		three := BuildSharded(c, 3, 1)
		for _, ix := range []*Index{BuildSharded(c, 1, 1), three, maskEveryThird(t, three)} {
			if err := checkMatchOracle(ix, term); err != nil {
				t.Logf("seed %d, %d shards, %d masked: %v", seed, ix.NumShards(), ix.dead.Len(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// byteSource is a rand.Source that spends one input byte per draw (the
// byte replicated across the word, so small Intn ranges see every byte
// value) and yields zeros once the input runs out. It lets the fuzzer
// steer every structural choice of oracleCase directly.
type byteSource struct{ b []byte }

func (s *byteSource) Int63() int64 {
	var v byte
	if len(s.b) > 0 {
		v, s.b = s.b[0], s.b[1:]
	}
	return int64(uint64(v) * 0x0101010101010101 >> 1)
}

func (s *byteSource) Seed(int64) {}

// FuzzMatchTerm decodes the input into an oracle case plus a shard count
// and a masking choice, and checks MatchTerm against the naive evaluator.
// The checked-in corpus (testdata/fuzz/FuzzMatchTerm) covers a masked
// match-all scan, a negation over two shards, a masked phrase, a lifted
// prefix and a multi-clause expression.
func FuzzMatchTerm(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := rand.New(&byteSource{b: data})
		c, term, ok := oracleCase(r)
		if !ok {
			return
		}
		ix := BuildSharded(c, 1+r.Intn(3), 1)
		if r.Intn(2) == 1 {
			ix = maskEveryThird(t, ix)
		}
		if err := checkMatchOracle(ix, term); err != nil {
			t.Fatalf("%d shards, %d masked: %v", ix.NumShards(), ix.dead.Len(), err)
		}
	})
}

func randDoc(r *rand.Rand, tags, vocab []string, depth int) *xmldoc.Node {
	n := xmldoc.Elem(tags[r.Intn(len(tags))])
	if r.Intn(2) == 0 {
		k := 1 + r.Intn(3)
		var words []string
		for i := 0; i < k; i++ {
			words = append(words, vocab[r.Intn(len(vocab))])
		}
		n.Text = strings.Join(words, " ")
	}
	if depth < 3 {
		for i := 0; i < r.Intn(3); i++ {
			n.Add(randDoc(r, tags, vocab, depth+1))
		}
	}
	return n
}

// TestSingleListSLCA checks the sweep on one posting list — every
// single-probe clause — against the definition: the posting nodes with no
// posting strictly below them, once each, with their paths. The random
// lists are in document order, some with a posting repeated.
func TestSingleListSLCA(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := store.NewCollection()
		for i := 0; i < 1+r.Intn(4); i++ {
			c.AddDocument(xmldoc.Build(fmt.Sprintf("d%d", i), randDoc(r, oracleTags, oracleVocab, 0), c.Dict()))
		}
		var ps []Posting
		for _, doc := range c.LiveDocs() {
			d := doc
			d.Walk(func(n *xmldoc.Node) bool {
				copies := 0 // a third of the nodes get a posting, one in six of those twice
				if r.Intn(3) == 0 {
					copies = 1 + r.Intn(6)/5
				}
				for ; copies > 0; copies-- {
					ps = append(ps, Posting{Ref: store.RefOf(d, n), Path: n.Path})
				}
				return true
			})
		}
		var want []Match
		for i, p := range ps {
			if i > 0 && ps[i-1].Ref.Equal(p.Ref) {
				continue
			}
			lowest := true
			for _, q := range ps {
				if q.Ref.Doc == p.Ref.Doc && p.Ref.Dewey.IsAncestorOf(q.Ref.Dewey) {
					lowest = false
				}
			}
			if lowest {
				want = append(want, Match{Ref: p.Ref, Path: p.Path})
			}
		}
		got := slca(nil, [][]Posting{ps}, c.Dict())
		if !slices.EqualFunc(got, want, func(a, b Match) bool { return a.Ref.Equal(b.Ref) && a.Path == b.Path }) {
			t.Logf("seed %d: sweep = %v, want %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAnchorPathsMatchNodes checks that every anchor of every clause, and
// every candidate lifted from it, carries its node's path.
func TestAnchorPathsMatchNodes(t *testing.T) {
	f := func(seed int64) bool {
		c, term, ok := oracleCase(rand.New(rand.NewSource(seed)))
		if !ok {
			return true
		}
		ix := BuildSharded(c, 2, 1)
		for _, clause := range dnfClauses(term.Search) {
			for s := 0; s < ix.NumShards(); s++ {
				anchors, err := ix.clauseAnchors(nil, clause, s)
				if err != nil {
					t.Fatal(err)
				}
				ms := anchors
				if !term.Context.IsEmpty() {
					for _, a := range anchors {
						ms = ix.appendLifted(ms, term.Context, a)
					}
				}
				for _, m := range ms {
					if want := c.PathOf(m.Ref); m.Path != want {
						t.Logf("seed %d, term %s, clause %v: %v has path %d, node has %d", seed, term, clause, m.Ref, m.Path, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMatchByContextScanError exercises the defensive error for impossible
// terms constructed without NewTerm validation.
func TestMatchByContextScanError(t *testing.T) {
	_, ix := buildFixture(t)
	bad := query.Term{Context: query.Context{}, Search: fulltext.MatchAll{}}
	if _, err := ix.MatchTerm(bad); err == nil {
		t.Error("(*, *) should error at match time too")
	}
}

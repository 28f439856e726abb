package index

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"seda/internal/fulltext"
	"seda/internal/pathdict"
	"seda/internal/query"
	"seda/internal/store"
)

// buildFixture assembles a miniature World Factbook-like corpus echoing the
// paper's Figure 2 fragments.
func buildFixture(t testing.TB) (*store.Collection, *Index) {
	t.Helper()
	c := store.NewCollection()
	docs := []string{
		// (a) United States as a country, 2002
		`<country><name>United States</name><year>2002</year><economy><GDP>10.082T</GDP></economy></country>`,
		// (b) Mexico 2003 with United States as import partner
		`<country><name>Mexico</name><year>2003</year><economy><GDP>924.4B</GDP>
			<import_partners><item><trade_country>United States</trade_country><percentage>70.6%</percentage></item>
			<item><trade_country>Germany</trade_country><percentage>3.5%</percentage></item></import_partners>
		 </economy></country>`,
		// (c) Mexico 2005 with United States as export partner
		`<country><name>Mexico</name><year>2005</year><economy><GDP_ppp>1.006T</GDP_ppp>
			<export_partners><item><trade_country>United States</trade_country><percentage>15.3%</percentage></item></export_partners>
		 </economy></country>`,
		// A sea document (different root)
		`<sea><name>Pacific Ocean</name><bordering>United States</bordering></sea>`,
	}
	for i, d := range docs {
		if _, err := c.AddXML(fmt.Sprintf("doc%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	return c, Build(c)
}

func TestLookupBasics(t *testing.T) {
	_, ix := buildFixture(t)
	ps := termPostings(t, ix, "united")
	if len(ps) != 4 {
		t.Fatalf("postings(united) = %d, want 4", len(ps))
	}
	// Postings are in (doc, Dewey) order and unique per node.
	for i := 1; i < len(ps); i++ {
		if !ps[i-1].Ref.Less(ps[i].Ref) {
			t.Errorf("postings out of order at %d", i)
		}
	}
	if termPostings(t, ix, "nonexistent") != nil {
		t.Error("unknown term should have nil postings")
	}
	if ix.DocFreq("united") != 4 {
		t.Errorf("DocFreq(united) = %d", ix.DocFreq("united"))
	}
	if ix.DocFreq("mexico") != 2 {
		t.Errorf("DocFreq(mexico) = %d", ix.DocFreq("mexico"))
	}
}

func TestLookupPrefix(t *testing.T) {
	_, ix := buildFixture(t)
	got := prefixPostings(t, ix, "germ")
	if len(got) != 1 {
		t.Fatalf("prefix germ = %d postings", len(got))
	}
	// "10.082t" and "15.3%" both start with "1".
	ones := prefixPostings(t, ix, "1")
	if len(ones) < 2 {
		t.Errorf("prefix 1 = %d postings, want >= 2", len(ones))
	}
	if prefixPostings(t, ix, "zzz") != nil {
		t.Error("no-match prefix should be nil")
	}
}

// TestPhrasePostings: a phrase term matches where its words are adjacent
// and in order inside one node's content — nowhere else.
func TestPhrasePostings(t *testing.T) {
	c, ix := buildFixture(t)
	for _, tc := range []struct {
		phrase string
		want   int
	}{
		{"united states", 4},
		{"states united", 0}, // reversed
		{"pacific states", 0},
		{"pacific", 1}, // a one-word phrase is the word
	} {
		ms, err := ix.MatchTerm(mustTerm(t, "*", `"`+tc.phrase+`"`))
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != tc.want {
			t.Errorf("phrase %q matches %v, want %d nodes", tc.phrase, matchPaths(t, c, ms), tc.want)
		}
	}
}

func TestContextIndexFig8(t *testing.T) {
	c, ix := buildFixture(t)
	dict := c.Dict()
	// "united" occurs in three element contexts + the sea bordering context.
	paths := ix.PathsForExpr(fulltext.Word{Term: "united"})
	var got []string
	for p := range paths {
		got = append(got, dict.Path(p))
	}
	want := map[string]bool{
		"/country/name": true,
		"/country/economy/import_partners/item/trade_country": true,
		"/country/economy/export_partners/item/trade_country": true,
		"/sea/bordering": true,
	}
	if len(paths) != len(want) {
		t.Fatalf("paths of united = %v, want %d contexts", got, len(want))
	}
	for p := range paths {
		if !want[dict.Path(p)] {
			t.Errorf("unexpected context %q", dict.Path(p))
		}
	}
	// Tag names are indexed as keywords (Fig. 8).
	tagPaths := ix.PathsForExpr(fulltext.Word{Term: "trade_country"})
	if len(tagPaths) != 2 {
		t.Errorf("paths of trade_country = %d contexts, want 2", len(tagPaths))
	}
}

func TestPathsForExprCombinations(t *testing.T) {
	c, ix := buildFixture(t)
	dict := c.Dict()

	// Conjunction intersects the per-term path sets: "united" and "mexico"
	// co-occur only in the /country/name context.
	and := ix.PathsForExpr(fulltext.MustParseQuery("united mexico"))
	if len(and) != 1 || renderPaths(dict, and)[0] != "/country/name" {
		t.Errorf("AND paths = %v", renderPaths(dict, and))
	}
	// Disjunction unions.
	or := ix.PathsForExpr(fulltext.MustParseQuery("pacific OR germany"))
	if len(or) != 2 {
		t.Errorf("OR paths = %v", renderPaths(dict, or))
	}
	// Phrase behaves like conjunction of members.
	ph := ix.PathsForExpr(fulltext.MustParseQuery(`"united states"`))
	if len(ph) != 4 {
		t.Errorf("phrase paths = %v", renderPaths(dict, ph))
	}
	// MatchAll covers every distinct path.
	all := ix.PathsForExpr(fulltext.MatchAll{})
	if len(all) != len(ix.AllPaths()) {
		t.Errorf("MatchAll paths = %d, want %d", len(all), len(ix.AllPaths()))
	}
	// NOT within AND does not restrict the path set.
	nand := ix.PathsForExpr(fulltext.MustParseQuery("united AND NOT mexico"))
	un := ix.PathsForExpr(fulltext.MustParseQuery("united"))
	if len(nand) != len(un) {
		t.Errorf("NOT restricted the path set: %d vs %d", len(nand), len(un))
	}
}

func TestNodesAtPath(t *testing.T) {
	c, ix := buildFixture(t)
	dict := c.Dict()
	p := dict.LookupPath("/country/economy/import_partners/item")
	refs := pathNodes(t, ix, p)
	if len(refs) != 2 {
		t.Fatalf("nodes at item = %d, want 2", len(refs))
	}
	if n := ix.nodesAtPathLen(p); n != len(refs) {
		t.Errorf("nodesAtPathLen(item) = %d, want %d", n, len(refs))
	}
	for i := 1; i < len(refs); i++ {
		if !refs[i-1].Less(refs[i]) {
			t.Error("nodes at item not ordered")
		}
	}
}

func renderPaths(dict *pathdict.Dict, m map[pathdict.PathID]int) []string {
	out := make([]string, 0, len(m))
	for p := range m {
		out = append(out, dict.Path(p))
	}
	sort.Strings(out)
	return out
}

// TestBuildParallelMatchesSequential: the parallel scan must produce an
// index indistinguishable from the sequential one — same postings (with
// positions), path-term counts, doc frequencies, and node/path orderings.
func TestBuildParallelMatchesSequential(t *testing.T) {
	c, _ := buildFixture(t)
	seq := BuildSharded(c, 1, 1)
	for _, p := range []int{2, 3, 8} {
		par := BuildSharded(c, 1, p)
		if !reflect.DeepEqual(mustDecoded(t, par.shards[0]).postings, mustDecoded(t, seq.shards[0]).postings) {
			t.Errorf("parallelism %d: postings differ", p)
		}
		if !reflect.DeepEqual(par.baseTerms, seq.baseTerms) {
			t.Errorf("parallelism %d: term lists differ", p)
		}
		if !reflect.DeepEqual(par.basePathTerms, seq.basePathTerms) {
			t.Errorf("parallelism %d: context index differs", p)
		}
		if !reflect.DeepEqual(par.baseDocFreq, seq.baseDocFreq) {
			t.Errorf("parallelism %d: doc frequencies differ", p)
		}
		if !reflect.DeepEqual(mustDecoded(t, par.shards[0]).pathNodes, mustDecoded(t, seq.shards[0]).pathNodes) {
			t.Errorf("parallelism %d: path-node lists differ", p)
		}
		if !reflect.DeepEqual(par.allPaths, seq.allPaths) {
			t.Errorf("parallelism %d: path orders differ", p)
		}
	}
}

// TestBuildShardedMatchesSingleShard: the read paths of a multi-shard
// index must be indistinguishable from the single-shard one — postings,
// prefix merges, node lists, matches, and global statistics.
func TestBuildShardedMatchesSingleShard(t *testing.T) {
	c, _ := buildFixture(t)
	one := BuildSharded(c, 1, 1)
	for _, n := range []int{2, 3, c.NumDocs(), c.NumDocs() + 5} {
		sharded := BuildSharded(c, n, 2)
		wantShards := n
		if wantShards > c.NumDocs() {
			wantShards = c.NumDocs()
		}
		if got := sharded.NumShards(); got != wantShards {
			t.Fatalf("shards %d: NumShards = %d, want %d", n, got, wantShards)
		}
		if !reflect.DeepEqual(sharded.baseTerms, one.baseTerms) {
			t.Errorf("shards %d: term lists differ", n)
		}
		if !reflect.DeepEqual(sharded.baseDocFreq, one.baseDocFreq) {
			t.Errorf("shards %d: doc frequencies differ", n)
		}
		if !reflect.DeepEqual(sharded.basePathTerms, one.basePathTerms) {
			t.Errorf("shards %d: context index differs", n)
		}
		if !reflect.DeepEqual(sharded.allPaths, one.allPaths) {
			t.Errorf("shards %d: path orders differ", n)
		}
		for _, term := range one.baseTerms {
			if !reflect.DeepEqual(termPostings(t, sharded, term), termPostings(t, one, term)) {
				t.Errorf("shards %d: postings of %q differ", n, term)
			}
		}
		for _, prefix := range []string{"", "u", "un", "germ", "1", "zzz"} {
			if !reflect.DeepEqual(prefixPostings(t, sharded, prefix), prefixPostings(t, one, prefix)) {
				t.Errorf("shards %d: prefix %q postings differ", n, prefix)
			}
		}
		for _, term := range []query.Term{
			mustTerm(t, "*", `"united states"`),
			mustTerm(t, "trade_country", "*"),
			mustTerm(t, "*", "germ* OR mexico"),
		} {
			ms, err := sharded.MatchTerm(term)
			if err != nil {
				t.Fatal(err)
			}
			want, err := one.MatchTerm(term)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ms, want) {
				t.Errorf("shards %d: MatchTerm(%s) differs", n, term)
			}
		}
		for _, p := range one.allPaths {
			if !reflect.DeepEqual(pathNodes(t, sharded, p), pathNodes(t, one, p)) {
				t.Errorf("shards %d: nodes at path %d differ", n, p)
			}
		}
		stats := sharded.ShardStats()
		docs := 0
		for _, st := range stats {
			docs += st.Docs
		}
		if docs != c.NumDocs() {
			t.Errorf("shards %d: shard stats cover %d docs, want %d", n, docs, c.NumDocs())
		}
	}
}

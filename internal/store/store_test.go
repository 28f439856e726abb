package store

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"seda/internal/dewey"
	"seda/internal/xmldoc"
)

func addDocs(t *testing.T, c *Collection, docs ...string) {
	t.Helper()
	for i, d := range docs {
		if _, err := c.AddXML(fmt.Sprintf("doc%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAddAndStats(t *testing.T) {
	c := NewCollection()
	addDocs(t, c,
		`<country><name>United States</name><economy><GDP>10T</GDP></economy></country>`,
		`<country><name>Mexico</name><economy><GDP_ppp>1T</GDP_ppp></economy></country>`,
		`<sea><name>Pacific</name></sea>`,
	)
	st := c.Stats()
	if st.NumDocs != 3 {
		t.Errorf("NumDocs = %d", st.NumDocs)
	}
	// paths: /country /country/name /country/economy /country/economy/GDP
	// /country/economy/GDP_ppp /sea /sea/name = 7
	if st.NumPaths != 7 {
		t.Errorf("NumPaths = %d, want 7", st.NumPaths)
	}
	if st.NumNodes != 4+4+2 {
		t.Errorf("NumNodes = %d, want 10", st.NumNodes)
	}
	if err := c.Verify(); err != nil {
		t.Error(err)
	}
}

func TestPathFrequencies(t *testing.T) {
	c := NewCollection()
	addDocs(t, c,
		`<country><year>2002</year><year>2003</year></country>`,
		`<country><year>2004</year></country>`,
		`<country><name>x</name></country>`,
	)
	yearPath := c.Dict().LookupPath("/country/year")
	if got := c.PathDocFreq(yearPath); got != 2 {
		t.Errorf("PathDocFreq(/country/year) = %d, want 2", got)
	}
	if got := c.PathOccurrences(yearPath); got != 3 {
		t.Errorf("PathOccurrences(/country/year) = %d, want 3", got)
	}
	countryPath := c.Dict().LookupPath("/country")
	if got := c.PathDocFreq(countryPath); got != 3 {
		t.Errorf("PathDocFreq(/country) = %d, want 3", got)
	}
}

func TestNodeResolution(t *testing.T) {
	c := NewCollection()
	addDocs(t, c, `<a><b>one</b><c><d>two</d></c></a>`)
	ref := xmldoc.NodeRef{Doc: 0, Dewey: dewey.ID{1, 2, 1}}
	n := c.Node(ref)
	if n == nil || n.Tag != "d" {
		t.Fatalf("Node(1.2.1) = %+v", n)
	}
	if got := c.Content(ref); got != "two" {
		t.Errorf("Content = %q", got)
	}
	if got := c.Dict().Path(c.PathOf(ref)); got != "/a/c/d" {
		t.Errorf("PathOf = %q", got)
	}
	// Dangling refs.
	if c.Node(xmldoc.NodeRef{Doc: 9, Dewey: dewey.ID{1}}) != nil {
		t.Error("dangling doc should be nil")
	}
	if c.Content(xmldoc.NodeRef{Doc: 0, Dewey: dewey.ID{1, 9}}) != "" {
		t.Error("dangling node content should be empty")
	}
}

func TestAddXMLErrors(t *testing.T) {
	c := NewCollection()
	if _, err := c.AddXML("bad", []byte("<a><b></a>")); err == nil {
		t.Error("malformed XML should error")
	}
	if c.NumDocs() != 0 {
		t.Error("failed add must not register a document")
	}
	if c.Doc(-1) != nil || c.Doc(0) != nil {
		t.Error("Doc out of range should be nil")
	}
}

func TestEachNodeCoversAll(t *testing.T) {
	c := NewCollection()
	addDocs(t, c, `<a><b>x</b></a>`, `<c/>`)
	count := 0
	c.EachNode(func(d *xmldoc.Document, n *xmldoc.Node) {
		count++
		if RefOf(d, n).Doc != d.ID {
			t.Error("RefOf doc mismatch")
		}
	})
	if count != c.NumNodes() {
		t.Errorf("EachNode visited %d, NumNodes %d", count, c.NumNodes())
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	c := NewCollection()
	addDocs(t, c,
		`<country code="us"><name>United States</name><economy><GDP>10T</GDP></economy></country>`,
		`<sea><name>Pacific Ocean</name><depth>10911</depth></sea>`,
	)
	got, err := roundTrip(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != c.NumDocs() || got.NumNodes() != c.NumNodes() {
		t.Errorf("roundtrip: docs %d/%d nodes %d/%d", got.NumDocs(), c.NumDocs(), got.NumNodes(), c.NumNodes())
	}
	if got.Stats().NumPaths != c.Stats().NumPaths {
		t.Errorf("roundtrip paths %d != %d", got.Stats().NumPaths, c.Stats().NumPaths)
	}
	// Same node content at same refs.
	ref := xmldoc.NodeRef{Doc: 0, Dewey: dewey.ID{1, 3, 1}}
	if got.Content(ref) != c.Content(ref) {
		t.Errorf("content mismatch at %v: %q vs %q", ref, got.Content(ref), c.Content(ref))
	}
	// Attribute preserved.
	if v, ok := got.Doc(0).Root.Attr("code"); !ok || v != "us" {
		t.Errorf("attribute lost in roundtrip: %q %v", v, ok)
	}
}

// Property: encode→decode preserves per-path statistics for random
// collections.
func TestPropPersistencePreservesStats(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewCollection()
		nDocs := 1 + r.Intn(5)
		for i := 0; i < nDocs; i++ {
			doc := xmldoc.Build(fmt.Sprintf("d%d", i), randomTree(r, 0), c.Dict())
			c.AddDocument(doc)
		}
		got, err := roundTrip(c)
		if err != nil {
			return false
		}
		if got.NumNodes() != c.NumNodes() || got.Stats().NumPaths != c.Stats().NumPaths {
			return false
		}
		for _, p := range c.Dict().AllPaths() {
			q := got.Dict().LookupPath(c.Dict().Path(p))
			if q == 0 {
				return false
			}
			if got.PathDocFreq(q) != c.PathDocFreq(p) || got.PathOccurrences(q) != c.PathOccurrences(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func randomTree(r *rand.Rand, depth int) *xmldoc.Node {
	tags := []string{"a", "b", "c"}
	n := xmldoc.Elem(tags[r.Intn(len(tags))])
	if r.Intn(2) == 0 {
		n.Text = fmt.Sprintf("v%d", r.Intn(100))
	}
	if depth < 3 {
		for i := 0; i < r.Intn(3); i++ {
			n.Add(randomTree(r, depth+1))
		}
	}
	return n
}

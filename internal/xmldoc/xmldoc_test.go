package xmldoc

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"seda/internal/dewey"
	"seda/internal/pathdict"
)

// sample mirrors the paper's Figure 2(a) fragment.
const sample = `<?xml version="1.0"?>
<country code="us">
  <name>United States</name>
  <year>2002</year>
  <economy>
    <GDP>10.082T</GDP>
  </economy>
</country>`

func parseSample(t *testing.T) (*Document, *pathdict.Dict) {
	t.Helper()
	dict := pathdict.New()
	doc, err := Parse([]byte(sample), dict)
	if err != nil {
		t.Fatal(err)
	}
	return doc, dict
}

func TestParseStructure(t *testing.T) {
	doc, dict := parseSample(t)
	if doc.Root.Tag != "country" {
		t.Fatalf("root tag = %q", doc.Root.Tag)
	}
	// Attribute becomes first child.
	if doc.Root.Children[0].Kind != Attribute || doc.Root.Children[0].Tag != "code" || doc.Root.Children[0].Text != "us" {
		t.Errorf("attribute child wrong: %+v", doc.Root.Children[0])
	}
	if got, ok := doc.Root.Attr("code"); !ok || got != "us" {
		t.Errorf("Attr(code) = %q, %v", got, ok)
	}
	if _, ok := doc.Root.Attr("missing"); ok {
		t.Error("missing attribute reported present")
	}
	elems := doc.Root.ChildElements()
	if len(elems) != 3 {
		t.Fatalf("ChildElements = %d, want 3", len(elems))
	}
	gdp := doc.Root.FirstChild("economy").FirstChild("GDP")
	if gdp == nil || gdp.Text != "10.082T" {
		t.Fatalf("GDP node: %+v", gdp)
	}
	if dict.Path(gdp.Path) != "/country/economy/GDP" {
		t.Errorf("GDP path = %q", dict.Path(gdp.Path))
	}
	// Dewey: country=1, code=1.1, name=1.2, year=1.3, economy=1.4, GDP=1.4.1
	if gdp.Dewey.String() != "1.4.1" {
		t.Errorf("GDP dewey = %s", gdp.Dewey)
	}
}

func TestContentConcatenation(t *testing.T) {
	doc, _ := parseSample(t)
	// content(country) concatenates all descendant text including the
	// attribute value, in document order.
	want := "us United States 2002 10.082T"
	if got := doc.Root.Content(); got != want {
		t.Errorf("Content = %q, want %q", got, want)
	}
	econ := doc.Root.FirstChild("economy")
	if got := econ.Content(); got != "10.082T" {
		t.Errorf("economy content = %q", got)
	}
}

func TestFindByDewey(t *testing.T) {
	doc, _ := parseSample(t)
	n := doc.FindByDewey(dewey.ID{1, 4, 1})
	if n == nil || n.Tag != "GDP" {
		t.Fatalf("FindByDewey(1.4.1) = %+v", n)
	}
	if doc.FindByDewey(dewey.ID{1, 9}) != nil {
		t.Error("out-of-range lookup should be nil")
	}
	if doc.FindByDewey(dewey.ID{2}) != nil {
		t.Error("wrong root ordinal should be nil")
	}
	if doc.FindByDewey(nil) != nil {
		t.Error("nil dewey should be nil")
	}
	// Every walked node must be findable by its own Dewey id.
	doc.Walk(func(n *Node) bool {
		if got := doc.FindByDewey(n.Dewey); got != n {
			t.Errorf("roundtrip failed for %s", n.Dewey)
		}
		return true
	})
}

func TestDistinctPaths(t *testing.T) {
	doc, dict := parseSample(t)
	paths := doc.DistinctPaths()
	got := make(map[string]bool)
	for _, p := range paths {
		got[dict.Path(p)] = true
	}
	want := []string{"/country", "/country/code", "/country/name", "/country/year", "/country/economy", "/country/economy/GDP"}
	if len(paths) != len(want) {
		t.Fatalf("DistinctPaths = %d, want %d: %v", len(paths), len(want), got)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing path %q", w)
		}
	}
}

func TestMalformedInputs(t *testing.T) {
	dict := pathdict.New()
	cases := []string{
		"",
		"no xml at all",
		"<a><b></a>",
		"<a></a><b></b>", // multiple roots
		"<a>",            // unclosed
		"</a>",
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c), dict); err == nil {
			t.Errorf("Parse(%q): want error", c)
		}
	}
}

func TestMixedTextAccumulation(t *testing.T) {
	dict := pathdict.New()
	doc, err := Parse([]byte("<a>hello <b>x</b> world</a>"), dict)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Text != "hello world" {
		t.Errorf("mixed text = %q", doc.Root.Text)
	}
	if got := doc.Root.Content(); got != "hello world x" {
		// Direct text first, then children, per appendContent ordering.
		t.Errorf("content = %q", got)
	}
}

func TestBuilder(t *testing.T) {
	dict := pathdict.New()
	root := Elem("country",
		Attr("code", "mx"),
		Text("name", "Mexico"),
		Elem("economy", Text("GDP", "924.4B")),
	)
	doc := Build("mexico", root, dict)
	if doc.Root.Children[0].Dewey.String() != "1.1" {
		t.Errorf("attr dewey = %s", doc.Root.Children[0].Dewey)
	}
	gdp := doc.Root.FirstChild("economy").FirstChild("GDP")
	if dict.Path(gdp.Path) != "/country/economy/GDP" {
		t.Errorf("built path = %q", dict.Path(gdp.Path))
	}
	if gdp.Parent.Tag != "economy" {
		t.Error("parent pointer not set by builder")
	}
}

func TestWriteXMLRoundtrip(t *testing.T) {
	dict := pathdict.New()
	orig, err := Parse([]byte(sample), dict)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := Parse(buf.Bytes(), pathdict.New())
	if err != nil {
		t.Fatalf("reparsing serialized doc: %v\n%s", err, buf.String())
	}
	if re.CountNodes() != orig.CountNodes() {
		t.Errorf("roundtrip node count %d != %d", re.CountNodes(), orig.CountNodes())
	}
	if re.Root.Content() != orig.Root.Content() {
		t.Errorf("roundtrip content %q != %q", re.Root.Content(), orig.Root.Content())
	}
}

func TestWriteXMLEscaping(t *testing.T) {
	dict := pathdict.New()
	doc := Build("esc", Elem("a", Text("b", `5 < 6 & "quoted"`)), dict)
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := Parse(buf.Bytes(), pathdict.New())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if got := re.Root.FirstChild("b").Text; got != `5 < 6 & "quoted"` {
		t.Errorf("escaped roundtrip = %q", got)
	}
}

// Property: random generated trees survive serialize→parse with identical
// structure (node count, content, and path sets).
func TestPropSerializeParseRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dict := pathdict.New()
		doc := Build("prop", randTree(r, 0), dict)
		var buf bytes.Buffer
		if err := doc.WriteXML(&buf); err != nil {
			return false
		}
		re, err := Parse(buf.Bytes(), pathdict.New())
		if err != nil {
			return false
		}
		return re.CountNodes() == doc.CountNodes() && re.Root.Content() == doc.Root.Content()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func randTree(r *rand.Rand, depth int) *Node {
	tags := []string{"alpha", "beta", "gamma", "delta"}
	n := Elem(tags[r.Intn(len(tags))])
	if r.Intn(3) == 0 {
		// Attributes precede element children, matching parser output; an
		// attribute placed after elements would serialize into the start tag
		// and legitimately reorder Content() on reparse.
		n.Add(Attr("id", "v"))
	}
	if r.Intn(2) == 0 {
		n.Text = strings.Repeat("w", 1+r.Intn(5)) + " txt"
	}
	if depth < 3 {
		kids := r.Intn(4)
		for i := 0; i < kids; i++ {
			n.Add(randTree(r, depth+1))
		}
	}
	return n
}

func TestWalkPrune(t *testing.T) {
	doc, _ := parseSample(t)
	count := 0
	doc.Walk(func(n *Node) bool {
		count++
		return n.Tag != "economy" // prune below economy
	})
	// all 6 nodes (country, code, name, year, economy, GDP) minus pruned GDP
	if count != 5 {
		t.Errorf("pruned walk visited %d nodes, want 5", count)
	}
}

func TestNodeRefOrdering(t *testing.T) {
	a := NodeRef{Doc: 1, Dewey: dewey.ID{1, 2}}
	b := NodeRef{Doc: 1, Dewey: dewey.ID{1, 3}}
	c := NodeRef{Doc: 2, Dewey: dewey.ID{1}}
	if !a.Less(b) || b.Less(a) {
		t.Error("same-doc ordering wrong")
	}
	if !b.Less(c) {
		t.Error("doc ordering wrong")
	}
	if !a.Equal(NodeRef{Doc: 1, Dewey: dewey.ID{1, 2}}) {
		t.Error("Equal failed")
	}
	if a.String() != "n1@1.2" {
		t.Errorf("String = %q", a.String())
	}
}

// TestOwnDeweys: the refs' ids move, unchanged, into one slab laid out in
// yield order, each capped at its length, sharing nothing with the ids
// they were copied from.
func TestOwnDeweys(t *testing.T) {
	src := dewey.ID{1, 2, 3, 1, 4}
	refs := []NodeRef{{Doc: 0, Dewey: src[:3]}, {Doc: 1}, {Doc: 2, Dewey: src[3:]}}
	OwnDeweys(func(yield func(*NodeRef) bool) {
		for i := range refs {
			if !yield(&refs[i]) {
				return
			}
		}
	})
	want := []dewey.ID{{1, 2, 3}, {}, {1, 4}}
	for i, r := range refs {
		if !dewey.Equal(r.Dewey, want[i]) || cap(r.Dewey) != len(r.Dewey) {
			t.Errorf("ref %d = %v (cap %d), want %v capped", i, r.Dewey, cap(r.Dewey), want[i])
		}
	}
	if &refs[0].Dewey[0] == &src[0] || &refs[2].Dewey[0] == &src[3] {
		t.Error("an id still aliases its source")
	}
	if unsafe.Pointer(&refs[2].Dewey[0]) != unsafe.Add(unsafe.Pointer(&refs[0].Dewey[0]), 3*unsafe.Sizeof(refs[0].Dewey[0])) {
		t.Error("ids are not laid out back to back in one slab")
	}
}

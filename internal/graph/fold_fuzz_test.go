package graph

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"seda/internal/pathdict"
	"seda/internal/snapcodec"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// foldSpecs are the value-link specs FuzzGraphFold joins: a cross-path
// join and a self-join (whose node-equals-itself pairs must be skipped).
var foldSpecs = []ValueLinkSpec{
	{FromPath: "/r/k", ToPath: "/r/v", Label: "kv"},
	{FromPath: "/s/v", ToPath: "/s/v", Label: "vv"},
}

// foldCorpus turns fuzz bytes into a few small documents carrying ids
// (duplicates included), IDREF and XLink references (some dangling, some
// external) and value-link endpoints.
func foldCorpus(data []byte) []string {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	ids := []string{"a", "b", "c", "d", "e", "zz"} // "zz" is never defined as an id below
	vals := []string{"1", "2", "3", " 2 ", ""}
	n := 1 + next()%7
	docs := make([]string, n)
	for i := range docs {
		var b strings.Builder
		root := "r"
		if next()%2 == 1 {
			root = "s"
		}
		b.WriteString("<" + root)
		if c := next(); c%3 != 0 {
			fmt.Fprintf(&b, ` id="%s"`, ids[c%5])
		}
		if c := next(); c%4 != 0 {
			attr := []string{"ref", "refs", "idref"}[c%3]
			fmt.Fprintf(&b, ` %s="%s %s"`, attr, ids[next()%len(ids)], ids[next()%len(ids)])
		}
		switch c := next(); c % 3 {
		case 1:
			fmt.Fprintf(&b, ` href="#%s"`, ids[next()%len(ids)])
		case 2:
			b.WriteString(` href="http://example.org/x"`)
		}
		b.WriteString(">")
		for k := next() % 3; k > 0; k-- {
			fmt.Fprintf(&b, "<k>%s</k>", vals[next()%len(vals)])
		}
		for k := next() % 3; k > 0; k-- {
			fmt.Fprintf(&b, "<v>%s</v>", vals[next()%len(vals)])
		}
		if c := next(); c%2 == 1 {
			fmt.Fprintf(&b, `<n id="%s" xlink_href="#%s"/>`, ids[c%5], ids[next()%len(ids)])
		}
		b.WriteString("</" + root + ">")
		docs[i] = b.String()
	}
	return docs
}

func edgeString(e Edge) string {
	return fmt.Sprintf("%v->%v %v %s", e.From, e.To, e.Kind, e.Label)
}

func edgeStrings(edges []Edge) []string {
	out := make([]string, len(edges))
	for i, e := range edges {
		out[i] = edgeString(e)
	}
	return out
}

// referenceEdges derives the link edges of docs by brute force: every
// reference looks its id up with a scan over all documents (the first
// owner in document order wins), and every value-link source is compared
// with every node of the collection. The order is the one-shot fold's:
// references in document order, then each spec's sources in document
// order against their targets in document order.
func referenceEdges(docs []*xmldoc.Document, dict *pathdict.Dict) []string {
	owner := func(v string) (xmldoc.NodeRef, bool) {
		for _, d := range docs {
			var ref xmldoc.NodeRef
			found := false
			d.Walk(func(n *xmldoc.Node) bool {
				if !found && n.Kind == xmldoc.Attribute && n.Tag == "id" && strings.TrimSpace(n.Text) == v && v != "" {
					ref, found = store.RefOf(d, n.Parent), true
				}
				return !found
			})
			if found {
				return ref, true
			}
		}
		return xmldoc.NodeRef{}, false
	}
	var out []string
	for _, d := range docs {
		d.Walk(func(n *xmldoc.Node) bool {
			if n.Kind != xmldoc.Attribute {
				return true
			}
			src := store.RefOf(d, n.Parent)
			switch n.Tag {
			case "ref", "refs", "idref", "idrefs":
				for _, v := range strings.Fields(n.Text) {
					if to, ok := owner(v); ok {
						out = append(out, edgeString(Edge{From: src, To: to, Kind: IDRef, Label: n.Parent.Tag}))
					}
				}
			case "href", "xlink_href":
				if v := strings.TrimSpace(n.Text); strings.HasPrefix(v, "#") {
					if to, ok := owner(v[1:]); ok {
						out = append(out, edgeString(Edge{From: src, To: to, Kind: XLink, Label: n.Parent.Tag}))
					}
				}
			}
			return true
		})
	}
	for _, spec := range foldSpecs {
		for _, sd := range docs {
			sd.Walk(func(s *xmldoc.Node) bool {
				sv := strings.TrimSpace(s.Content())
				from := store.RefOf(sd, s)
				if sv == "" || dict.Path(s.Path) != spec.FromPath {
					return true
				}
				for _, td := range docs {
					td.Walk(func(t *xmldoc.Node) bool {
						to := store.RefOf(td, t)
						if dict.Path(t.Path) == spec.ToPath && strings.TrimSpace(t.Content()) == sv && !from.Equal(to) {
							out = append(out, edgeString(Edge{From: from, To: to, Kind: Value, Label: spec.Label}))
						}
						return true
					})
				}
				return true
			})
		}
	}
	return out
}

// FuzzGraphFold checks link derivation against a brute-force oracle: the
// one-shot fold over a collection yields exactly the reference edge list
// (same order, which the snapshot bytes depend on), and folding the same
// documents in fuzz-chosen batches — optionally through an Encode/Decode
// round trip between batches, which drops the retained fold state —
// yields the same edge multiset.
func FuzzGraphFold(f *testing.F) {
	f.Add([]byte{6, 0, 1, 1, 0, 1, 1, 2, 0, 1, 1, 1, 1, 1, 2, 2, 1, 3, 0, 2, 4}, []byte{2, 1})
	f.Add([]byte{3, 1, 2, 5, 1, 2, 1, 2, 2, 2, 2, 3, 3, 1, 0, 4, 2, 5, 1, 2, 1, 1}, []byte{1, 0x81, 1})
	f.Add([]byte("links and values"), []byte{0x83})
	f.Fuzz(func(t *testing.T, data, batching []byte) {
		xmls := foldCorpus(data)

		whole := store.NewCollection()
		for i, x := range xmls {
			if _, err := whole.AddXML(fmt.Sprintf("d%d", i), []byte(x)); err != nil {
				t.Fatal(err)
			}
		}
		want := referenceEdges(whole.Docs(), whole.Dict())
		oneShot := folded(whole, DiscoverOptions{}, foldSpecs...)
		if got := edgeStrings(oneShot.Edges()); !slices.Equal(got, want) {
			t.Fatalf("one-shot fold edges\n got %q\nwant %q", got, want)
		}
		checkEdgesOfDoc(t, oneShot, whole)

		// Batches: each batching byte takes 1+b%4 documents; its high bit
		// round-trips the graph through the codec before the next batch.
		col := store.NewCollection()
		g := New(col, DiscoverOptions{}, foldSpecs)
		for start, bi := 0, 0; start < len(xmls); bi++ {
			var b byte
			if bi < len(batching) {
				b = batching[bi]
			}
			end := min(len(xmls), start+1+int(b%4))
			var docs []*xmldoc.Document
			for i := start; i < end; i++ {
				d, err := xmldoc.Parse([]byte(xmls[i]), col.Dict())
				if err != nil {
					t.Fatal(err)
				}
				d.Name = fmt.Sprintf("d%d", i)
				docs = append(docs, d)
			}
			col = col.Extend(docs)
			g = g.Extend(col, docs)
			if b&0x80 != 0 {
				var w snapcodec.Writer
				g.Encode(&w)
				var err error
				if g, err = Decode(snapcodec.NewReader(w.Bytes()), col, DiscoverOptions{}, foldSpecs); err != nil {
					t.Fatal(err)
				}
			}
			start = end
		}
		got := edgeStrings(g.Edges())
		slices.Sort(got)
		sorted := slices.Sorted(slices.Values(want))
		if !slices.Equal(got, sorted) {
			t.Fatalf("batched fold edge multiset\n got %q\nwant %q", got, sorted)
		}
		checkEdgesOfDoc(t, g, col)
	})
}

// edgesOfDocOracle is EdgesOfDoc's former body: collect the indexes of
// both of doc's edge lists through a set, sort them, and copy the edges
// out.
func edgesOfDocOracle(g *Graph, doc xmldoc.DocID) []Edge {
	seen := make(map[int]struct{})
	var idxs []int
	for _, i := range g.outByDoc[doc] {
		if _, ok := seen[i]; !ok {
			seen[i] = struct{}{}
			idxs = append(idxs, i)
		}
	}
	for _, i := range g.inByDoc[doc] {
		if _, ok := seen[i]; !ok {
			seen[i] = struct{}{}
			idxs = append(idxs, i)
		}
	}
	slices.Sort(idxs)
	var out []Edge
	for _, i := range idxs {
		out = append(out, g.edges[i])
	}
	return out
}

// checkEdgesOfDoc compares EdgesOfDoc with the oracle on every document
// of col, appending after a non-empty prefix so the append contract is
// checked too.
func checkEdgesOfDoc(t *testing.T, g *Graph, col *store.Collection) {
	t.Helper()
	prefix := []Edge{{Label: "prefix"}}
	for _, d := range col.Docs() {
		want := edgesOfDocOracle(g, d.ID)
		got := g.EdgesOfDoc(slices.Clone(prefix), d.ID)
		if !slices.Equal(edgeStrings(got[:1]), edgeStrings(prefix)) {
			t.Fatalf("EdgesOfDoc(%d) overwrote dst's prefix", d.ID)
		}
		if !slices.Equal(edgeStrings(got[1:]), edgeStrings(want)) {
			t.Fatalf("EdgesOfDoc(%d)\n got %q\nwant %q", d.ID, edgeStrings(got[1:]), edgeStrings(want))
		}
	}
}

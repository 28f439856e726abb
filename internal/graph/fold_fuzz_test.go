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

// foldGen is one generation of a FuzzGraphFold script: its collection,
// its graph, and the sorted reference edges over its live documents.
type foldGen struct {
	col  *store.Collection
	g    *Graph
	want []string
}

// FuzzGraphFold checks link derivation against a brute-force oracle. The
// one-shot fold over a collection yields exactly the reference edge list
// (same order, which the snapshot bytes depend on). A script then derives
// generations from a base over the first documents: each script byte
// adds documents, deletes or updates a live one, forks two children (an
// add and a delete) off one parent, or, for operation 3 with an operand
// of 16 or more, compacts, renumbering the survivors after the first
// dead document; its high bit round-trips the result through the codec,
// which drops the retained fold state. Every
// generation, checked when it is made and again when the script ends,
// holds exactly the reference edge multiset over its live documents —
// deriving a generation must not disturb its parent or a sibling.
func FuzzGraphFold(f *testing.F) {
	f.Add([]byte{6, 0, 1, 1, 0, 1, 1, 2, 0, 1, 1, 1, 1, 1, 2, 2, 1, 3, 0, 2, 4}, []byte{2, 1})
	f.Add([]byte{3, 1, 2, 5, 1, 2, 1, 2, 2, 2, 2, 3, 3, 1, 0, 4, 2, 5, 1, 2, 1, 1}, []byte{1, 0x81, 1})
	f.Add([]byte("links and values"), []byte{0x83})
	// <r id="a"/> then <r refs="a a"/>: the base owner of "a" dies after a
	// segment defined "a" again, so the duplicate becomes the owner.
	f.Add([]byte{1, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, []byte{0, 4, 1, 0x80})
	// The same two documents the other way round: a segment document
	// resolves the base's dangling reference and is deleted, then
	// another one defines the id again.
	f.Add([]byte{1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0}, []byte{0, 0, 5, 4})
	// <s><v>1</v><v>1</v></s>: a value self-join within and across
	// documents, through an add, a fork, an update and a delete.
	f.Add([]byte{0, 1, 0, 0, 0, 0, 2, 0, 0, 0}, []byte{0, 0, 3, 2, 1})
	// A base-document delete after two segments exist.
	f.Add([]byte{1, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, []byte{1, 4, 0, 1})
	// Compactions that renumber only segment documents: the base owner of
	// "a" survives, a segment copy defining "a" again and a reference to
	// it die, a later reference is renumbered onto the kept base, and
	// after more adds another compaction renumbers it again.
	f.Add([]byte{1, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, []byte{0, 4, 0x45, 0, 0x41, 0x43, 4, 0x47})
	// A compaction after the base's own document died restarts from
	// empty, and one after a codec round trip too.
	f.Add([]byte("compacted links and values"), []byte{1, 0, 1, 0x43, 0x80, 0x01, 0x47})
	f.Fuzz(func(t *testing.T, data, script []byte) {
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

		// The base folds the first 1+script[0]%n documents; later documents
		// cycle through the corpus, so ids are defined again and again.
		next := len(xmls)
		if len(script) > 0 {
			next = 1 + int(script[0])%len(xmls)
			script = script[1:]
		}
		col := store.NewCollection()
		for i, x := range xmls[:next] {
			if _, err := col.AddXML(fmt.Sprintf("d%d", i), []byte(x)); err != nil {
				t.Fatal(err)
			}
		}
		var gens []foldGen
		check := func(col *store.Collection, g *Graph) foldGen {
			t.Helper()
			gen := foldGen{col: col, g: g, want: slices.Sorted(slices.Values(referenceEdges(col.LiveDocs(), col.Dict())))}
			checkGen(t, gen)
			gens = append(gens, gen)
			return gen
		}
		cur := check(col, folded(col, DiscoverOptions{}, foldSpecs...))

		add := func(p foldGen, n int) foldGen {
			var docs []*xmldoc.Document
			for range n {
				d, err := xmldoc.Parse([]byte(xmls[next%len(xmls)]), p.col.Dict())
				if err != nil {
					t.Fatal(err)
				}
				d.Name = fmt.Sprintf("d%d", next)
				next++
				docs = append(docs, d)
			}
			col := p.col.Extend(docs)
			return check(col, p.g.Extend(col, xmldoc.DocID(p.col.NumDocs()), docs))
		}
		// kill masks p's i-th live document, if it has any, and appends n
		// documents in the same step.
		kill := func(p foldGen, i, n int) foldGen {
			live := p.col.LiveDocs()
			if len(live) == 0 {
				return add(p, max(n, 1))
			}
			col, err := p.col.WithTombstones([]xmldoc.DocID{live[i%len(live)].ID})
			if err != nil {
				t.Fatal(err)
			}
			return add(foldGen{col: col, g: p.g}, n)
		}
		// compact drops p's masked documents, first masking its i-th live
		// one if none is, and renumbers the survivors after the first.
		compact := func(p foldGen, i int) foldGen {
			if p.col.Tombstones().Len() == 0 {
				p = kill(p, i, 0)
			}
			if p.col.Tombstones().Len() == 0 {
				return p
			}
			col, restart := p.col.Compacted()
			return check(col, p.g.Extend(col, restart, nil))
		}
		for _, b := range script[:min(len(script), 24)] { // the oracle is cubic
			arg := int(b>>2) & 0x1f
			switch b & 3 {
			case 0:
				cur = add(cur, 1+arg%3)
			case 1:
				cur = kill(cur, arg, 0)
			case 2:
				cur = kill(cur, arg, 1)
			case 3:
				if arg >= 16 {
					cur = compact(cur, arg)
					break
				}
				a, d := add(cur, 1), kill(cur, arg, 0)
				if cur = a; arg&1 == 1 {
					cur = d
				}
			}
			if b&0x80 != 0 {
				var w snapcodec.Writer
				cur.g.Encode(&w)
				g, err := Decode(snapcodec.NewReader(w.Bytes()), cur.col, DiscoverOptions{}, foldSpecs)
				if err != nil {
					t.Fatal(err)
				}
				cur = check(cur.col, g)
			}
		}
		for _, gen := range gens {
			checkGen(t, gen)
		}
	})
}

// checkGen compares gen's graph with its reference edge multiset and its
// per-document edge lists with the oracle, and checks that its layers
// cover its collection, so a later delete or compaction can keep them.
func checkGen(t *testing.T, gen foldGen) {
	t.Helper()
	if n := len(gen.g.layers); n > 0 && int(gen.g.layers[n-1].hi) != gen.col.NumDocs() {
		t.Fatalf("layers end at document %d of %d", gen.g.layers[n-1].hi, gen.col.NumDocs())
	}
	got := edgeStrings(gen.g.Edges())
	slices.Sort(got)
	if !slices.Equal(got, gen.want) {
		t.Fatalf("edge multiset over %d live documents\n got %q\nwant %q", gen.col.NumLive(), got, gen.want)
	}
	checkEdgesOfDoc(t, gen.g, gen.col)
}

// edgesOfDocOracle filters the edges touching doc out of Edges, keeping
// their order.
func edgesOfDocOracle(g *Graph, doc xmldoc.DocID) []Edge {
	var out []Edge
	for _, e := range g.Edges() {
		if e.From.Doc == doc || e.To.Doc == doc {
			out = append(out, e)
		}
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

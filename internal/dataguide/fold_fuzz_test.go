package dataguide

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"seda/internal/graph"
	"seda/internal/snapcodec"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// guideCorpus turns fuzz bytes into a few small documents over a handful
// of tags, with repeated and nested children (so subset absorptions,
// merges and new guides all occur) and id and IDREF attributes (so
// cross-guide links do).
func guideCorpus(data []byte) []string {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	tags := []string{"a", "b", "c", "d"}
	docs := make([]string, 1+next()%8)
	for i := range docs {
		var b strings.Builder
		root := []string{"r", "s"}[next()%2]
		b.WriteString("<" + root)
		if c := next(); c%3 == 1 {
			fmt.Fprintf(&b, ` id="i%d"`, c%4)
		}
		if c := next(); c%3 == 1 {
			fmt.Fprintf(&b, ` ref="i%d"`, c%5)
		}
		b.WriteString(">")
		for k := next() % 4; k > 0; k-- {
			tag := tags[next()%len(tags)]
			b.WriteString("<" + tag + ">")
			for m := next() % 3; m > 0; m-- {
				fmt.Fprintf(&b, "<%s/>", tags[next()%2])
			}
			b.WriteString("</" + tag + ">")
		}
		b.WriteString("</" + root + ">")
		docs[i] = b.String()
	}
	return docs
}

// guideGen is one generation of a FuzzDataguideFold script.
type guideGen struct {
	col *store.Collection
	g   *graph.Graph
	s   *Set
}

// checkGuideGen compares gen's summary with referenceFold over its live
// documents guide for guide, and its links with those of a from-scratch
// build over the same collection, and checks that its parts cover the
// collection, so a later delete or compaction can keep them.
func checkGuideGen(t *testing.T, gen guideGen) {
	t.Helper()
	if p := gen.s.parts[len(gen.s.parts)-1]; int(p.hi()) != gen.col.NumDocs() {
		t.Fatalf("parts end at document %d of %d", p.hi(), gen.col.NumDocs())
	}
	live := gen.col.LiveDocs()
	assertMatchesReference(t, gen.s, live)
	scratch, err := Build(gen.col, graph.New(gen.col, graph.DiscoverOptions{}, nil).Extend(gen.col, 0, live), gen.s.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gen.s.Links(), scratch.Links()) {
		t.Fatalf("links over %d live documents\n got %v\nwant %v", len(live), gen.s.Links(), scratch.Links())
	}
	if err := gen.s.CoverageInvariant(); err != nil {
		t.Fatal(err)
	}
}

// FuzzDataguideFold checks the segmented §6.1 fold against referenceFold.
// A script derives generations from a base over the first documents at a
// fuzz-chosen threshold: each script byte adds documents, deletes or
// updates a live one, forks two children (an add and a delete) off one
// parent, or, for operation 3 with an operand of 16 or more, compacts,
// renumbering the survivors after the first dead document; its high bit
// round-trips the summary through the codec, which leaves one base.
// Every generation, checked when it is made
// and again when the script ends, matches the reference guide for guide
// and the from-scratch build's links — deriving a generation must not
// disturb its parent or a sibling.
func FuzzDataguideFold(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2, 1, 0, 1, 0, 1, 2, 2, 1, 2, 0, 0, 3, 1, 1, 1}, []byte{0x05, 0, 1, 2, 3, 0x80, 1})
	f.Add([]byte("segments of guides"), []byte{0x0a, 0, 0, 0, 5, 9, 2, 7})
	// <r ref="i1"><a/></r>, <r id="i1"/>, <s/>: the segment document a
	// link targets dies, a later one is the target again, and after a
	// codec round trip the base's document dies.
	f.Add([]byte{2, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0}, []byte{0x01, 4, 5, 0, 0x80, 1, 0})
	// The same documents: the link's target and source, both segment
	// documents, die, a compaction keeps the base and renumbers the
	// survivor after them, and a later add and delete fold on top; then
	// the base's document dies and a compaction restarts from empty.
	f.Add([]byte{2, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0}, []byte{0x01, 4, 0, 0x45, 0x45, 0x4b, 0, 0x41, 0x01, 0x43})
	// A segment's only document dies: the re-fold has no live document
	// left but must still cover the dead one.
	f.Add([]byte{2, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0}, []byte{0x01, 0, 5, 0})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		xmls := guideCorpus(data)
		threshold := 0.4
		next := len(xmls)
		if len(script) > 0 {
			threshold = []float64{0, 0.4, 0.7, 1}[script[0]%4]
			next = 1 + int(script[0]>>2)%len(xmls)
			script = script[1:]
		}
		col := store.NewCollection()
		for i, x := range xmls[:next] {
			if _, err := col.AddXML(fmt.Sprintf("d%d", i), []byte(x)); err != nil {
				t.Fatal(err)
			}
		}
		var gens []guideGen
		// derive extends p to col, which renumbers p's documents from
		// restart on, if restart is below p's document count, and appends
		// docs.
		derive := func(p guideGen, col *store.Collection, restart xmldoc.DocID, docs []*xmldoc.Document) guideGen {
			t.Helper()
			gen := guideGen{col: col, g: p.g.Extend(col, restart, docs)}
			var err error
			if gen.s, err = p.s.Extend(col, gen.g, restart, docs); err != nil {
				t.Fatal(err)
			}
			checkGuideGen(t, gen)
			gens = append(gens, gen)
			return gen
		}
		cur := derive(guideGen{col: col, g: graph.New(col, graph.DiscoverOptions{}, nil), s: &Set{Threshold: threshold}}, col, 0, col.LiveDocs())

		add := func(p guideGen, n int) guideGen {
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
			return derive(p, p.col.Extend(docs), xmldoc.DocID(p.col.NumDocs()), docs)
		}
		// kill masks p's i-th live document, if it has any, and appends n
		// documents in the same step.
		kill := func(p guideGen, i, n int) guideGen {
			live := p.col.LiveDocs()
			if len(live) == 0 {
				return add(p, max(n, 1))
			}
			col, err := p.col.WithTombstones([]xmldoc.DocID{live[i%len(live)].ID})
			if err != nil {
				t.Fatal(err)
			}
			p.col = col
			return add(p, n)
		}
		// compact drops p's masked documents, first masking its i-th live
		// one if none is, and renumbers the survivors after the first.
		compact := func(p guideGen, i int) guideGen {
			if p.col.Tombstones().Len() == 0 {
				p = kill(p, i, 0)
			}
			if p.col.Tombstones().Len() == 0 {
				return p
			}
			col, restart := p.col.Compacted()
			return derive(p, col, restart, nil)
		}
		for _, b := range script[:min(len(script), 32)] {
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
				cur.s.Encode(&w)
				s, err := Decode(snapcodec.NewReader(w.Bytes()), cur.col)
				if err != nil {
					t.Fatal(err)
				}
				cur.s = s
				checkGuideGen(t, cur)
				gens = append(gens, cur)
			}
		}
		for _, gen := range gens {
			checkGuideGen(t, gen)
		}
	})
}

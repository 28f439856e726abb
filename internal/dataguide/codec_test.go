package dataguide

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"seda/internal/graph"
	"seda/internal/snapcodec"
	"seda/internal/store"
)

func codecFixture(t *testing.T) (*store.Collection, *Set) {
	t.Helper()
	c := store.NewCollection()
	docs := []string{
		`<country><name>US</name><economy><GDP>10T</GDP><import_partners><item><trade_country>CN</trade_country></item><item><trade_country>MX</trade_country></item></import_partners></economy></country>`,
		`<country><name>MX</name><economy><GDP_ppp>1T</GDP_ppp></economy></country>`,
		`<sea id="pacific"><name>Pacific</name></sea>`,
		`<country bordering="pacific"><name>PH</name></country>`,
	}
	for i, d := range docs {
		if _, err := c.AddXML(fmt.Sprintf("doc%d", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	g := graph.New(c, graph.DiscoverOptions{IDRefAttrs: []string{"bordering"}}, nil).Extend(c, 0, c.LiveDocs())
	s, err := Build(c, g, 0.40)
	if err != nil {
		t.Fatal(err)
	}
	return c, s
}

func TestCodecRoundTrip(t *testing.T) {
	col, s := codecFixture(t)

	var w snapcodec.Writer
	s.Encode(&w)
	got, err := Decode(snapcodec.NewReader(w.Bytes()), col)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	if got.Threshold != s.Threshold || len(got.Guides) != len(s.Guides) {
		t.Fatalf("shape: threshold %v/%v guides %d/%d", got.Threshold, s.Threshold, len(got.Guides), len(s.Guides))
	}
	for i := range s.Guides {
		if !reflect.DeepEqual(got.Guides[i].Paths(), s.Guides[i].Paths()) {
			t.Errorf("guide %d path set mismatch", i)
		}
		if !reflect.DeepEqual(got.GuideDocs()[i], s.GuideDocs()[i]) || got.Guides[i].NumDocs() != s.Guides[i].NumDocs() {
			t.Errorf("guide %d doc list mismatch", i)
		}
		for _, p := range s.Guides[i].Paths() {
			if got.Guides[i].Repeatable(p) != s.Guides[i].Repeatable(p) {
				t.Errorf("guide %d repeatable(%d) mismatch", i, p)
			}
		}
	}
	for _, doc := range col.Docs() {
		if got.GuideOf(doc.ID).ID != s.GuideOf(doc.ID).ID {
			t.Errorf("doc %d assigned to different guide", doc.ID)
		}
	}
	if !reflect.DeepEqual(got.Links(), s.Links()) {
		t.Errorf("links mismatch:\n got %v\nwant %v", got.Links(), s.Links())
	}
	if err := got.CoverageInvariant(); err != nil {
		t.Errorf("coverage invariant after decode: %v", err)
	}

	var w2 snapcodec.Writer
	got.Encode(&w2)
	if !bytes.Equal(w.Bytes(), w2.Bytes()) {
		t.Error("re-encoded bytes differ")
	}
}

// TestCodecManyMinimalLinks pins the link-block allocation guard against
// the true minimum encoding: many empty-label links (7 bytes each, and
// the final block of the payload) must decode, not trip the guard.
func TestCodecManyMinimalLinks(t *testing.T) {
	col, s := codecFixture(t)
	p := s.Guides[0].Paths()[0]
	var links []Link
	for i := 0; i < 50; i++ {
		links = append(links, Link{FromPath: p, ToPath: p, Label: "", Count: 1})
	}
	s.links.Store(&links)
	var w snapcodec.Writer
	s.Encode(&w)
	got, err := Decode(snapcodec.NewReader(w.Bytes()), col)
	if err != nil {
		t.Fatalf("Decode rejected minimal links: %v", err)
	}
	if len(got.Links()) != len(s.Links()) {
		t.Errorf("links = %d, want %d", len(got.Links()), len(s.Links()))
	}
}

func TestCodecHostileInputs(t *testing.T) {
	col, s := codecFixture(t)
	var w snapcodec.Writer
	s.Encode(&w)
	data := w.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(snapcodec.NewReader(data[:cut]), col); err == nil {
			t.Errorf("cut=%d: expected error", cut)
		}
	}

	// A guide claiming a document the collection does not have.
	var wb snapcodec.Writer
	wb.Int(codecVersion)
	wb.F64(0.4)
	wb.Int(1) // one guide
	wb.Int(1) // one doc
	wb.Int(99)
	if _, err := Decode(snapcodec.NewReader(wb.Bytes()), col); err == nil {
		t.Error("out-of-range document should fail")
	}

	// Path ids the dictionary never issued, as a guide path or a repeatable
	// mark, must fail: a bitset is sized by its largest member (1<<30 would
	// be a 128 MiB set). The dictionary's last path is in range.
	numPaths := col.Dict().NumPaths()
	for _, c := range []struct {
		name       string
		paths, rep []int
		ok         bool
	}{
		{"huge path", []int{1, 1 << 30}, nil, false},
		{"invalid path 0", []int{0}, nil, false},
		{"one past the dictionary", []int{numPaths + 1}, nil, false},
		{"huge repeatable", []int{1}, []int{1 << 30}, false},
		{"last path", []int{numPaths}, []int{numPaths}, true},
	} {
		var wp snapcodec.Writer
		wp.Int(codecVersion)
		wp.F64(0.4)
		wp.Int(1) // one guide
		wp.Int(1) // one doc
		wp.Int(0)
		for _, ids := range [][]int{c.paths, c.rep} {
			wp.Int(len(ids))
			for _, p := range ids {
				wp.Int(p)
			}
		}
		wp.Int(0) // no links
		if _, err := Decode(snapcodec.NewReader(wp.Bytes()), col); (err == nil) != c.ok {
			t.Errorf("%s: decode err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

package graph

import (
	"bytes"
	"reflect"
	"testing"

	"seda/internal/dewey"
	"seda/internal/snapcodec"
)

func TestCodecRoundTrip(t *testing.T) {
	col, _ := fixture(t)
	opts := DiscoverOptions{IDRefAttrs: []string{"bordering"}}
	g := folded(col, opts)
	if g.NumEdges() == 0 {
		t.Fatal("fixture discovered no edges")
	}

	var w snapcodec.Writer
	g.Encode(&w)
	got, err := Decode(snapcodec.NewReader(w.Bytes()), col, opts, nil)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got.Edges(), g.Edges()) {
		t.Errorf("edges mismatch:\n got %v\nwant %v", got.Edges(), g.Edges())
	}
	// The per-document edge indexes are rebuilt, not copied — check them.
	for _, d := range col.Docs() {
		if !reflect.DeepEqual(got.EdgesOfDoc(nil, d.ID), g.EdgesOfDoc(nil, d.ID)) {
			t.Errorf("EdgesOfDoc(%d) mismatch", d.ID)
		}
		if !reflect.DeepEqual(got.LinkedDocs(nil, d.ID), g.LinkedDocs(nil, d.ID)) {
			t.Errorf("LinkedDocs(%d) mismatch", d.ID)
		}
	}

	var w2 snapcodec.Writer
	got.Encode(&w2)
	if !bytes.Equal(w.Bytes(), w2.Bytes()) {
		t.Error("re-encoded bytes differ")
	}
}

func TestCodecHostileInputs(t *testing.T) {
	col, _ := fixture(t)
	g := folded(col, DiscoverOptions{})
	var w snapcodec.Writer
	g.Encode(&w)
	data := w.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(snapcodec.NewReader(data[:cut]), col, DiscoverOptions{}, nil); err == nil {
			t.Errorf("cut=%d: expected error", cut)
		}
	}

	// An edge whose endpoint does not resolve must be rejected.
	var wb snapcodec.Writer
	wb.Int(codecVersion)
	wb.Int(1)
	wb.Int(7) // document 7 does not exist
	wb.Dewey(dewey.Root())
	wb.Int(0)
	wb.Dewey(dewey.Root())
	wb.Byte(0)
	wb.String("label")
	if _, err := Decode(snapcodec.NewReader(wb.Bytes()), col, DiscoverOptions{}, nil); err == nil {
		t.Error("dangling endpoint should fail")
	}
}

package store

import (
	"bytes"
	"testing"

	"seda/internal/pathdict"
	"seda/internal/snapcodec"
)

// encodeBoth encodes the dictionary and collection the way an engine
// snapshot does: dictionary first, collection referring into it.
func encodeBoth(c *Collection) (dict, col []byte) {
	var wd, wc snapcodec.Writer
	c.Dict().Encode(&wd)
	c.Encode(&wc)
	return wd.Bytes(), wc.Bytes()
}

// roundTrip encodes c with encodeBoth and decodes it into a fresh
// dictionary and collection, as a snapshot load does.
func roundTrip(c *Collection) (*Collection, error) {
	dictBytes, colBytes := encodeBoth(c)
	dict, err := pathdict.Decode(snapcodec.NewReader(dictBytes))
	if err != nil {
		return nil, err
	}
	return Decode(snapcodec.NewReader(colBytes), dict)
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	c := NewCollection()
	addDocs(t, c,
		`<country code="US"><name>United States</name><economy><GDP>10T</GDP><GDP>11T</GDP></economy></country>`,
		`<country><name>México</name></country>`,
		`<sea><name>Pacific &amp; North</name></sea>`,
	)
	dictBytes, colBytes := encodeBoth(c)

	dict, err := pathdict.Decode(snapcodec.NewReader(dictBytes))
	if err != nil {
		t.Fatalf("pathdict.Decode: %v", err)
	}
	got, err := Decode(snapcodec.NewReader(colBytes), dict)
	if err != nil {
		t.Fatalf("store.Decode: %v", err)
	}

	if got.Stats() != c.Stats() {
		t.Errorf("stats = %+v, want %+v", got.Stats(), c.Stats())
	}
	// Persisted statistics must match what a rescan would produce.
	for _, p := range c.Dict().AllPaths() {
		q := dict.LookupPath(c.Dict().Path(p))
		if got.PathDocFreq(q) != c.PathDocFreq(p) || got.PathOccurrences(q) != c.PathOccurrences(p) {
			t.Errorf("stats mismatch for %s", c.Dict().Path(p))
		}
	}
	// Node identity: same names, same content at the same refs.
	for _, d := range c.Docs() {
		gd := got.Doc(d.ID)
		if gd == nil || gd.Name != d.Name {
			t.Fatalf("doc %d missing or renamed", d.ID)
		}
		if gd.Root.Content() != d.Root.Content() {
			t.Errorf("doc %d content mismatch", d.ID)
		}
	}

	// Deterministic: encoding the decoded collection is byte-identical.
	dict2, col2 := encodeBoth(got)
	if !bytes.Equal(dictBytes, dict2) || !bytes.Equal(colBytes, col2) {
		t.Error("re-encoded bytes differ")
	}
}

func TestBinaryCodecHostileInputs(t *testing.T) {
	c := NewCollection()
	addDocs(t, c, `<a><b>x</b><b>y</b></a>`)
	dictBytes, colBytes := encodeBoth(c)
	dict, err := pathdict.Decode(snapcodec.NewReader(dictBytes))
	if err != nil {
		t.Fatal(err)
	}

	// Every truncation must error, never panic.
	for cut := 0; cut < len(colBytes); cut++ {
		if _, err := Decode(snapcodec.NewReader(colBytes[:cut]), dict); err == nil {
			t.Errorf("cut=%d: expected error", cut)
		}
	}

	// A node count far beyond the input must be rejected up front.
	var w snapcodec.Writer
	w.Int(codecVersion)
	w.Int(1) // one document
	w.String("bomb")
	w.Int(1 << 30)
	if _, err := Decode(snapcodec.NewReader(w.Bytes()), dict); err == nil {
		t.Error("hostile node count should fail")
	}

	// A deep single-child chain must be rejected, not blow the stack.
	depth := maxDecodeDepth + 10
	var wd snapcodec.Writer
	wd.Int(codecVersion)
	wd.Int(1) // one document
	wd.String("chain")
	wd.Int(depth + 1)
	tagA := int(dict.LookupTag("a"))
	for i := 0; i <= depth; i++ {
		wd.Int(tagA)
		wd.Byte(0) // element
		wd.String("")
		if i < depth {
			wd.Int(1) // one child: the next node
		} else {
			wd.Int(0)
		}
	}
	if _, err := Decode(snapcodec.NewReader(wd.Bytes()), dict); err == nil {
		t.Error("over-deep chain should fail")
	}
}

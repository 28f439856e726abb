package store

import (
	"slices"
	"testing"

	"seda/internal/snapcodec"
	"seda/internal/xmldoc"
)

func TestTombstonesSet(t *testing.T) {
	var nilSet *Tombstones
	if nilSet.Len() != 0 || nilSet.Has(0) || nilSet.IDs() != nil || nilSet.AnyInRange(0, 100) {
		t.Error("nil set must behave as empty")
	}
	if NewTombstones(nil) != nil {
		t.Error("empty construction must yield the canonical nil set")
	}

	s := NewTombstones([]xmldoc.DocID{5, 1, 5, 130}) // duplicates collapse
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, id := range []xmldoc.DocID{1, 5, 130} {
		if !s.Has(id) {
			t.Errorf("Has(%d) = false", id)
		}
	}
	for _, id := range []xmldoc.DocID{0, 2, 129, 131, 100000, -1} {
		if s.Has(id) {
			t.Errorf("Has(%d) = true", id)
		}
	}
	if ids := s.IDs(); len(ids) != 3 || ids[0] != 1 || ids[1] != 5 || ids[2] != 130 {
		t.Errorf("IDs = %v, want [1 5 130]", ids)
	}
	if !s.AnyInRange(0, 2) || s.AnyInRange(2, 5) || !s.AnyInRange(100, 200) {
		t.Error("AnyInRange boundaries wrong")
	}
	// Every range across the word boundaries agrees with a scan of Has.
	for lo := -1; lo < 200; lo++ {
		for hi := lo - 1; hi < 200; hi++ {
			want := false
			for id := lo; id < hi; id++ {
				want = want || s.Has(xmldoc.DocID(id))
			}
			if got := s.AnyInRange(lo, hi); got != want {
				t.Fatalf("AnyInRange(%d, %d) = %v, want %v", lo, hi, got, want)
			}
		}
	}

	// With is copy-on-write: the original set must not change.
	s2 := s.With([]xmldoc.DocID{2})
	if s.Len() != 3 || s.Has(2) {
		t.Error("With mutated the receiver")
	}
	if s2.Len() != 4 || !s2.Has(2) || !s2.Has(130) {
		t.Errorf("union wrong: %v", s2.IDs())
	}
	// Adding nothing new returns the receiver itself.
	if s.With([]xmldoc.DocID{5, 1}) != s {
		t.Error("no-op union should return the receiver")
	}

	// FirstAdded finds the oldest id a later set adds, in a word the
	// earlier set lacks too.
	for _, c := range []struct {
		t, prev *Tombstones
		want    xmldoc.DocID
		ok      bool
	}{
		{s, s, 0, false},
		{nilSet, nilSet, 0, false},
		{s, nilSet, 1, true},
		{s2, s, 2, true},
		{s.With([]xmldoc.DocID{64, 200}), s, 64, true},
		{NewTombstones([]xmldoc.DocID{3}).With([]xmldoc.DocID{300}), NewTombstones([]xmldoc.DocID{3}), 300, true},
	} {
		if got, ok := c.t.FirstAdded(c.prev); got != c.want || ok != c.ok {
			t.Errorf("FirstAdded(%v over %v) = %d, %v; want %d, %v", c.t.IDs(), c.prev.IDs(), got, ok, c.want, c.ok)
		}
	}
}

func TestTombstonesCodecRoundTrip(t *testing.T) {
	for _, ids := range [][]xmldoc.DocID{
		{0},
		{3},
		{0, 1, 2},
		{1, 5, 130, 131, 4095},
	} {
		s := NewTombstones(ids)
		var w snapcodec.Writer
		s.Encode(&w)
		got, err := DecodeTombstones(snapcodec.NewReader(w.Bytes()), 4096)
		if err != nil {
			t.Fatalf("ids %v: %v", ids, err)
		}
		if got.Len() != s.Len() {
			t.Fatalf("ids %v: round trip lost ids: %v", ids, got.IDs())
		}
		for _, id := range ids {
			if !got.Has(id) {
				t.Errorf("ids %v: lost %d", ids, id)
			}
		}
	}
	// The empty set encodes and decodes to nil.
	var w snapcodec.Writer
	(*Tombstones)(nil).Encode(&w)
	if got, err := DecodeTombstones(snapcodec.NewReader(w.Bytes()), 10); err != nil || got != nil {
		t.Errorf("empty round trip: set=%v err=%v", got, err)
	}
}

// TestTombstonesCodecHostileInputs sweeps the decoder with truncations,
// byte flips, and allocation bombs: every hostile payload must error (or
// decode to a valid set, for flips that happen to form one) without
// panicking or allocating off the hostile count.
func TestTombstonesCodecHostileInputs(t *testing.T) {
	s := NewTombstones([]xmldoc.DocID{1, 5, 130, 200})
	var w snapcodec.Writer
	s.Encode(&w)
	valid := w.Bytes()
	const numDocs = 256

	// Truncation sweep: every proper prefix must error.
	for cut := 0; cut < len(valid); cut++ {
		if _, err := DecodeTombstones(snapcodec.NewReader(valid[:cut]), numDocs); err == nil {
			t.Errorf("cut=%d: truncated payload accepted", cut)
		}
	}

	// Byte-flip sweep: no flip may panic, and anything accepted must be a
	// well-formed set within the collection.
	for pos := 0; pos < len(valid); pos++ {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			bad := append([]byte{}, valid...)
			bad[pos] ^= mask
			got, err := DecodeTombstones(snapcodec.NewReader(bad), numDocs)
			if err != nil {
				continue
			}
			for _, id := range got.IDs() {
				if int(id) >= numDocs {
					t.Fatalf("pos=%d mask=%x: accepted out-of-range id %d", pos, mask, id)
				}
			}
		}
	}

	// Alloc bombs: a count beyond numDocs, and a count beyond the
	// remaining bytes, must both be rejected before allocation.
	var bomb snapcodec.Writer
	bomb.Int(tombstonesCodecVersion)
	bomb.Int(1 << 40)
	if _, err := DecodeTombstones(snapcodec.NewReader(bomb.Bytes()), 1<<50); err == nil {
		t.Error("hostile count beyond input accepted")
	}
	var bomb2 snapcodec.Writer
	bomb2.Int(tombstonesCodecVersion)
	bomb2.Int(100)
	if _, err := DecodeTombstones(snapcodec.NewReader(bomb2.Bytes()), 10); err == nil {
		t.Error("count beyond numDocs accepted")
	}

	// Wrong codec version.
	var wv snapcodec.Writer
	wv.Int(tombstonesCodecVersion + 1)
	wv.Int(0)
	if _, err := DecodeTombstones(snapcodec.NewReader(wv.Bytes()), 10); err == nil {
		t.Error("future codec version accepted")
	}

	// An id at or past numDocs (valid gap encoding, hostile bound).
	var oob snapcodec.Writer
	oob.Int(tombstonesCodecVersion)
	oob.Int(1)
	oob.Int(9) // id 9 in a 5-doc collection
	if _, err := DecodeTombstones(snapcodec.NewReader(oob.Bytes()), 5); err == nil {
		t.Error("out-of-range id accepted")
	}
}

func TestWithTombstonesValidation(t *testing.T) {
	c := NewCollection()
	addDocs(t, c, `<a><b>x</b></a>`, `<a><b>y</b></a>`)

	if _, err := c.WithTombstones(nil); err == nil {
		t.Error("empty mask accepted")
	}
	if _, err := c.WithTombstones([]xmldoc.DocID{5}); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := c.WithTombstones([]xmldoc.DocID{0, 0}); err == nil {
		t.Error("duplicate id accepted")
	}
	masked, err := c.WithTombstones([]xmldoc.DocID{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := masked.WithTombstones([]xmldoc.DocID{0}); err == nil {
		t.Error("re-masking an already-masked id accepted")
	}
	// The original collection is untouched (copy-on-write stats).
	if c.NumLive() != 2 || c.Tombstones().Len() != 0 {
		t.Error("WithTombstones mutated the receiver")
	}
	if masked.NumLive() != 1 || masked.NumDocs() != 2 {
		t.Errorf("masked: live=%d docs=%d, want 1/2", masked.NumLive(), masked.NumDocs())
	}
	for lo, want := range [][]xmldoc.DocID{{1}, {1}, nil, nil} {
		var got []xmldoc.DocID
		for _, d := range masked.LiveDocsFrom(xmldoc.DocID(lo)) {
			got = append(got, d.ID)
		}
		if !slices.Equal(got, want) {
			t.Errorf("LiveDocsFrom(%d) = %v, want %v", lo, got, want)
		}
	}

	// AttachTombstones (snapshot load path) refuses double-masking and
	// out-of-range sets, and does NOT touch statistics.
	if _, err := masked.AttachTombstones(NewTombstones([]xmldoc.DocID{1})); err == nil {
		t.Error("attach over existing tombstones accepted")
	}
	if _, err := c.AttachTombstones(NewTombstones([]xmldoc.DocID{7})); err == nil {
		t.Error("attach of out-of-range tombstone accepted")
	}
	attached, err := c.AttachTombstones(NewTombstones([]xmldoc.DocID{1}))
	if err != nil {
		t.Fatal(err)
	}
	if attached.NumNodes() != c.NumNodes() {
		t.Error("attach adjusted node statistics (the persisted stats are already masked)")
	}
}

func TestCompactedRenumbers(t *testing.T) {
	c := NewCollection()
	addDocs(t, c, `<a><b>x</b></a>`, `<a><b>y</b></a>`, `<a><b>z</b></a>`)
	masked, err := c.WithTombstones([]xmldoc.DocID{1})
	if err != nil {
		t.Fatal(err)
	}
	compacted, restart := masked.Compacted()
	if restart != 1 {
		t.Errorf("restart = %d, want the first masked id 1", restart)
	}
	if compacted.NumDocs() != 2 || compacted.Tombstones().Len() != 0 {
		t.Fatalf("compacted: docs=%d tombstones=%d", compacted.NumDocs(), compacted.Tombstones().Len())
	}
	// Survivors keep their relative order under new contiguous ids. The
	// documents before the first dead one are shared as they are; the
	// later survivors get new shells over the same node trees.
	if compacted.Doc(0).Name != "doc0" || compacted.Doc(1).Name != "doc2" {
		t.Errorf("order: %s, %s", compacted.Doc(0).Name, compacted.Doc(1).Name)
	}
	if compacted.Doc(0) != c.Doc(0) {
		t.Error("compaction copied a document before the first dead one")
	}
	if compacted.Doc(1).Root != c.Doc(2).Root || compacted.Doc(1).ID != 1 {
		t.Error("compaction copied node trees instead of sharing them, or kept the old id")
	}
	if c.Doc(2).ID != 2 {
		t.Error("compaction renumbered the ORIGINAL collection's document")
	}
	// Statistics equal a from-scratch build over the survivors.
	scratch := NewCollection()
	addNamedDoc(t, scratch, "doc0", `<a><b>x</b></a>`)
	addNamedDoc(t, scratch, "doc2", `<a><b>z</b></a>`)
	if compacted.Stats() != scratch.Stats() {
		t.Errorf("stats: compacted %+v, scratch %+v", compacted.Stats(), scratch.Stats())
	}
}

func addNamedDoc(t *testing.T, c *Collection, name, xml string) {
	t.Helper()
	if _, err := c.AddXML(name, []byte(xml)); err != nil {
		t.Fatal(err)
	}
}

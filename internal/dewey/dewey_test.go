package dewey

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, s string) ID {
	t.Helper()
	id, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return id
}

func TestParseString(t *testing.T) {
	cases := []struct {
		in   string
		want ID
		err  bool
	}{
		{"1", ID{1}, false},
		{"1.2.2.1", ID{1, 2, 2, 1}, false},
		{"42.7", ID{42, 7}, false},
		{"", nil, true},
		{"1..2", nil, true},
		{"0", nil, true},     // components are 1-based
		{"1.0.3", nil, true}, // zero component
		{"a.b", nil, true},
		{"1.-2", nil, true},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if c.err {
			if err == nil {
				t.Errorf("Parse(%q): want error, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
		if got.String() != c.in {
			t.Errorf("String roundtrip: %q -> %q", c.in, got.String())
		}
	}
}

func TestInvalidString(t *testing.T) {
	if ID(nil).String() != "<invalid>" {
		t.Errorf("nil ID String = %q", ID(nil).String())
	}
	if ID(nil).IsValid() {
		t.Error("nil ID reported valid")
	}
	if !Root().IsValid() {
		t.Error("Root reported invalid")
	}
}

func TestCompareDocumentOrder(t *testing.T) {
	// Document order per the paper's Figure 3 example ids.
	ordered := []string{"1", "1.1", "1.1.1", "1.2", "1.2.2", "1.2.2.1", "1.2.2.1.1", "1.2.2.2", "1.3", "2"}
	for i := range ordered {
		for j := range ordered {
			a, b := mustParse(t, ordered[i]), mustParse(t, ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := Compare(a, b); got != want {
				t.Errorf("Compare(%s,%s) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestAncestry(t *testing.T) {
	a := mustParse(t, "1.2")
	d := mustParse(t, "1.2.2.1")
	sib := mustParse(t, "1.3")
	if !a.IsAncestorOf(d) {
		t.Error("1.2 should be ancestor of 1.2.2.1")
	}
	if d.IsAncestorOf(a) {
		t.Error("descendant is not ancestor")
	}
	if a.IsAncestorOf(a) {
		t.Error("IsAncestorOf must be proper")
	}
	if !a.IsAncestorOrSelf(a) {
		t.Error("IsAncestorOrSelf must include self")
	}
	if a.IsAncestorOf(sib) {
		t.Error("1.2 is not ancestor of 1.3")
	}
	if got := d.Parent(); !Equal(got, mustParse(t, "1.2.2")) {
		t.Errorf("Parent(1.2.2.1) = %v", got)
	}
	if Root().Parent() != nil {
		t.Error("root has no parent")
	}
}

func TestLCA(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"1.2.2.1.1", "1.2.2.2.1", "1.2.2"},
		{"1.2", "1.2", "1.2"},
		{"1.2", "1.2.5", "1.2"},
		{"1.1", "1.2", "1"},
	}
	for _, c := range cases {
		got := LCA(mustParse(t, c.a), mustParse(t, c.b))
		if !Equal(got, mustParse(t, c.want)) {
			t.Errorf("LCA(%s,%s) = %v, want %s", c.a, c.b, got, c.want)
		}
	}
	if LCA(ID{1, 2}, ID{2, 2}) != nil {
		t.Error("distinct roots share no LCA")
	}
}

func TestTreeDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1.2", "1.2", 0},
		{"1.2", "1.2.1", 1},
		{"1.2.1", "1.2.2", 2},         // siblings
		{"1.2.2.1.1", "1.2.2.2.1", 4}, // cousins through 1.2.2
		{"1", "1.2.2.1", 3},
	}
	for _, c := range cases {
		if got := TreeDistance(mustParse(t, c.a), mustParse(t, c.b)); got != c.want {
			t.Errorf("TreeDistance(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestChildPrefixAppend(t *testing.T) {
	d := mustParse(t, "1.2")
	if got := d.Child(3); !Equal(got, mustParse(t, "1.2.3")) {
		t.Errorf("Child = %v", got)
	}
	if got := d.Append(4, 5); !Equal(got, mustParse(t, "1.2.4.5")) {
		t.Errorf("Append = %v", got)
	}
	if got := mustParse(t, "1.2.3.4").Prefix(2); !Equal(got, d) {
		t.Errorf("Prefix = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Prefix beyond level should panic")
		}
	}()
	_ = d.Prefix(5)
}

func TestCloneIndependence(t *testing.T) {
	d := mustParse(t, "1.2.3")
	c := d.Clone()
	c[0] = 9
	if d[0] != 1 {
		t.Error("Clone aliases original storage")
	}
	if ID(nil).Clone() != nil {
		t.Error("Clone(nil) should be nil")
	}
}

// genID produces a random valid Dewey ID for property tests.
func genID(r *rand.Rand) ID {
	n := 1 + r.Intn(8)
	id := make(ID, n)
	for i := range id {
		id[i] = uint32(1 + r.Intn(1000))
	}
	return id
}

func TestPropBinaryRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		id := genID(r)
		buf := AppendBinary(nil, id)
		got, n, err := DecodeBinary(buf)
		return err == nil && n == len(buf) && Equal(got, id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropLCAIsSharedAncestor(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := genID(r)
		a := base.Append(uint32(1+r.Intn(5)), uint32(1+r.Intn(5)))
		b := base.Append(uint32(6 + r.Intn(5)))
		l := LCA(a, b)
		return l.IsAncestorOrSelf(a) && l.IsAncestorOrSelf(b) && len(l) >= len(base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeBinaryErrors(t *testing.T) {
	if _, _, err := DecodeBinary(nil); err == nil {
		t.Error("decoding empty buffer should fail")
	}
	// Length says 3 components but only one follows.
	buf := AppendBinary(nil, ID{1, 2, 3})
	if _, _, err := DecodeBinary(buf[:2]); err == nil {
		t.Error("truncated buffer should fail")
	}
	// Zero component is invalid.
	bad := []byte{1, 0}
	if _, _, err := DecodeBinary(bad); err == nil {
		t.Error("zero component should fail")
	}
	// A hostile length must be rejected before allocation, not OOM.
	bomb := binary.AppendUvarint(nil, 1<<60)
	bomb = append(bomb, 1)
	if _, _, err := DecodeBinary(bomb); err == nil {
		t.Error("oversized length should fail")
	}
}

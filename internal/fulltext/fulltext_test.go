package fulltext

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"United States", []string{"united", "states"}},
		{"GDP: 10.082T", []string{"gdp", "10.082t"}},
		{"15%", []string{"15%"}},
		{"import_partners", []string{"import_partners"}},
		{"trade-country", []string{"trade-country"}},
		{"a,b;c", []string{"a", "b", "c"}},
		{"", nil},
		{"   ", nil},
		{"...", nil},
		{"end.", []string{"end"}},
	}
	for _, c := range cases {
		got := TokenizeTerms(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestTokenizeMatchesReference checks Tokenize against a direct reading
// of its definition — split at every rune that cannot appear in a token,
// lower-case, trim '.', '-' and '_', drop what trims to nothing — on random
// strings over letters of both cases, multi-byte and invalid UTF-8, the
// kept punctuation and separators, and also on texts ending inside a run.
func TestTokenizeMatchesReference(t *testing.T) {
	ref := func(s string) []Token {
		var out []Token
		for _, run := range strings.FieldsFunc(s, func(r rune) bool { return !isTokenRune(r) }) {
			if term := strings.Trim(strings.ToLower(run), ".-_"); term != "" {
				out = append(out, Token{Term: term, Pos: len(out)})
			}
		}
		return out
	}
	pieces := []string{"a", "Z", "é", "Ä", "İ", "ẞ", "7", ".", "-", "_", "%", " ", ",", "…", "\u00a0", "\xc3", "\xff", "東"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		for i := r.Intn(24); i > 0; i-- {
			sb.WriteString(pieces[r.Intn(len(pieces))])
		}
		s := sb.String()
		if got, want := Tokenize(s), ref(s); !reflect.DeepEqual(got, want) {
			t.Logf("Tokenize(%q) = %v, want %v", s, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestTokenPositions(t *testing.T) {
	toks := Tokenize("one two one")
	if len(toks) != 3 || toks[0].Pos != 0 || toks[2].Pos != 2 {
		t.Fatalf("positions: %+v", toks)
	}
	c := NewContent("one two one")
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.TermFreq("one") != 2 {
		t.Errorf("TermFreq(one) = %d", c.TermFreq("one"))
	}
	if !reflect.DeepEqual(c.Positions("one"), []int{0, 2}) {
		t.Errorf("Positions = %v", c.Positions("one"))
	}
}

func TestWordAndPrefix(t *testing.T) {
	c := NewContent("United States of America")
	if !(Word{Term: "united"}).Matches(c) {
		t.Error("word match failed")
	}
	if (Word{Term: "unite"}).Matches(c) {
		t.Error("partial word must not match without wildcard")
	}
	if !(Word{Term: "unit", Prefix: true}).Matches(c) {
		t.Error("prefix wildcard failed")
	}
	if (Word{Term: "xyz", Prefix: true}).Matches(c) {
		t.Error("non-matching prefix matched")
	}
}

func TestPhrase(t *testing.T) {
	c := NewContent("the united states of america")
	if !(Phrase{TermsSeq: []string{"united", "states"}}).Matches(c) {
		t.Error("phrase failed")
	}
	if (Phrase{TermsSeq: []string{"states", "united"}}).Matches(c) {
		t.Error("reversed phrase matched")
	}
	if (Phrase{TermsSeq: []string{"united", "america"}}).Matches(c) {
		t.Error("gapped phrase matched")
	}
	if (Phrase{}).Matches(c) {
		t.Error("empty phrase matched")
	}
	// Phrase across repeated first term.
	c2 := NewContent("united kingdom united states")
	if !(Phrase{TermsSeq: []string{"united", "states"}}).Matches(c2) {
		t.Error("phrase after repeated first term failed")
	}
}

func TestBooleanOps(t *testing.T) {
	c := NewContent("china trade percentage 15%")
	and := And{Children: []Expr{Word{Term: "china"}, Word{Term: "15%"}}}
	if !and.Matches(c) {
		t.Error("AND failed")
	}
	or := Or{Children: []Expr{Word{Term: "nope"}, Word{Term: "trade"}}}
	if !or.Matches(c) {
		t.Error("OR failed")
	}
	not := Not{Child: Word{Term: "canada"}}
	if !not.Matches(c) {
		t.Error("NOT failed")
	}
	if (Not{Child: Word{Term: "china"}}).Matches(c) {
		t.Error("NOT of present term matched")
	}
	if !(MatchAll{}).Matches(NewContent("")) {
		t.Error("MatchAll must match empty content")
	}
}

func TestParseQuery(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{`"United States"`, `"united states"`},
		{`china canada`, `china AND canada`},
		{`china AND canada`, `china AND canada`},
		{`china OR canada`, `(china OR canada)`},
		{`NOT china`, `NOT china`},
		{`(a OR b) AND c`, `(a OR b) AND c`},
		{`unit*`, `unit*`},
		{`*`, `*`},
		{``, `*`},
		{`"single"`, `single`},
		{`a b OR c`, `(a AND b OR c)`},
		{`NOT (a AND b)`, `NOT (a AND b)`},
		{`NOT a AND b`, `NOT a AND b`},
		{`a (b c)`, `a AND (b AND c)`},
		{`NOT NOT (a b)`, `NOT NOT (a AND b)`},
	}
	for _, c := range cases {
		e, err := ParseQuery(c.in)
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", c.in, err)
			continue
		}
		if e.String() != c.want {
			t.Errorf("ParseQuery(%q).String() = %q, want %q", c.in, e.String(), c.want)
		}
		if e2, err := ParseQuery(e.String()); err != nil || !reflect.DeepEqual(e2, e) {
			t.Errorf("rendering %q of %q reparses to %#v (%v), want %#v", e.String(), c.in, e2, err, e)
		}
	}
}

func TestParseQueryErrors(t *testing.T) {
	for _, bad := range []string{`"unterminated`, `(a OR b`, `a )`, `NOT`, `AND`, `()`} {
		if e, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q): want error, got %v", bad, e)
		}
	}
}

func TestParseQueryEvaluation(t *testing.T) {
	content := NewContent("United States import partners percentage 15% China")
	cases := []struct {
		q    string
		want bool
	}{
		{`"United States"`, true},
		{`"states united"`, false},
		{`import china`, true},
		{`import AND canada`, false},
		{`import OR canada`, true},
		{`NOT canada`, true},
		{`NOT china`, false},
		{`chi*`, true},
		{`import AND (canada OR china)`, true},
		{`import AND NOT (canada OR china)`, false},
		{`*`, true},
	}
	for _, c := range cases {
		e := MustParseQuery(c.q)
		if got := e.Matches(content); got != c.want {
			t.Errorf("query %q = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestTermsCollection(t *testing.T) {
	e := MustParseQuery(`"united states" AND import* OR NOT canada`)
	terms := Terms(e)
	var got []string
	for _, tq := range terms {
		s := tq.Term
		if tq.Prefix {
			s += "*"
		}
		got = append(got, s)
	}
	want := []string{"united", "states", "import*"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v (NOT terms must be excluded)", got, want)
	}
}

func TestValidate(t *testing.T) {
	bad := []Expr{
		Word{},
		Phrase{},
		Phrase{TermsSeq: []string{"a", ""}},
		And{},
		Or{},
		Not{},
		And{Children: []Expr{Word{}}},
		nil,
	}
	for i, e := range bad {
		if err := Validate(e); err == nil {
			t.Errorf("Validate(#%d %v): want error", i, e)
		}
	}
	if err := Validate(MustParseQuery(`a AND (b OR "c d")`)); err != nil {
		t.Errorf("Validate of good expr: %v", err)
	}
}

// Property: parser output re-parses to an identical string (idempotent
// canonical form).
func TestPropParseCanonicalIdempotent(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", `"two words"`, "pre*", "NOT delta"}
	ops := []string{" AND ", " OR ", " "}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		n := 1 + r.Intn(4)
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteString(ops[r.Intn(len(ops))])
			}
			sb.WriteString(words[r.Intn(len(words))])
		}
		e1, err := ParseQuery(sb.String())
		if err != nil {
			return false
		}
		e2, err := ParseQuery(e1.String())
		if err != nil {
			return false
		}
		return e1.String() == e2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: evaluation agrees with a naive substring-based oracle for single
// keywords.
func TestPropWordOracle(t *testing.T) {
	vocab := []string{"red", "green", "blue", "cyan", "magenta"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var doc []string
		for i := 0; i < r.Intn(10); i++ {
			doc = append(doc, vocab[r.Intn(len(vocab))])
		}
		text := strings.Join(doc, " ")
		c := NewContent(text)
		probe := vocab[r.Intn(len(vocab))]
		want := false
		for _, w := range doc {
			if w == probe {
				want = true
			}
		}
		return (Word{Term: probe}).Matches(c) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestParseQueryMultiByte covers words whose UTF-8 encoding contains the
// bytes 0xA0 and 0x85, which read as NBSP and NEL when the lexer tests
// single bytes for white space, and the real NBSP and NEL runes, which
// separate words.
func TestParseQueryMultiByte(t *testing.T) {
	cases := []struct {
		q    string
		want Expr
	}{
		{"voilà", Word{Term: "voilà"}},
		{"Åland", Word{Term: "åland"}},
		{"à", Word{Term: "à"}},
		{"Ņem*", Word{Term: "ņem", Prefix: true}},
		{`"São Tomé"`, Phrase{TermsSeq: []string{"são", "tomé"}}},
		{`voilà AND "São Tomé"`, And{Children: []Expr{Word{Term: "voilà"}, Phrase{TermsSeq: []string{"são", "tomé"}}}}},
		{"voilà\u00a0Åland\u0085", And{Children: []Expr{Word{Term: "voilà"}, Word{Term: "åland"}}}},
	}
	for _, c := range cases {
		got, err := ParseQuery(c.q)
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", c.q, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseQuery(%q) = %#v, want %#v", c.q, got, c.want)
		}
	}
}

// TestPropParseSingleTokenWord: a word that tokenizes to exactly one term
// parses to that term. The alphabet mixes token runes (several multi-byte,
// with 0x85 and 0xA0 continuation bytes) with punctuation the tokenizer
// drops, and leaves out white space and the lexer's own characters.
func TestPropParseSingleTokenWord(t *testing.T) {
	alphabet := []rune("aZ9._-%,;!àÅŠŅठİ\u212a…é")
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := make([]rune, 1+r.Intn(8))
		for i := range w {
			w[i] = alphabet[r.Intn(len(alphabet))]
		}
		word := string(w)
		terms := TokenizeTerms(word)
		switch strings.ToUpper(word) {
		case "AND", "OR", "NOT":
			return true
		}
		if len(terms) != 1 {
			return true
		}
		got, err := ParseQuery(word)
		if err != nil || !reflect.DeepEqual(got, Word{Term: terms[0]}) {
			t.Logf("ParseQuery(%q) = %#v, %v; want Word{%q}", word, got, err, terms[0])
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

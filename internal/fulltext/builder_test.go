package fulltext

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// The restricted-content generator's space: tokens in mixed case, with
// punctuation that normalization trims, multi-byte runes whose lower-case
// form changes length, tokens that trim to nothing, and separators that
// are not token runes.
var (
	restrictedTokens = []string{
		"red", "Red", "RED.", "gold", "gold.", "-blue-", "blue", "green",
		"gre", "Greenish", "été", "Été", "İs", "is", "ſtop", "a.b", "15%",
		"--", "._.", "_", ",;!", "…",
	}
	restrictedSeps  = []string{" ", " ", ", ", "\t", "/", " ", " … "}
	restrictedWords = []string{"red", "gold", "blue", "green", "gre", "été", "is", "a.b", "15%", "absent"}
	restrictedPrefs = []string{"gr", "re", "é", "i", "b", "zz"}
)

// randRestrictedExpr draws an expression over the generator's words:
// words, prefixes, phrases, conjunctions, disjunctions, negations and
// match-all.
func randRestrictedExpr(r *rand.Rand, depth int) Expr {
	k := r.Intn(7)
	if depth >= 3 {
		k %= 3
	}
	switch k {
	case 0:
		return Word{Term: restrictedWords[r.Intn(len(restrictedWords))]}
	case 1:
		return Word{Term: restrictedPrefs[r.Intn(len(restrictedPrefs))], Prefix: true}
	case 2:
		seq := make([]string, 2+r.Intn(2))
		for i := range seq {
			seq[i] = restrictedWords[r.Intn(len(restrictedWords))]
		}
		return Phrase{TermsSeq: seq}
	case 3:
		return And{Children: []Expr{randRestrictedExpr(r, depth+1), randRestrictedExpr(r, depth+1)}}
	case 4:
		return Or{Children: []Expr{randRestrictedExpr(r, depth+1), randRestrictedExpr(r, depth+1)}}
	case 5:
		return Not{Child: randRestrictedExpr(r, depth+1)}
	default:
		return MatchAll{}
	}
}

// randRestrictedTexts draws zero to five texts, some empty, some
// punctuation only.
func randRestrictedTexts(r *rand.Rand) []string {
	texts := make([]string, r.Intn(6))
	for i := range texts {
		var sb strings.Builder
		for j := r.Intn(6); j > 0; j-- {
			sb.WriteString(restrictedTokens[r.Intn(len(restrictedTokens))])
			sb.WriteString(restrictedSeps[r.Intn(len(restrictedSeps))])
		}
		texts[i] = sb.String()
	}
	return texts
}

// checkRestricted builds the content of texts with a builder for e, twice
// (the second time after a reset, to exercise reuse), and compares it with
// NewContent over the space-joined texts on everything e and a score over
// e's words can ask: Matches, Len, and TermFreq and Positions of every
// word of e (negated and phrased ones included) and of every token that
// expands one of e's prefixes.
func checkRestricted(e Expr, texts []string) error {
	want := NewContent(strings.Join(texts, " "))
	b := NewContentBuilder(e)
	for round := 0; round < 2; round++ {
		b.Reset()
		for _, t := range texts {
			b.Add(t)
		}
		got := b.Content()
		if g, w := e.Matches(got), e.Matches(want); g != w {
			return fmt.Errorf("%s on %q: Matches = %v, want %v", e, texts, g, w)
		}
		if got.Len() != want.Len() {
			return fmt.Errorf("%s on %q: Len = %d, want %d", e, texts, got.Len(), want.Len())
		}
		words, prefixes := exprWords(e)
		for _, tok := range TokenizeTerms(strings.Join(texts, " ")) {
			for _, p := range prefixes {
				if strings.HasPrefix(tok, p) {
					words = append(words, tok)
				}
			}
		}
		for _, w := range words {
			if g, x := got.TermFreq(w), want.TermFreq(w); g != x {
				return fmt.Errorf("%s on %q: TermFreq(%q) = %d, want %d", e, texts, w, g, x)
			}
			if g, x := got.Positions(w), want.Positions(w); !slices.Equal(g, x) {
				return fmt.Errorf("%s on %q: Positions(%q) = %v, want %v", e, texts, w, g, x)
			}
		}
		// Grow the builder between rounds so the second one starts dirty.
		b.Add("red gold greenish été")
	}
	return nil
}

// exprWords lists every word and prefix of e, negated ones included.
func exprWords(e Expr) (words, prefixes []string) {
	var walk func(Expr)
	walk = func(e Expr) {
		switch t := e.(type) {
		case Word:
			if t.Prefix {
				prefixes = append(prefixes, t.Term)
			} else {
				words = append(words, t.Term)
			}
		case Phrase:
			words = append(words, t.TermsSeq...)
		case And:
			for _, c := range t.Children {
				walk(c)
			}
		case Or:
			for _, c := range t.Children {
				walk(c)
			}
		case Not:
			walk(t.Child)
		}
	}
	walk(e)
	return words, prefixes
}

// TestPropRestrictedContent checks the builder against NewContent on
// random expressions and random text lists.
func TestPropRestrictedContent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		if err := checkRestricted(randRestrictedExpr(r, 0), randRestrictedTexts(r)); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// byteSource is a rand.Source that spends one input byte per draw and
// yields zeros once the input runs out, so the fuzzer steers every choice
// of the generators directly.
type byteSource struct{ b []byte }

func (s *byteSource) Int63() int64 {
	var v byte
	if len(s.b) > 0 {
		v, s.b = s.b[0], s.b[1:]
	}
	return int64(uint64(v) * 0x0101010101010101 >> 1)
}

func (s *byteSource) Seed(int64) {}

// FuzzRestrictedContent decodes the input into an expression and a text
// list, plus one free-form text the fuzzer mutates directly, and checks
// the builder against NewContent.
func FuzzRestrictedContent(f *testing.F) {
	f.Add([]byte{}, "")
	f.Add([]byte{2, 3, 1, 0, 4, 5, 6}, "Voilà -Red- gold. ÉTÉ")
	f.Add([]byte{1, 2, 4, 1, 9, 0}, "GREenish gr.. İs ſtop")
	f.Fuzz(func(t *testing.T, data []byte, extra string) {
		r := rand.New(&byteSource{b: data})
		e := randRestrictedExpr(r, 0)
		texts := append(randRestrictedTexts(r), extra)
		if err := checkRestricted(e, texts); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNormalizeTermDefinition pins normalization, trimming before
// lower-casing and rune by rune, to its definition: lower-case with
// strings.ToLower, then trim '.', '-' and '_' from both ends. The cases
// include lower-case forms that differ in length, trim to nothing or come
// from invalid UTF-8.
func TestNormalizeTermDefinition(t *testing.T) {
	def := func(raw string) string { return strings.Trim(strings.ToLower(raw), ".-_") }
	for _, raw := range []string{
		"", "abc", "ABC", "-x-", "._.", "İstanbul", "ſ", "KELVIN", "ÅLAND",
		"São", "..Été__", "ǅ", "Ω", "10.082T", "-", "a-b", "ẞ", "AZ@[`{az",
		"\xc3", "A\xffB", "-\x85-", strings.Repeat("Ä", 40),
	} {
		if got, want := normalizeTerm(raw), def(raw); got != want {
			t.Errorf("normalizeTerm(%q) = %q, want %q", raw, got, want)
		}
	}
	f := func(raw string) bool { return normalizeTerm(raw) == def(raw) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

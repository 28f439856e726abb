// Package fulltext implements the full-text search core of SEDA's query
// language (paper §3, Definition 3): the search_query component of a query
// term may be "a simple bag of keywords, a phrase query or a boolean
// combination of those", with wildcards allowed.
//
// The package provides the tokenizer shared by indexing and querying, the
// expression AST with evaluation against tokenized content, and a parser
// for the textual query syntax.
package fulltext

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single indexed term occurrence.
type Token struct {
	Term string // normalized (lower-cased) term
	Pos  int    // 0-based position in the token stream
}

// isTokenRune reports whether r can appear inside a token. Digits, letters,
// and the characters ., %, -, _ are kept so that values like "10.082T",
// "15%", "2006-07" and tag-like terms survive tokenization.
func isTokenRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '.' || r == '%' || r == '-' || r == '_'
}

// Tokenize splits s into normalized tokens with positions. Tokens are
// lower-cased; leading/trailing punctuation (./-) is trimmed. Iteration is
// rune-wise so multi-byte UTF-8 content (accented names, CJK text)
// tokenizes correctly.
func Tokenize(s string) []Token {
	var out []Token
	var buf [64]byte
	for tok, i := nextToken(s, 0); tok != ""; tok, i = nextToken(s, i) {
		out = append(out, Token{Term: termString(tok, appendLower(buf[:0], tok)), Pos: len(out)})
	}
	return out
}

// nextToken returns the first token of s at or after byte i, not yet
// lower-cased, and the offset to resume from; the token is "" when none
// remain. A token is a maximal run of token runes, trimmed (trimToken);
// runs that trim to nothing are skipped. Tokenize and ContentBuilder both
// tokenize through it.
func nextToken(s string, i int) (string, int) {
	start := -1
	for j, r := range s[i:] {
		if isTokenRune(r) {
			if start < 0 {
				start = i + j
			}
			continue
		}
		if start >= 0 {
			if tok := trimToken(s[start : i+j]); tok != "" {
				return tok, i + j
			}
			start = -1
		}
	}
	if start >= 0 {
		return trimToken(s[start:]), len(s) // "" if the last run trims away
	}
	return "", len(s)
}

// TokenizeTerms returns just the normalized terms of s (nil if none).
func TokenizeTerms(s string) []string {
	toks := Tokenize(s)
	if len(toks) == 0 {
		return nil
	}
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Term
	}
	return out
}

// normalizeTerm returns s trimmed (trimToken), then lower-cased. That is
// the same as lower-casing first: lower-casing neither makes nor removes
// '.', '-' or '_'.
func normalizeTerm(s string) string {
	t := trimToken(s)
	var buf [64]byte
	return termString(t, appendLower(buf[:0], t))
}

// trimToken strips '.', '-' and '_' from both ends of tok.
func trimToken(tok string) string {
	for tok != "" && isTrimByte(tok[0]) {
		tok = tok[1:]
	}
	for tok != "" && isTrimByte(tok[len(tok)-1]) {
		tok = tok[:len(tok)-1]
	}
	return tok
}

func isTrimByte(c byte) bool { return c == '.' || c == '-' || c == '_' }

// termString returns norm as a string, sharing trimmed's storage when
// lower-casing changed nothing.
func termString(trimmed string, norm []byte) string {
	if string(norm) == trimmed {
		return trimmed
	}
	return string(norm)
}

// appendLower appends s, lower-cased rune by rune with strings.ToLower's
// mapping, to dst without building a string.
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
		i += w
	}
	return dst
}

// NormalizeTerm exposes term normalization for query-side code so that
// user-supplied keywords match indexed tokens.
func NormalizeTerm(s string) string { return normalizeTerm(s) }

// Content is tokenized text prepared for expression evaluation. Building a
// Content once and evaluating several expressions against it amortizes
// tokenization. Each distinct term owns a slot holding its ascending
// positions. A ContentBuilder keeps its slots across resets, so a slot may
// be empty; an empty slot reads as an absent term.
type Content struct {
	slots map[string]int // term → slot
	keys  []string       // slot → term
	lists [][]int        // slot → ascending positions
	live  []int          // slots with positions, in first-occurrence order
	n     int
}

// NewContent tokenizes s into an evaluable form.
func NewContent(s string) *Content {
	toks := Tokenize(s)
	c := &Content{slots: make(map[string]int, len(toks)), n: len(toks)}
	for _, t := range toks {
		c.add(t.Term, t.Pos)
	}
	return c
}

// add records an occurrence of term at pos, opening a slot on first sight.
func (c *Content) add(term string, pos int) {
	i, ok := c.slots[term]
	if !ok {
		i = c.open(term)
	}
	c.push(i, pos)
}

// open gives term a new, empty slot.
func (c *Content) open(term string) int {
	i := len(c.lists)
	c.slots[term] = i
	c.keys = append(c.keys, term)
	c.lists = append(c.lists, nil)
	return i
}

// push appends pos to slot's positions, marking the slot live.
func (c *Content) push(slot, pos int) {
	if len(c.lists[slot]) == 0 {
		c.live = append(c.live, slot)
	}
	c.lists[slot] = append(c.lists[slot], pos)
}

// Len returns the number of tokens.
func (c *Content) Len() int { return c.n }

// Has reports whether term occurs.
func (c *Content) Has(term string) bool { return len(c.Positions(term)) > 0 }

// Positions returns the occurrence positions of term (nil if absent).
func (c *Content) Positions(term string) []int {
	if i, ok := c.slots[term]; ok && len(c.lists[i]) > 0 {
		return c.lists[i]
	}
	return nil
}

// TermFreq returns the occurrence count of term.
func (c *Content) TermFreq(term string) int { return len(c.Positions(term)) }

// MatchPrefix reports whether any token starts with prefix; used by
// wildcard words ("unit*").
func (c *Content) MatchPrefix(prefix string) bool {
	for _, i := range c.live {
		if strings.HasPrefix(c.keys[i], prefix) {
			return true
		}
	}
	return false
}

// HasPhrase reports whether the exact term sequence occurs contiguously.
func (c *Content) HasPhrase(terms []string) bool {
	if len(terms) == 0 {
		return false
	}
	for _, start := range c.Positions(terms[0]) {
		ok := true
		for k := 1; k < len(terms); k++ {
			if !containsInt(c.Positions(terms[k]), start+k) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func containsInt(xs []int, v int) bool {
	// Position lists are ascending; binary search is overkill for the short
	// lists typical of node content.
	for _, x := range xs {
		if x == v {
			return true
		}
		if x > v {
			return false
		}
	}
	return false
}

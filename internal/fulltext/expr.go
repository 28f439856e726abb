package fulltext

import (
	"fmt"
	"strings"
)

// Expr is a full-text search expression tree. Expressions are evaluated
// against a node's content (paper Definition 3: "Content(n) satisfies
// search_query").
type Expr interface {
	// Matches evaluates the expression against tokenized content.
	Matches(c *Content) bool
	// String renders the canonical query syntax.
	String() string
	// collectTerms appends the positive terms the expression needs, used to
	// probe inverted indexes. Terms under NOT are excluded.
	collectTerms(out *[]TermQuery)
	// observe registers with b every word and prefix Matches can ask
	// about, terms under NOT included.
	observe(b *ContentBuilder)
}

// TermQuery is a positive index probe: a term or a term prefix.
type TermQuery struct {
	Term   string
	Prefix bool // true for wildcard probes ("unit*")
}

// Terms returns the positive terms of e in syntax order. Every match of e
// must contain at least one of the returned terms somewhere in its subtree
// content, except for pure-NOT expressions (which return none and require a
// scan).
func Terms(e Expr) []TermQuery {
	var out []TermQuery
	e.collectTerms(&out)
	return out
}

// Word matches a single keyword, optionally as a prefix wildcard.
type Word struct {
	Term   string
	Prefix bool
}

// Matches implements Expr.
func (w Word) Matches(c *Content) bool {
	if w.Prefix {
		return c.MatchPrefix(w.Term)
	}
	return c.Has(w.Term)
}

// String renders the word so it parses back to itself. A term that
// spells an operator is quoted: a one-word phrase parses to the word.
func (w Word) String() string {
	switch {
	case w.Prefix:
		return w.Term + "*"
	case w.Term == "and" || w.Term == "or" || w.Term == "not":
		return `"` + w.Term + `"`
	}
	return w.Term
}

func (w Word) collectTerms(out *[]TermQuery) {
	*out = append(*out, TermQuery{Term: w.Term, Prefix: w.Prefix})
}

func (w Word) observe(b *ContentBuilder) {
	if w.Prefix {
		b.prefixes = append(b.prefixes, w.Term)
	} else {
		b.want(w.Term)
	}
}

// Phrase matches a contiguous sequence of terms, e.g. "united states".
type Phrase struct {
	TermsSeq []string
}

// Matches implements Expr.
func (p Phrase) Matches(c *Content) bool { return c.HasPhrase(p.TermsSeq) }

func (p Phrase) String() string { return `"` + strings.Join(p.TermsSeq, " ") + `"` }

func (p Phrase) collectTerms(out *[]TermQuery) {
	for _, t := range p.TermsSeq {
		*out = append(*out, TermQuery{Term: t})
	}
}

func (p Phrase) observe(b *ContentBuilder) {
	for _, t := range p.TermsSeq {
		b.want(t)
	}
}

// And matches when every child matches.
type And struct {
	Children []Expr
}

// Matches implements Expr.
func (a And) Matches(c *Content) bool {
	for _, ch := range a.Children {
		if !ch.Matches(c) {
			return false
		}
	}
	return true
}

// String joins the children with AND, parenthesizing a child that is
// itself an And: juxtaposition would flatten it into this one on reparse.
func (a And) String() string {
	parts := make([]string, len(a.Children))
	for i, ch := range a.Children {
		parts[i] = groupAnd(ch)
	}
	return strings.Join(parts, " AND ")
}

func (a And) collectTerms(out *[]TermQuery) {
	for _, ch := range a.Children {
		ch.collectTerms(out)
	}
}

func (a And) observe(b *ContentBuilder) {
	for _, ch := range a.Children {
		ch.observe(b)
	}
}

// Or matches when any child matches.
type Or struct {
	Children []Expr
}

// Matches implements Expr.
func (o Or) Matches(c *Content) bool {
	for _, ch := range o.Children {
		if ch.Matches(c) {
			return true
		}
	}
	return false
}

func (o Or) String() string { return "(" + joinExprs(o.Children, " OR ") + ")" }

func (o Or) collectTerms(out *[]TermQuery) {
	for _, ch := range o.Children {
		ch.collectTerms(out)
	}
}

func (o Or) observe(b *ContentBuilder) {
	for _, ch := range o.Children {
		ch.observe(b)
	}
}

// Not matches when its child does not.
type Not struct {
	Child Expr
}

// Matches implements Expr.
func (n Not) Matches(c *Content) bool { return !n.Child.Matches(c) }

// String parenthesizes an And child: NOT binds tighter than AND, so
// "NOT a AND b" reads as (NOT a) AND b.
func (n Not) String() string { return "NOT " + groupAnd(n.Child) }

// groupAnd renders e, in parentheses when it is an And, so that an And
// nested under an And or a Not reparses to the same tree. Or renders its
// own parentheses.
func groupAnd(e Expr) string {
	if _, ok := e.(And); ok {
		return "(" + e.String() + ")"
	}
	return e.String()
}

func (n Not) collectTerms(*[]TermQuery) {} // negative terms never probe the index

func (n Not) observe(b *ContentBuilder) { n.Child.observe(b) }

// MatchAll matches any content, including empty; it is the expression of a
// query term whose search component is "*" or empty (the paper's
// (trade_country, *) terms).
type MatchAll struct{}

// Matches implements Expr.
func (MatchAll) Matches(*Content) bool { return true }

func (MatchAll) String() string { return "*" }

func (MatchAll) collectTerms(*[]TermQuery) {}

func (MatchAll) observe(*ContentBuilder) {}

// IsMatchAll reports whether e is the universal expression.
func IsMatchAll(e Expr) bool {
	_, ok := e.(MatchAll)
	return ok
}

// OpenMatch reports whether e can be satisfied by content containing none
// of the expression's positive terms — true for MatchAll, negations, and
// disjunctions with such a branch. Open expressions cannot be anchored by
// index probes: evaluating them requires a context to enumerate candidates
// (query.NewTerm enforces this).
func OpenMatch(e Expr) bool {
	switch t := e.(type) {
	case Word, Phrase:
		return false
	case Not, MatchAll:
		return true
	case And:
		for _, c := range t.Children {
			if !OpenMatch(c) {
				return false
			}
		}
		return true
	case Or:
		for _, c := range t.Children {
			if OpenMatch(c) {
				return true
			}
		}
		return false
	}
	return true
}

func joinExprs(es []Expr, sep string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, sep)
}

// Validate rejects expressions that could never match anything meaningful
// (empty phrases, empty AND/OR) so errors surface at parse/plan time.
func Validate(e Expr) error {
	switch t := e.(type) {
	case Word:
		if t.Term == "" {
			return fmt.Errorf("fulltext: empty word")
		}
	case Phrase:
		if len(t.TermsSeq) == 0 {
			return fmt.Errorf("fulltext: empty phrase")
		}
		for _, w := range t.TermsSeq {
			if w == "" {
				return fmt.Errorf("fulltext: empty phrase term")
			}
		}
	case And:
		if len(t.Children) == 0 {
			return fmt.Errorf("fulltext: empty conjunction")
		}
		for _, c := range t.Children {
			if err := Validate(c); err != nil {
				return err
			}
		}
	case Or:
		if len(t.Children) == 0 {
			return fmt.Errorf("fulltext: empty disjunction")
		}
		for _, c := range t.Children {
			if err := Validate(c); err != nil {
				return err
			}
		}
	case Not:
		if t.Child == nil {
			return fmt.Errorf("fulltext: empty negation")
		}
		return Validate(t.Child)
	case MatchAll:
	case nil:
		return fmt.Errorf("fulltext: nil expression")
	}
	return nil
}

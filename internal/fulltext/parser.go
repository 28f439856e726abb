package fulltext

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseQuery parses the textual search syntax into an Expr.
//
// Grammar (operators are case-insensitive):
//
//	expr    := orExpr
//	orExpr  := andExpr ( OR andExpr )*
//	andExpr := unary ( [AND] unary )*        // juxtaposition is AND
//	unary   := NOT unary | '(' expr ')' | '"' words '"' | word['*']
//
// "*" or the empty string parse to MatchAll, matching the paper's
// (trade_country, *) query terms.
func ParseQuery(s string) (Expr, error) {
	toks, err := lexQuery(s)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return MatchAll{}, nil
	}
	p := &parser{toks: toks}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("fulltext: unexpected %q at end of query", p.toks[p.pos].text)
	}
	if err := Validate(e); err != nil {
		return nil, err
	}
	return e, nil
}

// MustParseQuery is ParseQuery for compile-time-constant queries in tests
// and examples; it panics on error.
func MustParseQuery(s string) Expr {
	e, err := ParseQuery(s)
	if err != nil {
		panic(err)
	}
	return e
}

type tokKind uint8

const (
	tokWord tokKind = iota
	tokPhrase
	tokAnd
	tokOr
	tokNot
	tokLParen
	tokRParen
	tokStar
)

type qtok struct {
	kind tokKind
	text string
}

func lexQuery(s string) ([]qtok, error) {
	var out []qtok
	i := 0
	for i < len(s) {
		r, w := utf8.DecodeRuneInString(s[i:])
		switch {
		case unicode.IsSpace(r):
			i += w
		case r == '(':
			out = append(out, qtok{tokLParen, "("})
			i++
		case r == ')':
			out = append(out, qtok{tokRParen, ")"})
			i++
		case r == '"':
			j := strings.IndexByte(s[i+1:], '"')
			if j < 0 {
				return nil, fmt.Errorf("fulltext: unterminated phrase in %q", s)
			}
			out = append(out, qtok{tokPhrase, s[i+1 : i+1+j]})
			i += j + 2
		case r == '*':
			out = append(out, qtok{tokStar, "*"})
			i++
		default:
			j := i
			for j < len(s) {
				r, w := utf8.DecodeRuneInString(s[j:])
				if unicode.IsSpace(r) || r == '(' || r == ')' || r == '"' {
					break
				}
				j += w
			}
			word := s[i:j]
			switch strings.ToUpper(word) {
			case "AND":
				out = append(out, qtok{tokAnd, word})
			case "OR":
				out = append(out, qtok{tokOr, word})
			case "NOT":
				out = append(out, qtok{tokNot, word})
			default:
				out = append(out, qtok{tokWord, word})
			}
			i = j
		}
	}
	return out, nil
}

type parser struct {
	toks []qtok
	pos  int
}

func (p *parser) peek() (qtok, bool) {
	if p.pos >= len(p.toks) {
		return qtok{}, false
	}
	return p.toks[p.pos], true
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	children := []Expr{left}
	for {
		t, ok := p.peek()
		if !ok || t.kind != tokOr {
			break
		}
		p.pos++
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		children = append(children, right)
	}
	if len(children) == 1 {
		return children[0], nil
	}
	return Or{Children: children}, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	children := []Expr{left}
	for {
		t, ok := p.peek()
		if !ok || t.kind == tokOr || t.kind == tokRParen {
			break
		}
		if t.kind == tokAnd {
			p.pos++
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		children = append(children, right)
	}
	if len(children) == 1 {
		return children[0], nil
	}
	return And{Children: children}, nil
}

func (p *parser) parseUnary() (Expr, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("fulltext: unexpected end of query")
	}
	switch t.kind {
	case tokNot:
		p.pos++
		child, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not{Child: child}, nil
	case tokLParen:
		p.pos++
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		nt, ok := p.peek()
		if !ok || nt.kind != tokRParen {
			return nil, fmt.Errorf("fulltext: missing ')'")
		}
		p.pos++
		return e, nil
	case tokPhrase:
		p.pos++
		terms := TokenizeTerms(t.text)
		if len(terms) == 0 {
			return nil, fmt.Errorf("fulltext: empty phrase")
		}
		if len(terms) == 1 {
			return Word{Term: terms[0]}, nil
		}
		return Phrase{TermsSeq: terms}, nil
	case tokStar:
		p.pos++
		return MatchAll{}, nil
	case tokWord:
		p.pos++
		prefix := strings.HasSuffix(t.text, "*")
		raw := strings.TrimSuffix(t.text, "*")
		// A word must reduce to exactly one indexed token: content is
		// matched token-wise, and a term carrying lexer-significant
		// characters (an interior '*', say) would not survive a
		// render/reparse round trip.
		terms := TokenizeTerms(raw)
		if len(terms) != 1 {
			return nil, fmt.Errorf("fulltext: invalid word %q", t.text)
		}
		return Word{Term: terms[0], Prefix: prefix}, nil
	default:
		return nil, fmt.Errorf("fulltext: unexpected token %q", t.text)
	}
}

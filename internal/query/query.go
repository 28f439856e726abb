// Package query models SEDA queries (paper §3, Definition 3): a query is a
// set of query terms, each a pair (context, search_query).
//
// The context component is empty, a root-to-leaf path ("/country/year"), a
// tag-name keyword with optional trailing wildcard ("trade_country",
// "trade*"), or a disjunction of those separated by '|'. The search
// component is a full-text expression (internal/fulltext).
//
// Query 1 of the paper is written in this package's textual syntax as:
//
//	(*, "United States") (trade_country, *) (percentage, *)
package query

import (
	"fmt"
	"slices"
	"strings"

	"seda/internal/fulltext"
	"seda/internal/pathdict"
)

// Atom is one disjunct of a context.
type Atom struct {
	// Path is set (and starts with '/') for root-to-leaf path atoms.
	Path string
	// Tag is set for tag-name atoms; TagPrefix marks a trailing wildcard.
	Tag       string
	TagPrefix bool
}

// String renders the atom in query syntax.
func (a Atom) String() string {
	if a.Path != "" {
		return a.Path
	}
	if a.TagPrefix {
		return a.Tag + "*"
	}
	return a.Tag
}

// Context is the first component of a query term. An empty Context (no
// atoms) matches every node.
type Context struct {
	Atoms []Atom
}

// IsEmpty reports whether the context places no constraint.
func (c Context) IsEmpty() bool { return len(c.Atoms) == 0 }

// String renders the context; "*" for the empty context.
func (c Context) String() string {
	switch len(c.Atoms) {
	case 0:
		return "*"
	case 1:
		return c.Atoms[0].String()
	}
	parts := make([]string, len(c.Atoms))
	for i, a := range c.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, "|")
}

// Matches reports whether a node with path p satisfies the context
// (Definition 3 cases 2-4): the context equals the node name, equals the
// full root-to-leaf path, or some disjunct does.
func (c Context) Matches(dict *pathdict.Dict, p pathdict.PathID) bool {
	if c.IsEmpty() {
		return true
	}
	for _, a := range c.Atoms {
		if a.Path != "" {
			if dict.Path(p) == a.Path {
				return true
			}
			continue
		}
		if a.matchesLeaf(dict.LeafName(p)) {
			return true
		}
	}
	return false
}

// matchesLeaf reports whether a tag atom accepts a node named leaf.
func (a Atom) matchesLeaf(leaf string) bool {
	if a.TagPrefix {
		return strings.HasPrefix(leaf, a.Tag)
	}
	return leaf == a.Tag
}

// Covers returns, indexed by PathID, whether the context matches each path
// of dict or one of its ancestors: the paths a term presents in its context
// summary. It is nil for the empty context, which covers every path. One
// pass over the dictionary decides all paths; a path atom is looked up
// once instead of rendering every path.
func (c Context) Covers(dict *pathdict.Dict) []bool {
	if c.IsEmpty() {
		return nil
	}
	var ids []pathdict.PathID
	for _, a := range c.Atoms {
		if a.Path != "" {
			ids = append(ids, dict.LookupPath(a.Path))
		}
	}
	return dict.Covered(func(p pathdict.PathID, leaf string) bool {
		if slices.Contains(ids, p) {
			return true
		}
		for _, a := range c.Atoms {
			if a.Path == "" && a.matchesLeaf(leaf) {
				return true
			}
		}
		return false
	})
}

// ParseContext parses the context component. Accepted forms: "" or "*"
// (empty), "/a/b/c", "tag", "tag*", and '|'-separated disjunctions of the
// path/tag forms.
func ParseContext(s string) (Context, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "*" {
		return Context{}, nil
	}
	var ctx Context
	for _, part := range strings.Split(s, "|") {
		part = strings.TrimSpace(part)
		if part == "" {
			return Context{}, fmt.Errorf("query: empty context disjunct in %q", s)
		}
		if strings.HasPrefix(part, "/") {
			if strings.HasSuffix(part, "/") || strings.Contains(part, "//") {
				return Context{}, fmt.Errorf("query: malformed context path %q", part)
			}
			ctx.Atoms = append(ctx.Atoms, Atom{Path: part})
			continue
		}
		prefix := strings.HasSuffix(part, "*")
		tag := strings.TrimSuffix(part, "*")
		if tag == "" {
			return Context{}, fmt.Errorf("query: bare wildcard disjunct in %q (use empty context instead)", s)
		}
		if strings.ContainsAny(tag, " \t*/") {
			return Context{}, fmt.Errorf("query: malformed context tag %q", part)
		}
		ctx.Atoms = append(ctx.Atoms, Atom{Tag: tag, TagPrefix: prefix})
	}
	return ctx, nil
}

// Term is one query term (context, search_query).
type Term struct {
	Context Context
	Search  fulltext.Expr
}

// String renders the term as "(context, search)". The rendering is
// canonical — parsing it back yields the same term (FuzzParseQuery) — so
// the index keys its term cache on it; it is built without fmt, in one
// allocation for a single-atom context.
func (t Term) String() string {
	return "(" + t.Context.String() + ", " + t.Search.String() + ")"
}

// NewTerm builds a term from textual components.
func NewTerm(context, search string) (Term, error) {
	ctx, err := ParseContext(context)
	if err != nil {
		return Term{}, err
	}
	expr, err := fulltext.ParseQuery(search)
	if err != nil {
		return Term{}, err
	}
	if ctx.IsEmpty() && fulltext.IsMatchAll(expr) {
		return Term{}, fmt.Errorf("query: term (*, *) is unboundedly broad; give a context or a search expression")
	}
	if ctx.IsEmpty() && fulltext.OpenMatch(expr) {
		return Term{}, fmt.Errorf("query: search %q can match without any positive keyword; it needs a context", search)
	}
	return Term{Context: ctx, Search: expr}, nil
}

// RestrictTo replaces the term's context with a disjunction of the given
// full paths. This is how user context selections from the context summary
// refine a query (paper §5).
func (t Term) RestrictTo(paths ...string) Term {
	ctx := Context{}
	for _, p := range paths {
		ctx.Atoms = append(ctx.Atoms, Atom{Path: p})
	}
	return Term{Context: ctx, Search: t.Search}
}

// Query is a set of query terms.
type Query struct {
	Terms []Term
}

// String renders the query as juxtaposed terms.
func (q Query) String() string {
	parts := make([]string, len(q.Terms))
	for i, t := range q.Terms {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

// Parse parses a full query: one or more parenthesized terms, optionally
// separated by "AND" or "∧", e.g.
//
//	(*, "United States") AND (trade_country, *) AND (percentage, *)
//
// Within a term, the first top-level comma separates context from search.
func Parse(s string) (Query, error) {
	var q Query
	rest := strings.TrimSpace(s)
	for rest != "" {
		if !strings.HasPrefix(rest, "(") {
			return Query{}, fmt.Errorf("query: expected '(' at %q", rest)
		}
		end := matchParen(rest)
		if end < 0 {
			return Query{}, fmt.Errorf("query: unbalanced parentheses in %q", s)
		}
		body := rest[1:end]
		rest = strings.TrimSpace(rest[end+1:])
		for _, sep := range []string{"AND", "and", "∧"} {
			if strings.HasPrefix(rest, sep) {
				rest = strings.TrimSpace(rest[len(sep):])
				break
			}
		}
		comma := topLevelComma(body)
		if comma < 0 {
			return Query{}, fmt.Errorf("query: term %q needs a comma separating context and search", body)
		}
		term, err := NewTerm(body[:comma], body[comma+1:])
		if err != nil {
			return Query{}, err
		}
		q.Terms = append(q.Terms, term)
	}
	if len(q.Terms) == 0 {
		return Query{}, fmt.Errorf("query: empty query")
	}
	return q, nil
}

// MustParse is Parse for constant queries in tests and examples.
func MustParse(s string) Query {
	q, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return q
}

// matchParen returns the index of the ')' matching the '(' at position 0,
// honoring quoted strings, or -1.
func matchParen(s string) int {
	depth := 0
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case '(':
			if !inQuote {
				depth++
			}
		case ')':
			if !inQuote {
				depth--
				if depth == 0 {
					return i
				}
			}
		}
	}
	return -1
}

// topLevelComma returns the index of the first comma outside quotes and
// parentheses, or -1.
func topLevelComma(s string) int {
	depth := 0
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case '(':
			if !inQuote {
				depth++
			}
		case ')':
			if !inQuote {
				depth--
			}
		case ',':
			if !inQuote && depth == 0 {
				return i
			}
		}
	}
	return -1
}

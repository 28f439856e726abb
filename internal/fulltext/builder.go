package fulltext

// ContentBuilder builds Contents restricted to what one expression can
// observe, for evaluating that expression against many texts in turn.
// Texts are fed one at a time and tokenize as if joined by single spaces,
// so after Reset and Add(t1), …, Add(tk) the Content answers every
// question the expression (and a score over its words and their prefix
// expansions) can ask exactly as NewContent(strings.Join(texts, " "))
// would: Len counts every token, but positions are kept only for the
// expression's words — under NOT and inside phrases too — and for tokens
// carrying one of its prefixes. Slots and position lists are reused across
// resets, so a warmed-up builder allocates nothing per text.
type ContentBuilder struct {
	c        Content
	prefixes []string
	buf      []byte // the current token, lower-cased
}

// NewContentBuilder returns an empty builder for contents e is evaluated
// against.
func NewContentBuilder(e Expr) *ContentBuilder {
	b := &ContentBuilder{c: Content{slots: make(map[string]int)}}
	e.observe(b)
	return b
}

// want opens a slot for a word of the expression.
func (b *ContentBuilder) want(term string) {
	if _, ok := b.c.slots[term]; !ok {
		b.c.open(term)
	}
}

// Reset empties the content, keeping its slots and their storage.
func (b *ContentBuilder) Reset() {
	for _, i := range b.c.live {
		b.c.lists[i] = b.c.lists[i][:0]
	}
	b.c.live = b.c.live[:0]
	b.c.n = 0
}

// Add tokenizes text, as Tokenize does, onto the end of the content.
func (b *ContentBuilder) Add(text string) {
	for tok, i := nextToken(text, 0); tok != ""; tok, i = nextToken(text, i) {
		b.buf = appendLower(b.buf[:0], tok)
		b.token(b.buf)
	}
}

// Content returns the content built since the last Reset. It is valid
// until the next Reset or Add.
func (b *ContentBuilder) Content() *Content { return &b.c }

// token records one normalized token.
func (b *ContentBuilder) token(norm []byte) {
	pos := b.c.n
	b.c.n++
	if i, ok := b.c.slots[string(norm)]; ok {
		b.c.push(i, pos)
		return
	}
	if hasAnyPrefix(norm, b.prefixes) {
		b.c.add(string(norm), pos)
	}
}

// hasAnyPrefix reports whether tok starts with one of prefixes.
func hasAnyPrefix(tok []byte, prefixes []string) bool {
	for _, p := range prefixes {
		if len(tok) >= len(p) && string(tok[:len(p)]) == p {
			return true
		}
	}
	return false
}

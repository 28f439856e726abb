package query

import (
	"strings"
	"testing"

	"seda/internal/pathdict"
)

func TestParseContext(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"", "*", false},
		{"*", "*", false},
		{"/country/year", "/country/year", false},
		{"trade_country", "trade_country", false},
		{"trade*", "trade*", false},
		{"country|/sea/name|trade*", "country|/sea/name|trade*", false},
		{"  country ", "country", false},
		{"/a//b", "", true},
		{"/a/", "", true},
		{"a||b", "", true},
		{"a b", "", true},
		{"**", "", true},
	}
	for _, c := range cases {
		ctx, err := ParseContext(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseContext(%q): want error, got %q", c.in, ctx.String())
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseContext(%q): %v", c.in, err)
			continue
		}
		if ctx.String() != c.want {
			t.Errorf("ParseContext(%q) = %q, want %q", c.in, ctx.String(), c.want)
		}
	}
}

func TestContextMatches(t *testing.T) {
	dict := pathdict.New()
	imp, _ := dict.InternPath("/country/economy/import_partners/item/trade_country")
	exp, _ := dict.InternPath("/country/economy/export_partners/item/trade_country")
	name, _ := dict.InternPath("/country/name")

	mk := func(s string) Context {
		ctx, err := ParseContext(s)
		if err != nil {
			t.Fatalf("ParseContext(%q): %v", s, err)
		}
		return ctx
	}

	if !mk("*").Matches(dict, imp) {
		t.Error("empty context must match everything")
	}
	// Tag name matches both import and export contexts (the paper's
	// ambiguity motivating the context summary).
	tc := mk("trade_country")
	if !tc.Matches(dict, imp) || !tc.Matches(dict, exp) {
		t.Error("tag context should match both paths")
	}
	if tc.Matches(dict, name) {
		t.Error("tag context must not match /country/name")
	}
	// Full path restricts to one.
	fp := mk("/country/economy/import_partners/item/trade_country")
	if !fp.Matches(dict, imp) || fp.Matches(dict, exp) {
		t.Error("path context restriction failed")
	}
	// Wildcard tag.
	if !mk("trade*").Matches(dict, imp) {
		t.Error("wildcard tag failed")
	}
	if mk("xyz*").Matches(dict, imp) {
		t.Error("non-matching wildcard matched")
	}
	// Disjunction.
	dj := mk("name|/country/economy/export_partners/item/trade_country")
	if !dj.Matches(dict, name) || !dj.Matches(dict, exp) || dj.Matches(dict, imp) {
		t.Error("disjunction semantics wrong")
	}
}

func TestNewTermValidation(t *testing.T) {
	if _, err := NewTerm("*", "*"); err == nil {
		t.Error("(*, *) must be rejected")
	}
	if _, err := NewTerm("", "NOT x"); err == nil {
		t.Error("purely negative term without context must be rejected")
	}
	if _, err := NewTerm("country", "NOT x"); err != nil {
		t.Errorf("negative search with context should be fine: %v", err)
	}
	if _, err := NewTerm("trade_country", "*"); err != nil {
		t.Errorf("(tag, *) should be fine: %v", err)
	}
	if _, err := NewTerm("/a/b", `"United States"`); err != nil {
		t.Errorf("path + phrase: %v", err)
	}
	if _, err := NewTerm("/a//b", "x"); err == nil {
		t.Error("bad context must propagate")
	}
	if _, err := NewTerm("a", `"unterminated`); err == nil {
		t.Error("bad search must propagate")
	}
}

func TestParseQuery1(t *testing.T) {
	// The paper's Query 1.
	q, err := Parse(`(*, "United States") AND (trade_country, *) AND (percentage, *)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Terms) != 3 {
		t.Fatalf("terms = %d", len(q.Terms))
	}
	if got := q.Terms[0].String(); got != `(*, "united states")` {
		t.Errorf("term0 = %q", got)
	}
	if got := q.Terms[1].String(); got != `(trade_country, *)` {
		t.Errorf("term1 = %q", got)
	}
	// Juxtaposition without AND and with the unicode wedge.
	q2, err := Parse(`(*, "United States") (trade_country, *) ∧ (percentage, *)`)
	if err != nil {
		t.Fatal(err)
	}
	if q2.String() != q.String() {
		t.Errorf("separator variants differ: %q vs %q", q2.String(), q.String())
	}
}

func TestParseQueryErrors(t *testing.T) {
	bad := []string{
		"",
		"no parens",
		"(a, b",
		"(missing-comma)",
		"(a, b) garbage (c, d)xx",
		"(, )",
	}
	for _, s := range bad {
		if q, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): want error, got %v", s, q)
		}
	}
}

func TestParseQuotedCommaAndParens(t *testing.T) {
	q, err := Parse(`(country, "a, (b)")`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.Terms[0].Search.String(), "a") {
		t.Errorf("quoted body lost: %q", q.Terms[0].Search.String())
	}
}

// TestOperatorWordsRoundTrip: a search word that normalizes to an
// operator ("AND!" -> and) renders quoted, so the rendering reparses to
// itself instead of to an operator.
func TestOperatorWordsRoundTrip(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`(0,000000000 AND!)`, `(0, 000000000 AND "and")`},
		{`(a, x OR.)`, `(a, x AND "or")`},
		{`(a, NOT. x)`, `(a, "not" AND x)`},
		{`(a, "and")`, `(a, "and")`},
	} {
		q, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if got := q.String(); got != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("rendering %q of %q does not reparse: %v", q.String(), tc.in, err)
		}
		if q2.String() != q.String() {
			t.Errorf("render/reparse of %q not stable: %q -> %q", tc.in, q.String(), q2.String())
		}
	}
}

func TestRestrictTo(t *testing.T) {
	term, err := NewTerm("trade_country", "*")
	if err != nil {
		t.Fatal(err)
	}
	r := term.RestrictTo("/country/economy/import_partners/item/trade_country")
	if r.Context.String() != "/country/economy/import_partners/item/trade_country" {
		t.Errorf("RestrictTo = %q", r.Context.String())
	}
	if r.Search.String() != term.Search.String() {
		t.Error("RestrictTo must preserve search expression")
	}
	dict := pathdict.New()
	imp, _ := dict.InternPath("/country/economy/import_partners/item/trade_country")
	exp, _ := dict.InternPath("/country/economy/export_partners/item/trade_country")
	if !r.Context.Matches(dict, imp) || r.Context.Matches(dict, exp) {
		t.Error("restricted context must match only the selected path")
	}
}

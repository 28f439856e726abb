package query

import (
	"reflect"
	"testing"
)

// FuzzParseQuery feeds arbitrary strings to the query grammar. Parse must
// never panic, and any query it accepts must render back to a string that
// reparses to the same query, tree for tree. That makes the rendering
// injective: the index keys its term cache on Term.String, and two terms
// that rendered alike would share one cached answer.
func FuzzParseQuery(f *testing.F) {
	f.Add("(trade_country, germany) AND (percentage, *)")
	f.Add("(name, france) OR (religions, muslim)")
	f.Add("(a, b) AND (c, d) OR (e, *)")
	f.Add("( , )")
	f.Add("unbalanced (paren")
	f.Add("(path/with/steps, value with spaces)")
	f.Add("(country, NOT (mexico AND germany))")
	f.Add("(country, NOT mexico AND germany)")
	f.Add("(country, a (b c) OR NOT NOT (d e))")
	f.Fuzz(func(t *testing.T, s string) {
		q, err := Parse(s)
		if err != nil {
			return
		}
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendering %q of accepted query %q does not reparse: %v", rendered, s, err)
		}
		if !reflect.DeepEqual(q2, q) {
			t.Fatalf("rendering %q of %q reparses to a different query:\n got %#v\nwant %#v", rendered, s, q2, q)
		}
	})
}

package index

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"seda/internal/store"
)

// widePrefixFixture builds a corpus whose vocabulary contains many terms
// sharing the prefix "item" ("itemaa0" … ), each with postings in several
// documents — the worst case for prefix lookups, which must merge one
// sorted posting list per matching term.
func widePrefixFixture(tb testing.TB, terms, docs int) *store.Collection {
	tb.Helper()
	col := store.NewCollection()
	for d := 0; d < docs; d++ {
		var sb strings.Builder
		sb.WriteString("<doc>")
		for t := 0; t < terms; t++ {
			// Every 3rd term skips every 2nd doc so the lists have
			// different lengths and interleave.
			if t%3 == 0 && d%2 == 1 {
				continue
			}
			fmt.Fprintf(&sb, "<f>item%c%c%d filler</f>", 'a'+t%26, 'a'+(t/26)%26, t)
		}
		sb.WriteString("</doc>")
		if _, err := col.AddXML(fmt.Sprintf("d%d.xml", d), []byte(sb.String())); err != nil {
			tb.Fatal(err)
		}
	}
	return col
}

// lookupPrefixNaive is the append-then-re-sort baseline for
// lookupPrefixShard: append every matching term's postings in shard s and
// re-sort the whole concatenation via normalizePostings.
func lookupPrefixNaive(tb testing.TB, ix *Index, s int, prefix string) []Posting {
	tb.Helper()
	sh := ix.shards[s]
	var merged []Posting
	for _, term := range sh.terms {
		if !strings.HasPrefix(term, prefix) {
			continue
		}
		ps, err := sh.postings(term)
		if err != nil {
			tb.Fatalf("postings(%q): %v", term, err)
		}
		for _, p := range ix.livePostings(s, ps) {
			// normalizePostings merges positions in place: copy them off
			// the index's storage first.
			p.Positions = slices.Clone(p.Positions)
			merged = append(merged, p)
		}
	}
	return normalizePostings(merged)
}

// mustLookupPrefixShard unwraps lookupPrefixShard.
func mustLookupPrefixShard(tb testing.TB, ix *Index, s int, prefix string) []Posting {
	tb.Helper()
	ps, err := ix.lookupPrefixShard(s, prefix)
	if err != nil {
		tb.Fatalf("lookupPrefixShard(%d, %q): %v", s, prefix, err)
	}
	return ps
}

// TestLookupPrefixMatchesNaive pins lookupPrefixShard's k-way merge to the
// naive append-then-re-sort semantics on the wide fixture, in every shard.
func TestLookupPrefixMatchesNaive(t *testing.T) {
	col := widePrefixFixture(t, 120, 16)
	for _, shards := range []int{1, 4} {
		ix := BuildSharded(col, shards, 1)
		for s := range ix.shards {
			for _, prefix := range []string{"item", "itema", "itemz", "filler", "nope"} {
				got := mustLookupPrefixShard(t, ix, s, prefix)
				want := lookupPrefixNaive(t, ix, s, prefix)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d shard %d prefix %q: merge diverges from naive (%d vs %d postings)",
						shards, s, prefix, len(got), len(want))
				}
			}
		}
	}
}

// BenchmarkLookupPrefixWide measures lookupPrefixShard's k-way merge on a
// wide prefix (hundreds of matching terms), the path a prefix probe of a
// query runs. Compare against BenchmarkLookupPrefixWideNaive, the
// append-then-re-sort baseline.
func BenchmarkLookupPrefixWide(b *testing.B) {
	col := widePrefixFixture(b, 400, 32)
	ix := Build(col)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ps := mustLookupPrefixShard(b, ix, 0, "item"); len(ps) == 0 {
			b.Fatal("no postings")
		}
	}
}

func BenchmarkLookupPrefixWideNaive(b *testing.B) {
	col := widePrefixFixture(b, 400, 32)
	ix := Build(col)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ps := lookupPrefixNaive(b, ix, 0, "item"); len(ps) == 0 {
			b.Fatal("no postings")
		}
	}
}

package index

import (
	"fmt"
	"reflect"
	"testing"

	"seda/internal/query"
	"seda/internal/store"
)

// Phrase-search edge cases: repeated terms inside one phrase, candidate
// start positions that overlap, and phrases whose later terms are absent
// from one shard of a sharded index. Each case is checked on the full term
// evaluation (MatchTerm), which anchors a phrase on the SLCA of its words
// and verifies it against content(n), so it also catches
// element-boundary-spanning phrases.

func phraseFixture(t *testing.T, docs ...string) *store.Collection {
	t.Helper()
	col := store.NewCollection()
	for i, d := range docs {
		if _, err := col.AddXML(fmt.Sprintf("d%d.xml", i), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	return col
}

func mustPhraseTerm(t *testing.T, phrase string) query.Term {
	t.Helper()
	q, err := query.Parse(fmt.Sprintf(`(*, "%s")`, phrase))
	if err != nil {
		t.Fatal(err)
	}
	return q.Terms[0]
}

// phraseDocs returns the documents holding a match of the phrase, in order.
func phraseDocs(t *testing.T, ix *Index, phrase string) []int {
	t.Helper()
	ms, err := ix.MatchTerm(mustPhraseTerm(t, phrase))
	if err != nil {
		t.Fatal(err)
	}
	var docs []int
	for _, m := range ms {
		docs = append(docs, int(m.Ref.Doc))
	}
	return docs
}

// TestPhraseRepeatedTerm: a phrase that uses the same word twice ("a b a")
// must match only where the word really occurs at both offsets.
func TestPhraseRepeatedTerm(t *testing.T) {
	col := phraseFixture(t,
		`<r><x>alpha beta alpha rest</x></r>`, // matches at 0
		`<r><x>alpha beta gamma</x></r>`,      // "a b" alone must not match
		`<r><x>beta alpha beta alpha</x></r>`, // a b a starting at position 1
	)
	ix := Build(col)
	if got := phraseDocs(t, ix, "alpha beta alpha"); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("alpha beta alpha matches docs %v, want [0 2]", got)
	}
}

// TestPhraseOverlappingStarts: when the leading word repeats back to back,
// candidate start offsets overlap and only the ones where every later
// word lines up may match.
func TestPhraseOverlappingStarts(t *testing.T) {
	col := phraseFixture(t,
		`<r><x>alpha alpha beta</x></r>`,       // "alpha beta" starts at 1 only
		`<r><x>alpha alpha alpha beta</x></r>`, // "alpha alpha beta" starts at 1 only
		`<r><x>alpha alpha gamma beta</x></r>`, // no start lines up
		`<r><x>beta alpha alpha</x></r>`,       // the words, out of order
	)
	ix := Build(col)
	for _, tc := range []struct {
		phrase string
		want   []int
	}{
		{"alpha beta", []int{0, 1}},
		// doc0 is exactly the phrase (start 0); in doc1 only start 1
		// survives (start 0 fails because position 2 holds alpha, not
		// beta).
		{"alpha alpha beta", []int{0, 1}},
		{"alpha alpha", []int{0, 1, 2, 3}},
	} {
		if got := phraseDocs(t, ix, tc.phrase); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q matches docs %v, want %v", tc.phrase, got, tc.want)
		}
	}
}

// TestPhraseTermAbsentFromShard: in a sharded index, a phrase whose later
// term has no postings at all in one shard must match nothing there (not
// panic, not leak candidates) while other shards still match.
func TestPhraseTermAbsentFromShard(t *testing.T) {
	col := phraseFixture(t,
		`<r><x>united states border</x></r>`, // shard 0: full phrase
		`<r><x>united nations</x></r>`,       // shard 1: "states" absent entirely
	)
	var answers [][]Match
	for _, shards := range []int{1, 2} {
		ix := BuildSharded(col, shards, 1)
		if got := ix.NumShards(); got != shards {
			t.Fatalf("NumShards = %d, want %d", got, shards)
		}
		ms, err := ix.MatchTerm(mustPhraseTerm(t, "united states"))
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 1 || ms[0].Ref.Doc != 0 {
			t.Errorf("shards=%d: matches = %+v, want doc0 only", shards, ms)
		}
		if shards == 2 {
			if ms, err := ix.MatchTermShard(mustPhraseTerm(t, "united states"), 1); err != nil || len(ms) != 0 {
				t.Errorf("shard without the later term: matches = %+v, %v; want none", ms, err)
			}
		}
		answers = append(answers, ms)
	}
	// And the sharded answers equal the single-shard ones byte for byte.
	if !reflect.DeepEqual(answers[0], answers[1]) {
		t.Error("MatchTerm diverges between 1 and 2 shards")
	}
}

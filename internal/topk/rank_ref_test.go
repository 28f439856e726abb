package topk

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"seda/internal/graph"
	"seda/internal/index"
	"seda/internal/pathdict"
	"seda/internal/query"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// refRank is the document-at-a-time rank as it was first written, kept as
// the oracle for the run-merged one: it groups every match into a map of
// per-(document, term) slices, sorts each, walks every graph edge for pair
// units and scores every enumerated tuple. It scans sequentially.
func refRank(s *Searcher, matches [][]index.Match, opts Options) ([]Result, Stats) {
	type docEntry struct{ perTerm [][]index.Match }
	type unit struct {
		entries []*docEntry
		ids     []xmldoc.DocID
		bound   float64
	}
	m := len(matches)
	docs := make(map[xmldoc.DocID]*docEntry)
	for i, ms := range matches {
		for _, match := range ms {
			e, ok := docs[match.Ref.Doc]
			if !ok {
				e = &docEntry{perTerm: make([][]index.Match, m)}
				docs[match.Ref.Doc] = e
			}
			e.perTerm[i] = append(e.perTerm[i], match)
		}
	}
	for _, e := range docs {
		for i := range e.perTerm {
			lst := e.perTerm[i]
			sort.Slice(lst, func(a, b int) bool { return lst[a].Score > lst[b].Score })
			if len(lst) > opts.PerDocPerTerm {
				e.perTerm[i] = lst[:opts.PerDocPerTerm]
			}
		}
	}
	var units []unit
	for id, e := range docs {
		full, b := true, 0.0
		for i := range e.perTerm {
			if len(e.perTerm[i]) == 0 {
				full = false
				break
			}
			b += e.perTerm[i][0].Score
		}
		if full {
			units = append(units, unit{entries: []*docEntry{e}, ids: []xmldoc.DocID{id}, bound: b})
		}
	}
	if !opts.DisableCrossDoc {
		seen := make(map[[2]xmldoc.DocID]bool)
		for _, e := range s.g.Edges() {
			a, b := e.From.Doc, e.To.Doc
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if seen[[2]xmldoc.DocID{a, b}] {
				continue
			}
			seen[[2]xmldoc.DocID{a, b}] = true
			ea, okA := docs[a]
			eb, okB := docs[b]
			if !okA || !okB {
				continue
			}
			bound, full := 0.0, true
			for i := 0; i < m; i++ {
				best := 0.0
				if len(ea.perTerm[i]) > 0 {
					best = ea.perTerm[i][0].Score
				}
				if len(eb.perTerm[i]) > 0 && eb.perTerm[i][0].Score > best {
					best = eb.perTerm[i][0].Score
				}
				if len(ea.perTerm[i]) == 0 && len(eb.perTerm[i]) == 0 {
					full = false
					break
				}
				bound += best
			}
			if full {
				units = append(units, unit{entries: []*docEntry{ea, eb}, ids: []xmldoc.DocID{a, b}, bound: bound})
			}
		}
	}
	sort.Slice(units, func(i, j int) bool {
		if units[i].bound != units[j].bound {
			return units[i].bound > units[j].bound
		}
		return slices.Compare(units[i].ids, units[j].ids) < 0
	})

	score := func(tuple []index.Match) (Result, bool) {
		refs := make([]xmldoc.NodeRef, len(tuple))
		paths := make([]pathdict.PathID, len(tuple))
		content := 0.0
		for i, mt := range tuple {
			refs[i], paths[i] = mt.Ref, mt.Path
			content += mt.Score
		}
		w, ok := s.g.SteinerWeight(refs, opts.MaxLinkHops)
		if !ok {
			return Result{}, false
		}
		c := graph.Compactness(w)
		return Result{Nodes: refs, Paths: paths, Score: content * c, ContentScore: content, Compactness: c}, true
	}
	stats := Stats{UnitsCandidates: len(units)}
	final := newTopHeap(opts.K)
	for pos := 0; pos < len(units); {
		if t, ok := final.kth(); ok && t >= units[pos].bound {
			stats.EarlyTerminated = true
			break
		}
		end := min(max(2*pos, 1), len(units))
		for _, u := range units[pos:end] {
			stats.UnitsScanned++
			options := make([][]index.Match, m)
			for i := range options {
				for _, e := range u.entries {
					options[i] = append(options[i], e.perTerm[i]...)
				}
			}
			tuple := make([]index.Match, m)
			var rec func(i int)
			rec = func(i int) {
				if i == m {
					if len(u.entries) == 2 && singleDoc(tuple) {
						return
					}
					if r, ok := score(tuple); ok {
						stats.TuplesScored++
						final.offer(r)
					}
					return
				}
				for _, mt := range options[i] {
					tuple[i] = mt
					rec(i + 1)
				}
			}
			rec(0)
		}
		stats.Waves++
		pos = end
	}
	return final.sorted(), stats
}

// randomLinkedCorpus builds docs documents of country-like items whose
// percentages repeat (so scores tie). A quarter hold runs long enough to
// overflow every beam; another quarter link to a random document by IDREF
// (the long ones stay unlinked, which keeps the oracle's unpruned pair
// enumeration small).
func randomLinkedCorpus(r *rand.Rand, docs int) (*store.Collection, []string) {
	col := store.NewCollection()
	words := []string{"red", "green", "blue", "gold"}
	var short []int // the documents a link may point at
	for d := 0; d < docs; d++ {
		items := r.Intn(14)
		var sb strings.Builder
		fmt.Fprintf(&sb, `<c id="c%d"`, d)
		switch r.Intn(4) {
		case 0:
			items += 30 // past pdqsort's insertion-sort cut-off
		case 1:
			if len(short) > 0 {
				fmt.Fprintf(&sb, ` ref="c%d"`, short[r.Intn(len(short))])
			}
			fallthrough
		default:
			short = append(short, d)
		}
		sb.WriteString(">")
		fmt.Fprintf(&sb, "<name>%s %s</name>", words[r.Intn(len(words))], words[r.Intn(len(words))])
		for j := items; j > 0; j-- {
			fmt.Fprintf(&sb, "<item><tc>%s</tc><pc>%d</pc></item>", words[r.Intn(len(words))], r.Intn(3))
		}
		sb.WriteString("</c>")
		if _, err := col.AddXML(fmt.Sprintf("d%d", d), []byte(sb.String())); err != nil {
			panic(err)
		}
	}
	return col, []string{
		`(*, red) AND (tc, *) AND (pc, *)`,
		`(tc, *) AND (pc, *)`,
		`(name, gold) AND (tc, green)`,
		`(*, blue) AND (*, red)`,
		`(pc, *)`,
	}
}

// TestRankMatchesReference pins the run-merged rank to the original one:
// the same top-k, byte for byte and ties included, and the same TA scan
// (candidates, scanned units, waves, early stop) at every beam, K,
// parallelism and shard count, with and without cross-document pairs.
// Only TuplesScored may fall, because pruned tuples are never scored.
func TestRankMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		col, queries := randomLinkedCorpus(r, 8+r.Intn(24))
		g := graph.New(col)
		g.DiscoverLinks(graph.DiscoverOptions{IDRefAttrs: []string{"ref"}})
		for _, shards := range []int{1, 3} {
			s := New(index.BuildSharded(col, shards, 1), g)
			for _, qs := range queries {
				q := query.MustParse(qs)
				for _, opts := range []Options{
					{K: 1, PerDocPerTerm: 2},
					{K: 5, PerDocPerTerm: 3},
					{K: 10},
					{K: 40, PerDocPerTerm: 5},
					{K: 7, DisableCrossDoc: true},
				} {
					opts.defaults()
					matches, err := s.fetchMatches(q, 1)
					if err != nil {
						t.Fatal(err)
					}
					want, wantSt := refRank(s, matches, opts)
					for _, par := range []int{1, 4} {
						o := opts
						o.Parallelism = par
						got, st, err := s.SearchStats(q, o)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d shards %d %s %+v par %d:\n got %v\nwant %v", seed, shards, qs, opts, par, got, want)
						}
						if st.TuplesScored > wantSt.TuplesScored {
							t.Errorf("seed %d %s: scored %d tuples, reference %d", seed, qs, st.TuplesScored, wantSt.TuplesScored)
						}
						st.TuplesScored = wantSt.TuplesScored
						if st != wantSt {
							t.Errorf("seed %d shards %d %s %+v par %d: stats %+v, reference %+v", seed, shards, qs, opts, par, st, wantSt)
						}
					}
				}
			}
		}
	}
}

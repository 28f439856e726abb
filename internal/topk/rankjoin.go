package topk

import (
	"fmt"
	"sort"

	"seda/internal/index"
	"seda/internal/query"
	"seda/internal/xmldoc"
)

// SearchRankJoin is an alternative top-k strategy in the classic threshold-
// algorithm style (Fagin's TA adapted to joins — the hash rank join of
// Ilyas et al.): per-term match streams are consumed in descending content-
// score order (sorted access); each newly seen match joins against the
// already-seen matches of the other terms within the same document; the
// scan stops when the k-th materialized score reaches the TA threshold
//
//	T = max_i ( frontier_i + Σ_{j≠i} top_j ) × maxCompactness(=1)
//
// the best score any tuple containing an unseen match could still achieve.
//
// The paper's §4 makes exactly this pluggability point: "we can use any
// top-k search algorithm that works on data graphs". This strategy
// considers same-document tuples only (it is the baseline the benchmarks
// compare the document-at-a-time engine against); use Search for
// link-spanning tuples.
func (s *Searcher) SearchRankJoin(q query.Query, opts Options) ([]Result, Stats, error) {
	opts.defaults()
	if len(q.Terms) == 0 {
		return nil, Stats{}, fmt.Errorf("topk: empty query")
	}
	m := len(q.Terms)
	streams := make([][]index.Match, m)
	for i, t := range q.Terms {
		ms, err := s.ix.MatchTerm(t)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("topk: term %d: %w", i, err)
		}
		sorted := make([]index.Match, len(ms))
		copy(sorted, ms)
		sort.Slice(sorted, func(a, b int) bool {
			if sorted[a].Score != sorted[b].Score {
				return sorted[a].Score > sorted[b].Score
			}
			return sorted[a].Ref.Less(sorted[b].Ref)
		})
		streams[i] = sorted
	}

	// seen[i][doc] = matches of term i consumed so far, by document.
	seen := make([]map[xmldoc.DocID][]index.Match, m)
	for i := range seen {
		seen[i] = make(map[xmldoc.DocID][]index.Match)
	}
	pos := make([]int, m)
	top := make([]float64, m) // top (first) score per stream
	for i, st := range streams {
		if len(st) == 0 {
			return nil, Stats{}, nil // a term with no matches kills every tuple
		}
		top[i] = st[0].Score
	}

	results := newTopHeap(opts.K)
	sc := newScanner(s, &docGroups{matches: streams}, &opts, results)
	stats := Stats{UnitsCandidates: totalLen(streams)}
	kth := func() float64 {
		t, ok := results.kth()
		if !ok {
			return -1
		}
		return t
	}
	threshold := func() float64 {
		best := -1.0
		for i := range streams {
			if pos[i] >= len(streams[i]) {
				continue
			}
			t := streams[i][pos[i]].Score
			for j := range streams {
				if j != i {
					t += top[j]
				}
			}
			if t > best {
				best = t
			}
		}
		return best
	}

	for {
		// Pick the stream whose frontier is highest (a common HRJN pull
		// strategy); round-robin would also be correct.
		pick := -1
		bestScore := -1.0
		for i := range streams {
			if pos[i] < len(streams[i]) && streams[i][pos[i]].Score > bestScore {
				pick, bestScore = i, streams[i][pos[i]].Score
			}
		}
		if pick < 0 {
			break // all streams exhausted
		}
		if t := kth(); t >= 0 && t >= threshold() {
			break // TA stop condition
		}
		mt := streams[pick][pos[pick]]
		pos[pick]++
		stats.UnitsScanned++

		// Join the new match against seen matches of every other term in
		// the same document.
		tuple := make([]index.Match, m)
		tuple[pick] = mt
		var rec func(term int)
		rec = func(term int) {
			if term == m {
				if sc.score(tuple) {
					stats.TuplesScored++
					results.push(sc.cand)
				}
				return
			}
			if term == pick {
				rec(term + 1)
				return
			}
			for _, other := range seen[term][mt.Ref.Doc] {
				tuple[term] = other
				rec(term + 1)
			}
		}
		rec(0)
		seen[pick][mt.Ref.Doc] = append(seen[pick][mt.Ref.Doc], mt)
	}
	return results.sorted(), stats, nil
}

func totalLen(streams [][]index.Match) int {
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	return n
}

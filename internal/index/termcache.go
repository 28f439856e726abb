package index

import (
	"sync/atomic"
	"unsafe"

	"seda/internal/obs"
	"seda/internal/query"
	"seda/internal/xmldoc"
)

// termCacheBudget bounds the bytes one index generation's term cache
// holds. It is a constant rather than a knob: the cache lives and dies
// with its generation, and 4 MiB covers the working set of the Figure-6
// loop's repeated terms with room to spare.
const termCacheBudget = 4 << 20

// termEntryOverhead approximates what a cached term costs besides its
// matches: the entry, its ready channel and its map slot. Charging it
// keeps terms with no match in a shard from filling the cache for free.
const termEntryOverhead = 256

// termCache remembers MatchTermShard's answers on one index. A term's
// matches never change on a generation, and every generation is a new
// Index with a new cache, so an entry is never invalidated: it is evicted
// by the budget or collected with its generation.
type termCache struct {
	lru          *byteLRU[termKey, []Match]
	hits, misses atomic.Uint64

	// metrics, when set, mirrors hits and misses into the shared obs
	// families; derived generations inherit it (SetTermCacheMetrics).
	metrics atomic.Pointer[TermCacheMetrics]
}

// termKey names one term's answer on one shard. term is the term's
// canonical rendering (query.Term.String).
type termKey struct {
	term  string
	shard int
}

func newTermCache(budget int64) *termCache {
	return &termCache{lru: newByteLRU[termKey, []Match](budget, nil)}
}

// match returns ix's answer for term t on shard s, evaluating it only
// when no answer is cached or in flight.
func (c *termCache) match(ix *Index, t query.Term, s int) ([]Match, error) {
	key := termKey{t.String(), s}
	ms, g, err := c.lru.get(key, func() ([]Match, int64, error) {
		ms, err := ix.evalTermShard(t, s)
		if err != nil {
			return nil, 0, err
		}
		ms = ownMatches(ms)
		return ms, matchesCost(ms) + termEntryOverhead + int64(len(key.term)), nil
	})
	if err != nil {
		return nil, err
	}
	if g.hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	if m := c.metrics.Load(); m != nil {
		if g.hit {
			m.Hits.Inc()
		} else {
			m.Misses.Inc()
		}
	}
	return ms, nil
}

// ownMatches readies a freshly evaluated answer for the cache: its Dewey
// ids move into one slab of their own, so the entry keeps alive neither a
// decoded run the pager may evict nor the decoded shard state a save
// drops, and the list loses any spare capacity. ms must be the
// evaluation's own storage; nil and empty answers keep their form.
func ownMatches(ms []Match) []Match {
	if len(ms) == 0 {
		if ms == nil {
			return nil
		}
		return []Match{}
	}
	if cap(ms) != len(ms) {
		ms = append(make([]Match, 0, len(ms)), ms...)
	}
	xmldoc.OwnDeweys(func(yield func(*xmldoc.NodeRef) bool) {
		for i := range ms {
			if !yield(&ms[i].Ref) {
				return
			}
		}
	})
	return ms
}

// matchesCost is an owned answer's heap footprint: its matches and their
// Dewey slab.
func matchesCost(ms []Match) int64 {
	n := int64(unsafe.Sizeof(Match{})) * int64(len(ms))
	for i := range ms {
		n += 4 * int64(len(ms[i].Ref.Dewey))
	}
	return n
}

// TermCacheStats is a point-in-time snapshot of one index generation's
// term cache for /debug/stats.
type TermCacheStats struct {
	Budget int64
	// Bytes is the charged footprint of the cached answers.
	Bytes int64
	// Entries is the number of cached (term, shard) answers.
	Entries int
	// Hits counts MatchTermShard calls answered without evaluating the
	// term (including calls that waited for a concurrent evaluation);
	// Misses counts evaluations. A call that fails counts in neither.
	Hits, Misses uint64
}

// TermCacheStats snapshots the index's term cache.
func (ix *Index) TermCacheStats() TermCacheStats {
	st := TermCacheStats{Budget: ix.cache.lru.budget, Hits: ix.cache.hits.Load(), Misses: ix.cache.misses.Load()}
	st.Bytes, st.Entries = ix.cache.lru.stats()
	return st
}

// TermCacheMetrics holds the obs handles for the term cache. One set is
// shared by every generation a process serves, so the counters stay
// monotonic across generation swaps. A nil *TermCacheMetrics disables
// instrumentation at zero cost.
//
//seda:nilgated
type TermCacheMetrics struct {
	Hits   *obs.Counter
	Misses *obs.Counter
}

// NewTermCacheMetrics registers the term-cache families on reg.
func NewTermCacheMetrics(reg *obs.Registry) *TermCacheMetrics {
	return &TermCacheMetrics{
		Hits: reg.NewCounter("seda_term_cache_hits_total",
			"Per-shard term matches served from the generation's term cache, without evaluating the term."),
		Misses: reg.NewCounter("seda_term_cache_misses_total",
			"Per-shard term matches evaluated on a term-cache miss."),
	}
}

// SetTermCacheMetrics installs the shared metrics handles (nil allowed).
func (ix *Index) SetTermCacheMetrics(m *TermCacheMetrics) { ix.cache.metrics.Store(m) }

// TermCacheMetrics returns the installed metrics handles, so a derived
// generation can inherit them.
func (ix *Index) TermCacheMetrics() *TermCacheMetrics { return ix.cache.metrics.Load() }

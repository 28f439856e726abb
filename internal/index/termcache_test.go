package index

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"seda/internal/query"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// cacheFixture is a random corpus over the oracle's tags and vocabulary,
// indexed in three shards with every third document masked, and every
// term of the oracle's query space that query.NewTerm accepts.
func cacheFixture(t *testing.T) (*Index, []query.Term) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	c := store.NewCollection()
	for i := 0; i < 24; i++ {
		c.AddDocument(xmldoc.Build(fmt.Sprintf("d%d", i), randDoc(r, oracleTags, oracleVocab, 0), c.Dict()))
	}
	ix := maskEveryThird(t, BuildSharded(c, 3, 1))
	var terms []query.Term
	for _, ctx := range oracleContexts {
		for _, search := range oracleSearches {
			if term, err := query.NewTerm(ctx, search); err == nil {
				terms = append(terms, term)
			}
		}
	}
	return ix, terms
}

// TestTermCacheConcurrent runs 8 goroutines over overlapping and disjoint
// terms on a 3-shard masked index whose term cache is a few KiB, so
// entries are evicted and re-evaluated while others are read. Every
// answer must equal the uncached evaluation (run under -race in CI).
func TestTermCacheConcurrent(t *testing.T) {
	ix, terms := cacheFixture(t)
	ix.cache = newTermCache(4 << 10)
	want := make([][][]Match, len(terms)) // [term][shard]
	for i, term := range terms {
		want[i] = make([][]Match, ix.NumShards())
		for s := range want[i] {
			ms, err := ix.evalTermShard(term, s)
			if err != nil {
				t.Fatal(err)
			}
			want[i][s] = ms
		}
	}
	const workers, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < rounds; round++ {
				// The first half of the terms is shared by every worker, in
				// a worker-specific order; the rest is split between them.
				order := r.Perm(len(terms))
				for _, i := range order {
					if i >= len(terms)/2 && i%workers != w {
						continue
					}
					for s := 0; s < ix.NumShards(); s++ {
						got, err := ix.MatchTermShard(terms[i], s)
						if err != nil {
							errs <- err
							return
						}
						if !reflect.DeepEqual(got, want[i][s]) {
							errs <- fmt.Errorf("worker %d: %s on shard %d: cached answer differs from the evaluation", w, terms[i], s)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := ix.TermCacheStats()
	if st.Hits == 0 || st.Misses <= uint64(len(terms)*ix.NumShards()) {
		t.Errorf("stats %+v: want hits, and more misses than the %d distinct (term, shard) keys (evictions)", st, len(terms)*ix.NumShards())
	}
	if st.Bytes > st.Budget && st.Entries > 1 {
		t.Errorf("stats %+v: over budget with more than the newest entry resident", st)
	}
}

// TestTermCacheKeysGroupedNegation: NOT (x AND y) and NOT x AND y are
// different terms whose renderings once coincided, so whichever came
// second on a generation got the first one's cached answer. In either
// order, each must get its own evaluation's answer.
func TestTermCacheKeysGroupedNegation(t *testing.T) {
	grouped := mustTerm(t, "b", "NOT (red AND green)")
	ungrouped := mustTerm(t, "b", "NOT red AND green")
	if grouped.String() == ungrouped.String() {
		t.Errorf("both terms render as %s", grouped)
	}
	for _, order := range [][]query.Term{{grouped, ungrouped}, {ungrouped, grouped}} {
		ix, _ := cacheFixture(t)
		differ := false
		for s := 0; s < ix.NumShards(); s++ {
			var want [2][]Match
			for i, term := range order {
				var err error
				if want[i], err = ix.evalTermShard(term, s); err != nil {
					t.Fatal(err)
				}
				got, err := ix.MatchTermShard(term, s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s on shard %d after %s: cached answer differs from the evaluation", term, s, order[0])
				}
			}
			differ = differ || !reflect.DeepEqual(want[0], want[1])
		}
		if !differ {
			t.Fatal("the fixture gives both terms the same answer; the test shows nothing")
		}
	}
}

// TestTermCacheEntryOwnsStorage: a cached answer's Dewey ids live in the
// entry's own slab, not in the shard's posting or node-list storage, and
// the entry is charged its footprint: Sizeof(Match)·n + 4·Σlen(Dewey),
// plus the fixed per-entry overhead and the key.
func TestTermCacheEntryOwnsStorage(t *testing.T) {
	ix := BuildSharded(tradeFixture(t, 20), 1, 1)
	term := mustTerm(t, "trade_country", "*")
	ms, err := ix.MatchTermShard(term, 0)
	if err != nil {
		t.Fatal(err)
	}
	refs := mustDecoded(t, ix.shards[0]).pathNodes[ms[0].Path]
	if &ms[0].Ref.Dewey[0] == &refs[0].Dewey[0] {
		t.Error("cached match aliases the shard's node list")
	}
	deweys := 0
	for i, m := range ms {
		deweys += len(m.Ref.Dewey)
		if cap(m.Ref.Dewey) != len(m.Ref.Dewey) {
			t.Fatalf("match %d: Dewey id not capacity-capped", i)
		}
		if i > 0 {
			prev := ms[i-1].Ref.Dewey
			if uintptr(unsafe.Pointer(&m.Ref.Dewey[0])) != uintptr(unsafe.Pointer(&prev[0]))+4*uintptr(len(prev)) {
				t.Fatalf("match %d: Dewey id not next to its predecessor's in one slab", i)
			}
		}
	}
	again, err := ix.MatchTermShard(term, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &ms[0] {
		t.Error("second fetch did not return the cached list")
	}
	st := ix.TermCacheStats()
	wantBytes := matchesCost(ms) + termEntryOverhead + int64(len(term.String()))
	if st.Entries != 1 || st.Bytes != wantBytes || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats %+v, want 1 entry of %d bytes, 1 hit, 1 miss", st, wantBytes)
	}
	if got, want := matchesCost(ms), int64(unsafe.Sizeof(Match{}))*int64(len(ms))+4*int64(deweys); got != want {
		t.Errorf("cost %d, want Sizeof(Match)·%d + 4·%d = %d", got, len(ms), deweys, want)
	}
}

// TestTermCacheErrorsNotCached: a failed evaluation caches nothing, so
// the next fetch of the term evaluates (and fails) again; failed fetches
// count as neither hits nor misses.
func TestTermCacheErrorsNotCached(t *testing.T) {
	ix := BuildSharded(tradeFixture(t, 3), 1, 1)
	// A term with neither a positive search word nor a context; NewTerm
	// rejects it, so it is assembled by hand.
	bad := query.Term{Search: mustTerm(t, "a", "NOT x").Search}
	for i := 0; i < 2; i++ {
		if _, err := ix.MatchTermShard(bad, 0); err == nil {
			t.Fatalf("fetch %d: want an error", i)
		}
	}
	if st := ix.TermCacheStats(); st.Entries != 0 || st.Misses != 0 || st.Hits != 0 {
		t.Errorf("stats %+v after two failed fetches, want 0 entries and neither hits nor misses", st)
	}
}

// TestByteLRUSingleflight: gets of one key that arrive while its first
// get computes it wait for that computation instead of running their own,
// and a failed computation is retried by the next get. A waiter on a
// failed computation gets its error and is no hit.
func TestByteLRUSingleflight(t *testing.T) {
	c := newByteLRU[string, int](100, nil)
	release := make(chan struct{})
	calls := 0
	var wg sync.WaitGroup
	first := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, g, err := c.get("k", func() (int, int64, error) {
			calls++
			close(first)
			<-release
			return 7, 1, nil
		})
		if v != 7 || g.hit || err != nil {
			t.Errorf("first get = %d, %+v, %v", v, g, err)
		}
	}()
	<-first
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, g, err := c.get("k", func() (int, int64, error) { t.Error("waiter computed"); return 0, 0, nil })
			if v != 7 || !g.hit || err != nil {
				t.Errorf("waiter get = %d, %+v, %v", v, g, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Errorf("%d computations, want 1", calls)
	}

	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, g, err := c.get("e", func() (int, int64, error) { return 0, 0, boom }); err != boom || g.hit {
			t.Errorf("failing get %d = %+v, %v", i, g, err)
		}
	}
	if used, n := c.stats(); used != 1 || n != 1 {
		t.Errorf("stats = %d bytes, %d entries, want the one good entry", used, n)
	}

	failing, waiting := make(chan struct{}), make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.get("w", func() (int, int64, error) {
			close(failing)
			<-waiting
			return 0, 0, boom
		})
	}()
	<-failing
	go func() {
		defer wg.Done()
		// A get that comes too late to wait retries the computation and
		// fails the same way, so the outcome it checks is the same.
		_, g, err := c.get("w", func() (int, int64, error) { return 0, 0, boom })
		if err != boom || g.hit {
			t.Errorf("waiter on a failed computation = %+v, %v; want the error and no hit", g, err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park on the pending entry
	close(waiting)
	wg.Wait()
}

// TestMatchAllEvalAllocsPinned keeps the uncached match-all path's pin:
// evaluating a (tag, *) term on an unmasked single-shard index allocates
// only its output slice, at every corpus size. (TestMatchAllAllocsPinned
// now measures the cached path.)
func TestMatchAllEvalAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation perturbs allocation counts")
	}
	term := mustTerm(t, "trade_country", "*")
	for _, docs := range []int{20, 400} {
		ix := BuildSharded(tradeFixture(t, docs), 1, 1)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := ix.evalTermShard(term, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%d docs: %v allocs per evaluation, want 1", docs, allocs)
		}
	}
}

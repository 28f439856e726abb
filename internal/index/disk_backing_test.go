package index

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"

	"seda/internal/fulltext"
	"seda/internal/pathdict"
	"seda/internal/query"
	"seda/internal/snapcodec"
	"seda/internal/xmldoc"
)

// Disk-backed residency, white-box: a shard bound to its encoded section
// in a file under a pager drops its decoded state and is served run by
// run — one CRC-verified read and one decode per cold run, no matter how
// many goroutines race for it — and classifies a hostile backstore as an
// error confined to the runs it corrupts: never a panic, never a silently
// wrong answer.

// bindFixture builds the single-shard fixture, writes its encoded payload
// to a file, and binds the shard to it under a 1-byte budget.
func bindFixture(t *testing.T) (ix *Index, p *Pager, path string, payload []byte) {
	t.Helper()
	_, ix = buildFixture(t)
	if ix.NumShards() != 1 {
		t.Fatalf("fixture has %d shards, want 1", ix.NumShards())
	}
	payload = encodeShardBytes(t, ix, 0)
	ref, path := backedRef(t, payload)
	p = NewPager(1)
	ix.AttachPager(p)
	if err := ix.BindBacking(0, ref); err != nil {
		t.Fatal(err)
	}
	return ix, p, path, payload
}

// termRun returns the byte range of term's run within the shard's whole
// payload (which backedRef stores at file offset 0).
func termRun(t *testing.T, sh *Shard, payload []byte, term string) (lo, hi int) {
	t.Helper()
	i := sort.SearchStrings(sh.terms, term)
	if i == len(sh.terms) || sh.terms[i] != term {
		t.Fatalf("term %q not in the shard's vocabulary", term)
	}
	rt := sh.runs.Load()
	base := len(payload) - int(rt.lazyLen())
	return base + int(rt.off[i]), base + int(rt.off[i+1])
}

func TestDiskBackingLifecycle(t *testing.T) {
	_, ix := buildFixture(t)
	payload := encodeShardBytes(t, ix, 0)
	ref, _ := backedRef(t, payload)
	p := NewPager(1)
	ix.AttachPager(p)
	sh := ix.shards[0]
	want := mustDecoded(t, sh)

	// An unbound shard has nowhere to read runs from: it keeps its whole
	// decoded state, outside the pager.
	if st := p.Stats(); st.Resident != 0 || st.Evictions != 0 || sh.data.Load() == nil {
		t.Fatalf("unbound shard: %+v, resident state %v; want it untouched", st, sh.data.Load() != nil)
	}
	// Binding under a pager drops the whole state, counted as one
	// eviction, and leaves nothing resident.
	if err := ix.BindBacking(0, ref); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Evictions != 1 || st.Resident != 0 || sh.data.Load() != nil {
		t.Fatalf("bound shard: %+v, resident state %v; want 1 eviction and no state", st, sh.data.Load() != nil)
	}

	// A lookup reads, verifies and decodes exactly its own run, charged
	// at its decoded footprint; a second lookup is a hit.
	got := termPostings(t, ix, "united")
	if st := p.Stats(); st.PageIns != 1 || st.DiskReads != 1 || st.Resident != 1 || st.ResidentBytes != runCost(got, nil) {
		t.Fatalf("after one lookup: %+v, want 1 page-in, 1 disk read, 1 run of %d bytes", st, runCost(got, nil))
	}
	termPostings(t, ix, "united")
	if st := p.Stats(); st.DiskReads != 1 {
		t.Fatalf("a resident run was read again: DiskReads = %d", st.DiskReads)
	}

	// Every run decodes back to the built state, and the 1-byte budget
	// keeps one run resident throughout.
	if got := mustDecoded(t, sh); !reflect.DeepEqual(got, want) {
		t.Fatal("runs decoded from disk differ from the built shard")
	}
	runs := len(sh.terms) + len(sh.pathIDs)
	if st := p.Stats(); st.Resident != 1 || st.Evictions < uint64(runs-1) {
		t.Fatalf("after reading %d runs at a 1-byte budget: %+v, want 1 resident and >= %d evictions", runs, st, runs-1)
	}

	// A save-path encode splices the section from disk, byte-identically.
	var w snapcodec.Writer
	if err := ix.EncodeShard(&w, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), payload) {
		t.Fatal("re-encode of a shard served by runs differs from the stored section")
	}
}

// TestDiskBackingSingleflight: K goroutines racing for one cold run pay
// exactly one disk read and one decode — the pending entry is the
// singleflight.
func TestDiskBackingSingleflight(t *testing.T) {
	ix, p, _, _ := bindFixture(t)
	sh := ix.shards[0]
	_, resident := buildFixture(t)
	want := termPostings(t, resident, "united")
	before := p.Stats()

	const K = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, K)
	results := make([][]Posting, K)
	for i := 0; i < K; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i], errs[i] = sh.postings("united")
		}()
	}
	close(start)
	wg.Wait()
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("goroutine %d got divergent postings", i)
		}
	}
	after := p.Stats()
	if got := after.PageIns - before.PageIns; got != 1 {
		t.Errorf("%d concurrent lookups paid %d decodes, want 1", K, got)
	}
	if got := after.DiskReads - before.DiskReads; got != 1 {
		t.Errorf("%d concurrent lookups paid %d disk reads, want 1", K, got)
	}
}

// TestDiskBackingHostileStore: bytes flipped or truncated in the backing
// file AFTER load surface as ErrCorrupt on the lookups that read them —
// never a panic, never a silently wrong answer — while runs the damage
// does not touch keep answering identically; a failed read caches
// nothing, and restoring the file restores service.
func TestDiskBackingHostileStore(t *testing.T) {
	ix, p, path, payload := bindFixture(t)
	sh := ix.shards[0]
	_, resident := buildFixture(t)
	want := termPostings(t, resident, "united")

	corrupt := func(t *testing.T, mutate func([]byte) []byte) {
		t.Helper()
		if err := os.WriteFile(path, mutate(append([]byte(nil), payload...)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustFail := func(t *testing.T, what, term string) {
		t.Helper()
		before := p.Stats()
		if _, err := sh.postings(term); !errors.Is(err, snapcodec.ErrCorrupt) {
			t.Fatalf("%s: postings(%q) err = %v, want ErrCorrupt", what, term, err)
		}
		// The query path surfaces the same error.
		if _, err := ix.MatchTerm(query.Term{Search: fulltext.Word{Term: term}}); !errors.Is(err, snapcodec.ErrCorrupt) {
			t.Fatalf("%s: MatchTerm(%q) err = %v, want ErrCorrupt", what, term, err)
		}
		if after := p.Stats(); after.Resident != before.Resident || after.PageIns != before.PageIns {
			t.Fatalf("%s: failed read changed the cache: %+v -> %+v", what, before, after)
		}
	}

	// A byte flipped inside the looked-up run: the read succeeds, the
	// run's checksum must not.
	lo, hi := termRun(t, sh, payload, "united")
	corrupt(t, func(b []byte) []byte { b[(lo+hi)/2] ^= 0xFF; return b })
	mustFail(t, "flip inside the run", "united")

	// A byte flipped in another run: this lookup's answer is unchanged,
	// and the damaged run's own lookup errors.
	olo, ohi := termRun(t, sh, payload, "states")
	corrupt(t, func(b []byte) []byte { b[(olo+ohi)/2] ^= 0xFF; return b })
	got, err := sh.postings("united")
	if err != nil {
		t.Fatalf("flip in another run: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("flip in another run changed this lookup's answer")
	}
	mustFail(t, "flip in the looked-up run", "states")

	// Truncation inside the run: the positional read itself comes up
	// short. Read another run first, so the 1-byte budget evicts "united"
	// and the lookup must go to disk.
	corrupt(t, func(b []byte) []byte { return b })
	termPostings(t, ix, "mexico")
	corrupt(t, func(b []byte) []byte { return b[:lo+1] })
	mustFail(t, "truncated backstore", "united")

	// Restoring the file restores byte-identical answers.
	corrupt(t, func(b []byte) []byte { return b })
	if got := termPostings(t, ix, "united"); !reflect.DeepEqual(got, want) {
		t.Fatal("restored backstore served different postings")
	}
	if got := mustDecoded(t, sh); !reflect.DeepEqual(got, mustDecoded(t, resident.shards[0])) {
		t.Fatal("restored backstore serves runs that differ from the build")
	}
}

// TestRunCacheConcurrentLookups: goroutines reading overlapping and
// disjoint runs of one shard under a 1-byte budget — every read crossing
// fetch, publish and evict of the others — all answer like the resident
// index, and once they stop at most one run stays resident. Run it under
// -race.
func TestRunCacheConcurrentLookups(t *testing.T) {
	ix, p, _, _ := bindFixture(t)
	sh := ix.shards[0]
	_, resident := buildFixture(t)
	terms := resident.baseTerms
	paths := resident.shards[0].pathIDs
	wantPostings := make(map[string][]Posting, len(terms))
	for _, term := range terms {
		wantPostings[term] = termPostings(t, resident, term)
	}
	wantNodes := make(map[pathdict.PathID][]xmldoc.NodeRef, len(paths))
	for _, path := range paths {
		wantNodes[path] = pathNodes(t, resident, path)
	}

	const G = 8
	rounds := 20
	if raceEnabled {
		rounds = 5
	}
	var wg sync.WaitGroup
	errs := make(chan error, G)
	for g := 0; g < G; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, term := range terms {
					// Even goroutines share every run; odd ones keep to a
					// quarter of the vocabulary of their own.
					if g%2 == 1 && i%4 != g/2 {
						continue
					}
					got, err := sh.postings(term)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, wantPostings[term]) {
						errs <- errors.New("divergent postings for " + term)
						return
					}
				}
				for _, path := range paths[g%2:] {
					got, err := sh.nodes(path)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, wantNodes[path]) {
						errs <- errors.New("divergent node list")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Resident > 1 {
		t.Fatalf("1-byte budget left %d runs resident", st.Resident)
	}
}

package index

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"seda/internal/store"
	"seda/internal/xmldoc"
)

// TestSegmentGenerationsSearchConcurrently: readers keep searching an
// older generation, and whichever generation is newest, while a writer
// derives newer ones that append segments, merge them and mask documents.
// Every answer of the older generation must stay what it was, and the
// last generation must answer like a build over its live documents. Run
// it under -race.
func TestSegmentGenerationsSearchConcurrently(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	col := store.NewCollection()
	named := 0
	newDocs := func(n int) []*xmldoc.Document {
		docs := make([]*xmldoc.Document, n)
		for i := range docs {
			docs[i] = xmldoc.Build(fmt.Sprintf("d%d", named), randDoc(r, oracleTags, oracleVocab, 0), col.Dict())
			named++
		}
		return docs
	}
	add := func(ix *Index) *Index {
		docs := newDocs(1)
		col = col.Extend(docs)
		next, err := extend(ix, col, docs)
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	kill := func(ix *Index) *Index {
		live := col.LiveDocs()
		var err error
		if col, err = col.WithTombstones([]xmldoc.DocID{live[r.Intn(len(live))].ID}); err != nil {
			t.Fatal(err)
		}
		next, err := extend(ix, col, nil)
		if err != nil {
			t.Fatal(err)
		}
		return next
	}

	docs := newDocs(8)
	col = col.Extend(docs)
	old := BuildSharded(col, 2, 1)
	for range 3 {
		old = add(old)
	}
	old = kill(old)
	want := foldAnswers(t, old)

	var cur atomic.Pointer[Index]
	cur.Store(old)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				got, err := renderAnswers(old)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want {
					t.Errorf("the older generation's answers changed: %s", firstDiff(got, want))
					return
				}
				if _, err := renderAnswers(cur.Load()); err != nil {
					t.Error(err)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	ix := old
	for step := range 48 {
		if ix = add(ix); step%4 == 3 {
			ix = kill(ix)
		}
		cur.Store(ix)
	}
	close(stop)
	wg.Wait()

	if len(ix.shards)-ix.base < 2 || len(ix.deadParts) == 0 {
		t.Fatalf("the writer left %d segments and %d dead parts; the test wants merges and masks to overlap the reads", len(ix.shards)-ix.base, len(ix.deadParts))
	}
	if got, want := foldAnswers(t, ix), foldAnswers(t, BuildSharded(compacted(col), 1, 1)); got != want {
		t.Errorf("the newest generation differs from a build over its live documents: %s", firstDiff(got, want))
	}
}

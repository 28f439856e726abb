package index

import (
	"os"
	"path/filepath"
	"testing"

	"seda/internal/pathdict"
	"seda/internal/snapcodec"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// compacted is col's compacted collection, for a build over its live
// documents.
func compacted(col *store.Collection) *store.Collection {
	c, _ := col.Compacted()
	return c
}

// extend is Extend of a collection that renumbers nothing: col extends
// ix's by docs, or masks more of its documents, or both.
func extend(ix *Index, col *store.Collection, docs []*xmldoc.Document) (*Index, error) {
	return ix.Extend(col, xmldoc.DocID(ix.col.NumDocs()), docs)
}

// Most fixtures in this package are resident (no disk backing), so the
// fallible read accessors cannot actually fail; these helpers unwrap them.

// backedRef writes payload to a file of its own and returns a ref to it
// as a whole-file section (offset 0), which is all BackingRef needs —
// container framing is the loader's business.
func backedRef(tb testing.TB, payload []byte) (ref *BackingRef, path string) {
	tb.Helper()
	path = filepath.Join(tb.TempDir(), "shard.bin")
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		tb.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { f.Close() })
	return NewBackingRef(NewBacking(f), 0, len(payload), snapcodec.Checksum(payload)), path
}

// termPostings gathers term's live postings over every shard through the
// accessors a query's term probe uses (Shard.postings, then
// livePostings), concatenated in shard order, so in (doc, Dewey) order.
func termPostings(tb testing.TB, ix *Index, term string) []Posting {
	tb.Helper()
	var out []Posting
	for s, sh := range ix.shards {
		ps, err := sh.postings(term)
		if err != nil {
			tb.Fatalf("shard %d: postings(%q): %v", s, term, err)
		}
		out = append(out, ix.livePostings(s, ps)...)
	}
	return out
}

// prefixPostings is termPostings for a prefix probe: lookupPrefixShard
// per shard, concatenated in shard order.
func prefixPostings(tb testing.TB, ix *Index, prefix string) []Posting {
	tb.Helper()
	var out []Posting
	for s := range ix.shards {
		ps, err := ix.lookupPrefixShard(s, prefix)
		if err != nil {
			tb.Fatalf("shard %d: lookupPrefixShard(%q): %v", s, prefix, err)
		}
		out = append(out, ps...)
	}
	return out
}

// pathNodes gathers the live nodes at path p over every shard through the
// accessors a context scan uses (Shard.nodes, then liveRefs).
func pathNodes(tb testing.TB, ix *Index, p pathdict.PathID) []xmldoc.NodeRef {
	tb.Helper()
	var out []xmldoc.NodeRef
	for s, sh := range ix.shards {
		refs, err := sh.nodes(p)
		if err != nil {
			tb.Fatalf("shard %d: nodes(%d): %v", s, p, err)
		}
		out = append(out, ix.liveRefs(s, refs)...)
	}
	return out
}

// decodedState collects every run of sh through the accessors queries
// use — map lookups on a resident shard, run fetches on one served from
// its section — into whole decoded state, for comparison with a build.
func decodedState(sh *Shard) (*shardData, error) {
	d := &shardData{
		postings:  make(map[string][]Posting, len(sh.terms)),
		pathNodes: make(map[pathdict.PathID][]xmldoc.NodeRef, len(sh.pathIDs)),
	}
	for _, term := range sh.terms {
		ps, err := sh.postings(term)
		if err != nil {
			return nil, err
		}
		d.postings[term] = ps
	}
	for _, p := range sh.pathIDs {
		refs, err := sh.nodes(p)
		if err != nil {
			return nil, err
		}
		d.pathNodes[p] = refs
	}
	return d, nil
}

func mustDecoded(tb testing.TB, sh *Shard) *shardData {
	tb.Helper()
	d, err := decodedState(sh)
	if err != nil {
		tb.Fatalf("decoding shard [%d,%d): %v", sh.lo, sh.hi, err)
	}
	return d
}

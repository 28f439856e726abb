package index

import (
	"os"
	"path/filepath"
	"testing"

	"seda/internal/pathdict"
	"seda/internal/snapcodec"
	"seda/internal/xmldoc"
)

// Most fixtures in this package are resident (no disk backing), so the
// fallible read APIs cannot actually fail; these helpers unwrap them.

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

func mustLookup(tb testing.TB, ix *Index, term string) []Posting {
	tb.Helper()
	ps, err := ix.Lookup(term)
	if err != nil {
		tb.Fatalf("Lookup(%q): %v", term, err)
	}
	return ps
}

func mustLookupPrefix(tb testing.TB, ix *Index, prefix string) []Posting {
	tb.Helper()
	ps, err := ix.LookupPrefix(prefix)
	if err != nil {
		tb.Fatalf("LookupPrefix(%q): %v", prefix, err)
	}
	return ps
}

func mustPhrasePostings(tb testing.TB, ix *Index, terms []string) []Posting {
	tb.Helper()
	ps, err := ix.PhrasePostings(terms)
	if err != nil {
		tb.Fatalf("PhrasePostings(%v): %v", terms, err)
	}
	return ps
}

func mustNodesAtPath(tb testing.TB, ix *Index, p pathdict.PathID) []xmldoc.NodeRef {
	tb.Helper()
	refs, err := ix.NodesAtPath(p)
	if err != nil {
		tb.Fatalf("NodesAtPath(%d): %v", p, err)
	}
	return refs
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

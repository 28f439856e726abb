package index

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"seda/internal/fulltext"
	"seda/internal/query"
	"seda/internal/snapcodec"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// The words and prefixes whose document frequencies and path sets
// foldAnswers renders: the oracle vocabulary's normalized words, its tag
// names, a word no document holds, and prefixes that select several
// terms (the empty prefix selects every one).
var (
	foldWords    = []string{"red", "green", "blue", "gold", "a", "b", "c", "missing"}
	foldPrefixes = []string{"", "r", "g", "b", "gr"}
)

// foldAnswers renders every read answer FuzzIndexFold compares — the
// vocabulary, document frequencies, path sets per word and prefix, the
// path roster and the matches of every oracle term — with document ids
// replaced by their rank among ix's live documents, so an index over a
// masked collection renders exactly like one built over its survivors.
func foldAnswers(t *testing.T, ix *Index) string {
	t.Helper()
	out, err := renderAnswers(ix)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// renderAnswers is foldAnswers for callers off the test's goroutine.
func renderAnswers(ix *Index) (string, error) {
	rank := make(map[xmldoc.DocID]int)
	for i, d := range ix.col.LiveDocs() {
		rank[d.ID] = i
	}
	var b strings.Builder
	fmt.Fprintf(&b, "terms %q\nall %v\n", ix.vocab(""), ix.AllPaths())
	for _, w := range foldWords {
		fmt.Fprintf(&b, "word %s df %d paths %v\n", w, ix.DocFreq(w), ix.PathsForExpr(fulltext.Word{Term: w}))
	}
	for _, p := range foldPrefixes {
		fmt.Fprintf(&b, "prefix %q paths %v\n", p, ix.PathsForExpr(fulltext.Word{Term: p, Prefix: true}))
	}
	for _, ctx := range oracleContexts {
		for _, search := range oracleSearches {
			term, err := query.NewTerm(ctx, search)
			if err != nil {
				continue
			}
			ms, err := ix.MatchTerm(term)
			if err != nil {
				return "", fmt.Errorf("MatchTerm(%s): %w", term, err)
			}
			fmt.Fprintf(&b, "match %s:", term)
			for _, m := range ms {
				fmt.Fprintf(&b, " %d@%s/%d/%v", rank[m.Ref.Doc], m.Ref.Dewey, m.Path, m.Score)
			}
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

// checkLayout asserts the merge policy's bounds on ix: at most
// log2(d)+1 segments over the d documents they hold, and likewise for the
// dead parts over the masked documents.
func checkLayout(t *testing.T, ix *Index, ops []string) {
	t.Helper()
	docs := 0
	for _, sh := range ix.shards[ix.base:] {
		docs += sh.Docs()
	}
	if n := len(ix.shards) - ix.base; ix.base < 1 || n > bits.Len(uint(docs)) {
		t.Fatalf("after %v: %d base shards and %d segments over %d documents", ops, ix.base, n, docs)
	}
	if n := len(ix.deadParts); n > bits.Len(uint(ix.dead.Len())) {
		t.Fatalf("after %v: %d dead parts over %d documents", ops, n, ix.dead.Len())
	}
}

// reload round-trips ix through its shard encodings, as a snapshot save
// and load does: the base shards decode resident, the segments are
// served by runs from a file, so a later merge decodes them from it.
func reload(t *testing.T, ix *Index) *Index {
	t.Helper()
	shards := make([]*Shard, ix.NumShards())
	for s, enc := range encodedShards(t, ix) {
		var ref *BackingRef
		if s >= ix.base {
			ref, _ = backedRef(t, enc)
		}
		var err error
		if shards[s], err = DecodeShard(snapcodec.NewReader(enc), ix.col, ref); err != nil {
			t.Fatal(err)
		}
	}
	out, err := FromShards(ix.col, shards[:ix.base], shards[ix.base:])
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// encodedShards returns the EncodeShard bytes of each of ix's shards.
func encodedShards(t *testing.T, ix *Index) [][]byte {
	t.Helper()
	out := make([][]byte, ix.NumShards())
	for s := range out {
		var w snapcodec.Writer
		if err := ix.EncodeShard(&w, s); err != nil {
			t.Fatal(err)
		}
		out[s] = w.Bytes()
	}
	return out
}

// firstDiff returns the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got %s\nwant %s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// FuzzIndexFold drives an index through a fuzz-chosen sequence of
// document adds, deletes, updates, compactions and reloads. corpus draws
// the documents (see byteSource); script's first byte picks one to three
// shards and one to three scan workers, and each later byte one step: its
// low two bits the operation, the next five its operand, and the top bit
// whether the step first branches back to an earlier generation, to
// derive from it a second time. An add of operand 28 or more is a run of
// 8 to 32 single-document adds, enough for segment merges to cascade; an
// operand of 16 or more turns a compaction into a reload through the
// shard codec. A compaction keeps the shards before the first dead
// document when the engine would (KeepsBase), and rebuilds the base
// otherwise. After every step the derived index must answer exactly
// like a from-scratch build over its live documents, each of its shards
// must encode exactly like a sequential scan of the shard's document
// range, and the segments and dead parts must stay within the merge
// policy's bound. At the end every generation must still encode to the
// bytes, and render the answers, it had when it was derived: no step may
// write into state another generation shares.
func FuzzIndexFold(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 0, 5, 0, 3, 7, 0, 1, 1, 2, 0, 1, 2, 1, 1, 3}, []byte{3, 0, 1, 2, 3, 4, 0x81, 3})
	f.Add([]byte("add, delete, update and compact"), []byte{8, 4, 5, 6, 9, 3, 2, 0x85, 3, 0})
	f.Add([]byte{2, 1, 3, 4, 1, 0, 2, 1, 1, 0, 0, 1, 3, 2, 2}, []byte{1, 8, 2, 2, 1, 3, 6, 5, 3})
	f.Add([]byte{5, 1, 2, 0, 1, 1, 2, 1, 0, 0, 1, 3, 2, 2, 1, 2, 1, 1, 0, 2, 3}, []byte{2, 0x85, 4, 3, 2, 6, 1, 3})
	f.Add([]byte{5, 2, 1, 1, 0, 2, 1, 2, 0, 1, 1, 3, 1, 2, 0, 2, 1, 1, 2, 0, 3, 1}, []byte{5, 0x95, 9, 1, 0, 3, 0xa1, 2, 3})
	// Adds of documents whose text repeats a word apart ("red blue red"),
	// so the added scan's postings need normalizing.
	f.Add([]byte{0x48, 0xf6, 0x65, 0x5c, 0x82, 0x66, 0x90, 0x37, 0x31, 0x2f, 0xbf, 0x9f, 0x1c, 0xf4, 0xad, 0xb0, 0xb9, 0x40, 0x5, 0x32, 0x75, 0x50, 0x11, 0xb4, 0xe, 0x82, 0x52, 0xbd, 0xe}, []byte{0x4, 0xa1, 0x65, 0xed})
	f.Add([]byte{0xe, 0x71, 0xcb, 0xe3, 0x4c, 0x92, 0xcd, 0x4b, 0x5a, 0xa, 0xdc, 0x81, 0xe5, 0xc3, 0x3e, 0x11, 0xd2, 0x72, 0x1b, 0xc1, 0xb9, 0x5a, 0x9e, 0x69, 0x3a, 0xc3, 0xca, 0xbc, 0x49, 0x8, 0x89, 0xa8}, []byte{0x3, 0x8a, 0x64, 0xbf, 0x5c, 0x3f})
	// Branches that derive twice from one generation whose tail lists
	// have spare capacity, so appending into a shared list shows.
	f.Add([]byte{0x1, 0xc8, 0x7a, 0x32, 0x18, 0xdd, 0x11, 0x95, 0xc5, 0x9f, 0x64, 0xd0, 0xbc, 0x3c, 0xe8, 0xb7, 0x25, 0x80, 0xfe, 0x38, 0xe6, 0xdb, 0xf1, 0x18, 0x1e, 0x0, 0x90, 0xe5, 0xc6, 0xd1, 0x62, 0xdf}, []byte{0x3, 0xb7, 0x45, 0xed})
	f.Add([]byte{0x33, 0xec, 0x79, 0x8, 0x47, 0x81, 0x4e, 0x3d, 0xe0, 0x2e, 0x2a, 0x56, 0xe0, 0x8c, 0x48, 0x59, 0xa0, 0x38, 0x4, 0xda, 0x8, 0xda, 0x2, 0xe4, 0xfe, 0x80, 0x6c, 0x80, 0xe7, 0xf7, 0xb0, 0xd2, 0x43, 0x9b, 0x23, 0x48, 0xa7, 0x4e}, []byte{0x4, 0x94, 0xa2, 0xa3, 0x84, 0xc8})
	// Runs of single-document adds that cascade segment merges, around a
	// reload that leaves the segments served by runs, deletes, an update
	// and a compaction back to the base layout.
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4}, []byte{2, 0x7c, 0x43, 0x70, 0x41, 0x6d, 0x02, 0x78, 0x07, 0x74, 0x03})
	f.Add([]byte("segments merge while generations branch"), []byte{0, 0x78, 0x05, 0x7c, 0x43, 0x82, 0x70, 0x09, 0x03, 0x74})
	// Only segment documents die before each compaction: eight single
	// adds, two of them deleted and compacted, which keeps the base, then
	// two more adds, a delete and a compaction that also keeps the
	// segment the first one folded.
	f.Add([]byte("only segment documents die"), []byte{0, 0x70, 0x21, 0x1d, 3, 4, 0x21, 3})
	f.Fuzz(func(t *testing.T, corpus, script []byte) {
		r := rand.New(&byteSource{b: corpus})
		var layout byte
		if len(script) > 0 {
			layout, script = script[0], script[1:]
		}
		shards, par := 1+int(layout%3), 1+int(layout/3%3)
		col := store.NewCollection()
		named := 0
		newDoc := func(name string) *xmldoc.Document {
			if name == "" {
				name = fmt.Sprintf("d%d", named)
				named++
			}
			return xmldoc.Build(name, randDoc(r, oracleTags, oracleVocab, 0), col.Dict())
		}
		var docs []*xmldoc.Document
		for range 1 + r.Intn(6) {
			docs = append(docs, newDoc(""))
		}
		col = col.Extend(docs)
		ix := BuildSharded(col, shards, par)

		type generation struct {
			ix      *Index
			answers string
			shards  [][]byte
		}
		var gens []generation
		var ops []string
		for step := 0; ; step++ {
			answers := foldAnswers(t, ix)
			if want := foldAnswers(t, BuildSharded(compacted(col), 1, 1)); answers != want {
				t.Fatalf("after %v: derived index differs from a build over the live documents: %s", ops, firstDiff(answers, want))
			}
			checkLayout(t, ix, ops)
			enc := encodedShards(t, ix)
			for s, sh := range ix.shards {
				var w snapcodec.Writer
				if err := buildShardRange(ix.col.Docs()[sh.lo:sh.hi], sh.lo, 1).encodeInto(&w); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(enc[s], w.Bytes()) {
					t.Fatalf("after %v: shard %d [%d, %d) encodes unlike a scan of its documents", ops, s, sh.lo, sh.hi)
				}
			}
			gens = append(gens, generation{ix: ix, answers: answers, shards: enc})
			if step == len(script) {
				break
			}

			op, arg := script[step]%4, int(script[step]/4%32)
			if script[step] >= 128 { // branch: derive from an earlier generation
				g := gens[arg%len(gens)]
				ix, col = g.ix, g.ix.col
				ops = append(ops, fmt.Sprintf("back to %d", arg%len(gens)))
			}
			live := col.LiveDocs()
			var err error
			switch {
			case op == 0 && arg >= 28: // a run of single-document adds
				for range (arg - 27) * 8 {
					docs := []*xmldoc.Document{newDoc("")}
					col = col.Extend(docs)
					if ix, err = extend(ix, col, docs); err != nil {
						break
					}
					checkLayout(t, ix, ops)
				}
				ops = append(ops, fmt.Sprintf("add %d one by one", (arg-27)*8))
			case op == 0 || op < 3 && len(live) < 2: // add
				docs := make([]*xmldoc.Document, 1+arg%3)
				for i := range docs {
					docs[i] = newDoc("")
				}
				col = col.Extend(docs)
				ix, err = extend(ix, col, docs)
				ops = append(ops, fmt.Sprintf("add %d", len(docs)))
			case op == 1: // delete one document, or two when arg says so, keeping one alive
				ids := []xmldoc.DocID{live[arg%len(live)].ID}
				if other := live[arg/2%len(live)].ID; arg >= 16 && other != ids[0] && len(live) > 2 {
					ids = append(ids, other)
				}
				if col, err = col.WithTombstones(ids); err != nil {
					t.Fatal(err)
				}
				ix, err = extend(ix, col, nil)
				ops = append(ops, fmt.Sprintf("delete %v", ids))
			case op == 2: // update: mask a document and append its replacement
				old := live[arg%len(live)]
				if col, err = col.WithTombstones([]xmldoc.DocID{old.ID}); err != nil {
					t.Fatal(err)
				}
				docs := []*xmldoc.Document{newDoc(old.Name)}
				col = col.Extend(docs)
				ix, err = extend(ix, col, docs)
				ops = append(ops, fmt.Sprintf("update %d", old.ID))
			case arg < 16 && col.Tombstones().Len() > 0: // compact, as the engine does
				var restart xmldoc.DocID
				col, restart = col.Compacted()
				if ix.KeepsBase(restart, shards) {
					ix, err = ix.Extend(col, restart, nil)
					ops = append(ops, fmt.Sprintf("compact from %d", restart))
				} else {
					ix = BuildSharded(col, shards, par)
					ops = append(ops, "compact to a new base")
				}
			default:
				ix = reload(t, ix)
				ops = append(ops, "reload")
			}
			if err != nil {
				t.Fatalf("after %v: %v", ops, err)
			}
		}
		for i, g := range gens {
			for s, enc := range encodedShards(t, g.ix) {
				if !bytes.Equal(enc, g.shards[s]) {
					t.Fatalf("after %v: generation %d's shard %d encodes differently", ops, i, s)
				}
			}
			if got := foldAnswers(t, g.ix); got != g.answers {
				t.Fatalf("after %v: generation %d's answers changed: %s", ops, i, firstDiff(got, g.answers))
			}
		}
	})
}

package index

import (
	"bytes"
	"reflect"
	"testing"

	"seda/internal/snapcodec"
	"seda/internal/store"
)

// The shard codec's contract: the compressed payload round-trips both
// resident and disk-backed decodes to identical shard state, re-encodes
// byte-identically from any residency (resident, cold, evicted),
// reassembles through FromShards into an index that answers like the
// built one, and rejects malformed payloads at decode time.

func encodeShardBytes(tb testing.TB, ix *Index, s int) []byte {
	tb.Helper()
	var w snapcodec.Writer
	if err := ix.EncodeShard(&w, s); err != nil {
		tb.Fatalf("EncodeShard(%d): %v", s, err)
	}
	return w.Bytes()
}

func TestShardCodecV3RoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2} {
		testShardCodecRoundTrip(t, shards)
	}
}

func testShardCodecRoundTrip(t *testing.T, shards int) {
	col, _ := buildFixture(t)
	ix := BuildSharded(col, shards, 2)
	decoded := make([]*Shard, ix.NumShards())
	for s := 0; s < ix.NumShards(); s++ {
		orig := ix.shards[s]
		data := encodeShardBytes(t, ix, s)

		resident, err := DecodeShard(snapcodec.NewReader(data), col, nil)
		if err != nil {
			t.Fatalf("shard %d: DecodeShard: %v", s, err)
		}
		if resident.data.Load() == nil {
			t.Fatalf("shard %d: resident decode left shard cold", s)
		}
		decoded[s] = resident
		ref, _ := backedRef(t, data)
		paged, err := DecodeShard(snapcodec.NewReader(data), col, ref)
		if err != nil {
			t.Fatalf("shard %d: DecodeShard with a ref: %v", s, err)
		}
		if paged.data.Load() != nil {
			t.Fatalf("shard %d: disk-backed decode materialized the lazy block", s)
		}
		if paged.backing.Load() != ref {
			t.Fatalf("shard %d: disk-backed decode did not bind its ref", s)
		}
		if rt := paged.runs.Load(); rt == nil || len(rt.crc) != len(orig.terms)+len(orig.pathIDs) {
			t.Fatalf("shard %d: disk-backed decode recorded no run table", s)
		}

		// Summary state matches without paging; a cold re-encode splices
		// the section's lazy block and must reproduce the payload exactly.
		if !reflect.DeepEqual(paged.terms, orig.terms) ||
			!reflect.DeepEqual(paged.termDocFreq, orig.termDocFreq) ||
			!reflect.DeepEqual(paged.pathTerms, orig.pathTerms) ||
			!reflect.DeepEqual(paged.pathIDs, orig.pathIDs) {
			t.Fatalf("shard %d: paged summary state differs", s)
		}
		var cold snapcodec.Writer
		if err := paged.encodeInto(&cold); err != nil {
			t.Fatalf("shard %d: cold re-encode: %v", s, err)
		}
		if !bytes.Equal(cold.Bytes(), data) {
			t.Errorf("shard %d: cold re-encode differs from stored payload", s)
		}

		// Every run, read whole or one at a time, decodes to the state of
		// the original build.
		for _, sh := range []*Shard{resident, paged} {
			d := mustDecoded(t, sh)
			if !reflect.DeepEqual(d.postings, mustDecoded(t, orig).postings) {
				t.Errorf("shard %d: postings differ after decode", s)
			}
			if !reflect.DeepEqual(d.pathNodes, mustDecoded(t, orig).pathNodes) {
				t.Errorf("shard %d: path-node lists differ after decode", s)
			}
			var w snapcodec.Writer
			if err := sh.encodeInto(&w); err != nil {
				t.Fatalf("shard %d: re-encode: %v", s, err)
			}
			if !bytes.Equal(w.Bytes(), data) {
				t.Errorf("shard %d: hot re-encode differs from stored payload", s)
			}
		}

		// Under a 1-byte budget every run is fetched, cached, evicted and
		// fetched again: the cycle is lossless, and so is a re-encode.
		paged.pager.Store(NewPager(1))
		for pass := 0; pass < 2; pass++ {
			if !reflect.DeepEqual(mustDecoded(t, paged), mustDecoded(t, orig)) {
				t.Errorf("shard %d: runs differ after evict→fetch, pass %d", s, pass)
			}
		}
		var evicted snapcodec.Writer
		if err := paged.encodeInto(&evicted); err != nil {
			t.Fatalf("shard %d: evicted re-encode: %v", s, err)
		}
		if !bytes.Equal(evicted.Bytes(), data) {
			t.Errorf("shard %d: evicted re-encode differs from stored payload", s)
		}
	}

	// The corpus-global views FromShards re-derives from decoded shards.
	got, err := FromShards(col, decoded, nil)
	if err != nil {
		t.Fatalf("FromShards: %v", err)
	}
	if !reflect.DeepEqual(got.baseTerms, ix.baseTerms) {
		t.Errorf("%d shards: vocabulary differs after decode", shards)
	}
	for _, term := range ix.baseTerms {
		if got.DocFreq(term) != ix.DocFreq(term) {
			t.Errorf("%d shards: DocFreq mismatch for %q", shards, term)
		}
	}
	for term := range ix.basePathTerms {
		if !reflect.DeepEqual(got.basePathTerms[term], ix.basePathTerms[term]) {
			t.Errorf("%d shards: context index mismatch for %q", shards, term)
		}
	}
	if !reflect.DeepEqual(got.AllPaths(), ix.AllPaths()) {
		t.Errorf("%d shards: AllPaths mismatch", shards)
	}
	// A phrase term reads postings of several words from every shard.
	phrase := mustTerm(t, "*", `"united states"`)
	want, err := ix.MatchTerm(phrase)
	if err != nil || len(want) == 0 {
		t.Fatalf("fixture has no \"united states\" match: %v", err)
	}
	if ms, err := got.MatchTerm(phrase); err != nil || !reflect.DeepEqual(ms, want) {
		t.Errorf("%d shards: phrase matches mismatch (%v)", shards, err)
	}
}

// TestShardStatsExactBytes: the satellite replacing the old perPosting=64
// estimator — ShardStats reports each shard's exact encoded payload size.
func TestShardStatsExactBytes(t *testing.T) {
	col, _ := buildFixture(t)
	ix := BuildSharded(col, 2, 1)
	for s, st := range ix.ShardStats() {
		want := int64(len(encodeShardBytes(t, ix, s)))
		if st.Bytes != want {
			t.Errorf("shard %d: Bytes = %d, want exact encoded size %d", s, st.Bytes, want)
		}
		if !st.Resident {
			t.Errorf("shard %d: built shard reported non-resident", s)
		}
	}
}

func TestShardCodecHostileInputs(t *testing.T) {
	col := store.NewCollection()
	if _, err := col.AddXML("doc0", []byte(`<a><b>hello world</b><b>world again</b></a>`)); err != nil {
		t.Fatal(err)
	}
	if _, err := col.AddXML("doc1", []byte(`<a><b>hello again</b></a>`)); err != nil {
		t.Fatal(err)
	}
	ix := BuildSharded(col, 1, 1)
	data := encodeShardBytes(t, ix, 0)

	// unread is a ref the decoder validates against but never reads: the
	// payload's own size, no file behind it.
	unread := func(payload []byte) *BackingRef { return &BackingRef{size: len(payload)} }

	// Truncation sweep: every prefix errors from both decode modes — the
	// disk-backed decode validates the lazy block up front, so a truncated
	// payload can never defer its failure to page-in time.
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeShard(snapcodec.NewReader(data[:cut]), col, nil); err == nil {
			t.Errorf("cut=%d: resident decode accepted a truncated payload", cut)
		}
		if _, err := DecodeShard(snapcodec.NewReader(data[:cut]), col, unread(data[:cut])); err == nil {
			t.Errorf("cut=%d: disk-backed decode accepted a truncated payload", cut)
		}
	}
	// A ref whose section is not the payload's size names the wrong
	// section and is refused.
	if _, err := DecodeShard(snapcodec.NewReader(data), col, unread(data[1:])); err == nil {
		t.Error("decode accepted a ref of the wrong section size")
	}

	// Byte-flip sweep: no flip may panic either decode mode, and any flip
	// the disk-backed decode accepts must serve every run cleanly from its
	// section (the load-time walk validates what a run fetch decodes).
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0xFF
		ref, _ := backedRef(t, bad)
		if sh, err := DecodeShard(snapcodec.NewReader(bad), col, ref); err == nil {
			if _, err := decodedState(sh); err != nil {
				t.Errorf("flip at %d: accepted payload failed a run fetch: %v", i, err)
			}
		}
		_, _ = DecodeShard(snapcodec.NewReader(bad), col, nil)
	}

	// Alloc bombs: giant counts in a tiny payload must be rejected by the
	// count guards, not trusted as allocation sizes.
	bomb := func(build func(w *snapcodec.Writer)) {
		t.Helper()
		var w snapcodec.Writer
		build(&w)
		if _, err := DecodeShard(snapcodec.NewReader(w.Bytes()), col, nil); err == nil {
			t.Error("alloc-bomb payload decoded successfully")
		}
		if _, err := DecodeShard(snapcodec.NewReader(w.Bytes()), col, unread(w.Bytes())); err == nil {
			t.Error("alloc-bomb payload decoded disk-backed successfully")
		}
	}
	bomb(func(w *snapcodec.Writer) { // vocabulary count far beyond the payload
		w.Int(shardCodecVersion)
		w.Int(0)
		w.Int(2)
		w.Int(1 << 30)
	})
	bomb(func(w *snapcodec.Writer) { // posting count far beyond the lazy block
		w.Int(shardCodecVersion)
		w.Int(0)
		w.Int(2)
		w.Int(1) // one term
		w.String("hello")
		w.Int(1)       // doc freq
		w.Int(1 << 28) // claimed postings
		w.Int(0)       // no context terms
		w.Int(0)       // empty roster
	})
	bomb(func(w *snapcodec.Writer) { // huge dewey suffix inside the lazy block
		w.Int(shardCodecVersion)
		w.Int(0)
		w.Int(2)
		w.Int(1)
		w.String("hello")
		w.Int(1)
		w.Int(1)
		w.Int(0)
		w.Int(0)
		// lazy block: one posting with an absurd suffix length
		w.Int(0)       // doc gap
		w.Int(0)       // shared prefix
		w.Int(1 << 28) // suffix components
	})
	bomb(func(w *snapcodec.Writer) { // posting naming a document past the shard
		w.Int(shardCodecVersion)
		w.Int(0)
		w.Int(2)
		w.Int(1) // one term
		w.Int(0) // no shared prefix
		w.String("hello")
		w.Uvarint(0) // doc freq 1, one posting
		w.Int(0)     // no context terms
		w.Int(0)     // empty roster
		// lazy block: escaped doc gap 3+96 = 99, one Dewey component
		w.Byte(refEscGap<<6 | 1)
		w.Int(96)
		w.Uvarint(1)
	})
	bomb(func(w *snapcodec.Writer) { // roster refCount bomb
		w.Int(shardCodecVersion)
		w.Int(0)
		w.Int(2)
		w.Int(0) // no terms
		w.Int(0) // no context terms
		w.Int(1) // one roster path
		w.Uvarint(3)
		w.Int(1 << 28) // claimed refs
	})
}

// FuzzShardDecode drives both shard decode modes over mutated payloads.
// The invariant under fuzz: no input panics either mode, and any input
// the disk-backed decode accepts must serve every run from its section,
// through a fetch → evict → fetch cycle under a 1-byte budget.
func FuzzShardDecode(f *testing.F) {
	col := store.NewCollection()
	if _, err := col.AddXML("doc0", []byte(`<a><b>hello world hello</b><c>world</c></a>`)); err != nil {
		f.Fatal(err)
	}
	if _, err := col.AddXML("doc1", []byte(`<a><b>again hello</b></a>`)); err != nil {
		f.Fatal(err)
	}
	ix := BuildSharded(col, 2, 1)
	for s := 0; s < ix.NumShards(); s++ {
		data := encodeShardBytes(f, ix, s)
		f.Add(data)
		f.Add(data[:len(data)/2])
		// The same payload led by the retired codec int 1 must be refused.
		retired := append([]byte{1}, data[1:]...)
		if _, err := DecodeShard(snapcodec.NewReader(retired), col, nil); err == nil {
			f.Fatalf("shard %d: codec-1 payload decoded", s)
		}
		f.Add(retired)
	}
	f.Add([]byte{})
	f.Add([]byte{2, 0, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeShard(snapcodec.NewReader(data), col, nil)
		ref, _ := backedRef(t, data)
		if sh, err := DecodeShard(snapcodec.NewReader(data), col, ref); err == nil {
			sh.pager.Store(NewPager(1))
			for pass := 0; pass < 2; pass++ {
				if _, err := decodedState(sh); err != nil {
					t.Fatalf("validated payload failed a run fetch, pass %d: %v", pass, err)
				}
			}
		}
	})
}

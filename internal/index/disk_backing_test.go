package index

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"

	"seda/internal/snapcodec"
)

// Disk-backed residency, white-box: a shard bound to its encoded section
// in a file evicts to nothing but its ref, pages back in through one
// CRC-verified read no matter how many goroutines race for it, and
// classifies a hostile backstore as an error — never a panic, never a
// silently wrong answer.

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

func TestDiskBackingLifecycle(t *testing.T) {
	_, ix := buildFixture(t)
	payload := encodeShardBytes(t, ix, 0)
	ref, _ := backedRef(t, payload)
	p := NewPager(1)
	ix.AttachPager(p)
	sh := ix.shards[0]
	want := mustHot(t, sh).postings

	// An unbound shard has nowhere to page back from: the pager leaves it
	// resident and untracked. Binding admits it.
	if st := p.Stats(); st.Resident != 0 {
		t.Fatalf("unbound shard tracked: Resident = %d, want 0", st.Resident)
	}
	if err := ix.BindBacking(0, ref); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Resident != 1 || st.ResidentBytes != int64(len(payload)) {
		t.Fatalf("bound shard: Resident = %d (%d bytes), want 1 (%d bytes)", st.Resident, st.ResidentBytes, len(payload))
	}

	// True eviction drops the decoded state; page-in reads the section
	// once and reproduces it.
	if !sh.tryEvict() {
		t.Fatal("tryEvict on a bound hot shard reported no transition")
	}
	if sh.data.Load() != nil {
		t.Fatal("eviction left decoded state behind")
	}
	before := p.Stats()
	if got := mustHot(t, sh).postings; !reflect.DeepEqual(got, want) {
		t.Fatal("postings differ after disk page-in")
	}
	after := p.Stats()
	if after.DiskReads != before.DiskReads+1 {
		t.Fatalf("DiskReads = %d, want %d", after.DiskReads, before.DiskReads+1)
	}

	// A save-path encode of the evicted shard splices the section from
	// disk, byte-identically.
	if !sh.tryEvict() {
		t.Fatal("tryEvict on a paged-in shard reported no transition")
	}
	var w snapcodec.Writer
	if err := ix.EncodeShard(&w, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), payload) {
		t.Fatal("evicted re-encode differs from the stored section")
	}
}

// TestDiskBackingSingleflight: K goroutines racing for one evicted
// disk-backed shard pay exactly one page-in and one disk read — the shard
// mutex is the singleflight.
func TestDiskBackingSingleflight(t *testing.T) {
	ix, p, _, _ := bindFixture(t)
	sh := ix.shards[0]
	want := mustLookup(t, ix, "united")
	if !sh.tryEvict() {
		t.Fatal("tryEvict reported no transition")
	}
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
			results[i], errs[i] = ix.Lookup("united")
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
		t.Errorf("%d concurrent lookups paid %d page-ins, want 1", K, got)
	}
	if got := after.DiskReads - before.DiskReads; got != 1 {
		t.Errorf("%d concurrent lookups paid %d disk reads, want 1", K, got)
	}
}

// TestDiskBackingHostileStore: bytes flipped or truncated in the backing
// file AFTER load surface as checksum/read errors on page-in — never a
// panic, never a silently wrong answer — and restoring the file restores
// service.
func TestDiskBackingHostileStore(t *testing.T) {
	ix, _, path, payload := bindFixture(t)
	sh := ix.shards[0]
	want := mustLookup(t, ix, "united")

	corrupt := func(t *testing.T, mutate func([]byte) []byte) {
		t.Helper()
		if err := os.WriteFile(path, mutate(append([]byte(nil), payload...)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Flipped byte: the read succeeds, the CRC re-verify must not.
	corrupt(t, func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b })
	if !sh.tryEvict() {
		t.Fatal("tryEvict reported no transition")
	}
	if _, err := ix.Lookup("united"); !errors.Is(err, snapcodec.ErrCorrupt) {
		t.Fatalf("flipped backstore: err = %v, want ErrCorrupt", err)
	}

	// Truncation: the positional read itself fails.
	corrupt(t, func(b []byte) []byte { return b[:len(b)/3] })
	if _, err := ix.Lookup("united"); !errors.Is(err, snapcodec.ErrCorrupt) {
		t.Fatalf("truncated backstore: err = %v, want ErrCorrupt", err)
	}

	// The shard stays cold through the failures (no half-decoded state),
	// and restoring the file restores byte-identical answers.
	if sh.data.Load() != nil {
		t.Fatal("failed page-in left decoded state behind")
	}
	corrupt(t, func(b []byte) []byte { return b })
	got, err := ix.Lookup("united")
	if err != nil {
		t.Fatalf("restored backstore: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored backstore served different postings")
	}
}

package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seda/internal/index"
	"seda/internal/snapcodec"
)

// Disk-backed residency at the engine level: LoadEngineFile hands every
// shard a backing ref into the snapshot file, eviction under a budget
// drops encoded payloads from the heap, SaveEngineFile re-binds a built
// paged engine to the file it just wrote, and a backstore corrupted after
// load degrades to errors — never panics or silently wrong answers.

// backingFixture builds, saves, and returns the resident engine plus its
// snapshot path, queries, and expected answers.
func backingFixture(t *testing.T) (full *Engine, cfg Config, path string, queries []string, want string) {
	t.Helper()
	c := corpusConfigs()[0]
	raw := renderXML(t, c.gen(c.scale))
	cfg = c.cfg
	cfg.Shards = 4
	full = scratchEngine(t, raw, cfg)
	queries = pickQueries(full)
	want = mustCanonical(t, full, queries)
	path = filepath.Join(t.TempDir(), "backing.snap")
	if err := SaveEngineFile(path, full, ""); err != nil {
		t.Fatal(err)
	}
	return full, cfg, path, queries, want
}

// TestBackingTiers: both residency tiers answer byte-identically. An
// engine loaded from a snapshot file ("disk") pages from that file and
// keeps no encoded bytes on the heap; one loaded from memory ("heap") has
// no file to read, never touches the disk, and pays the encoded-heap
// gauge.
func TestBackingTiers(t *testing.T) {
	_, cfg, path, queries, want := backingFixture(t)
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.ResidentBudget = 1
	cases := []struct {
		name     string
		load     func() (*Engine, error)
		wantTier string
	}{
		{"disk", func() (*Engine, error) { return LoadEngineFile(path, pcfg, "") }, index.TierDisk},
		{"heap", func() (*Engine, error) { return LoadEngine(bytes.NewReader(snap), pcfg, "") }, index.TierHeap},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			paged, err := tc.load()
			if err != nil {
				t.Fatal(err)
			}
			if got := mustCanonical(t, paged, queries); got != want {
				t.Fatalf("%s-backed engine diverges from resident", tc.name)
			}
			st, ok := paged.PagerStats()
			if !ok {
				t.Fatal("budgeted engine reports no pager")
			}
			for s, ss := range paged.ShardStats() {
				if ss.Backing != tc.wantTier {
					t.Errorf("shard %d: tier %q, want %q", s, ss.Backing, tc.wantTier)
				}
			}
			if tc.wantTier == index.TierDisk {
				if st.DiskReads == 0 {
					t.Error("file-loaded engine answered without a single disk read")
				}
				if st.EncodedHeapBytes != 0 {
					t.Errorf("file-loaded engine holds %d encoded bytes on the heap", st.EncodedHeapBytes)
				}
			} else {
				if st.DiskReads != 0 {
					t.Errorf("memory-loaded engine performed %d disk reads", st.DiskReads)
				}
				if st.EncodedHeapBytes == 0 {
					t.Error("memory-loaded engine under a 1-byte budget reports no encoded heap bytes")
				}
			}
		})
	}
}

// TestSaveRebindsBacking: a BUILT paged engine (no snapshot, heap tier)
// graduates to disk-backed residency when SaveEngineFile writes one.
func TestSaveRebindsBacking(t *testing.T) {
	c := corpusConfigs()[0]
	raw := renderXML(t, c.gen(c.scale))
	cfg := c.cfg
	cfg.Shards = 4
	cfg.ResidentBudget = 1
	built := scratchEngine(t, raw, cfg)
	queries := pickQueries(built)
	want := mustCanonical(t, built, queries)
	for s, ss := range built.ShardStats() {
		if ss.Backing != index.TierHeap {
			t.Fatalf("shard %d: built engine tier %q, want %q", s, ss.Backing, index.TierHeap)
		}
	}
	st, _ := built.PagerStats()
	if st.DiskReads != 0 {
		t.Fatalf("built engine performed %d disk reads before any save", st.DiskReads)
	}

	path := filepath.Join(t.TempDir(), "rebind.snap")
	if err := SaveEngineFile(path, built, ""); err != nil {
		t.Fatal(err)
	}
	for s, ss := range built.ShardStats() {
		if ss.Backing != index.TierDisk {
			t.Errorf("shard %d: tier %q after save, want %q", s, ss.Backing, index.TierDisk)
		}
	}
	before, _ := built.PagerStats()
	if got := mustCanonical(t, built, queries); got != want {
		t.Error("re-bound engine diverges from its pre-save answers")
	}
	after, _ := built.PagerStats()
	if after.DiskReads == before.DiskReads {
		t.Error("re-bound engine answered without paging from the new snapshot")
	}
}

// TestHostileBackstoreEngine: flipping bytes inside every shard section
// (and truncating the whole file) AFTER a disk-backed load turns page-ins
// into snapcodec.ErrCorrupt errors at the engine's read API — no panics —
// and restoring the file restores byte-identical service.
func TestHostileBackstoreEngine(t *testing.T) {
	_, cfg, path, queries, want := backingFixture(t)
	pcfg := cfg
	pcfg.ResidentBudget = 1
	paged, err := LoadEngineFile(path, pcfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := mustCanonical(t, paged, queries); got != want {
		t.Fatal("disk-backed engine diverges before corruption")
	}

	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sections, err := snapcodec.ScanSections(f, snapshotFormatVersion)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), pristine...)
	shardSections := 0
	for _, sec := range sections {
		if strings.HasPrefix(sec.Name, secIndexShard) {
			flipped[sec.Offset+int64(sec.Size)/2] ^= 0xFF
			shardSections++
		}
	}
	if shardSections != 4 {
		t.Fatalf("scanned %d shard sections, want 4", shardSections)
	}

	// With a 1-byte budget at most one shard is resident, so a flipped
	// byte in EVERY shard section guarantees the next full lookup crosses
	// a corrupt page-in.
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	term := paged.ix.Terms()[0]
	if _, err := paged.ix.Lookup(term); !errors.Is(err, snapcodec.ErrCorrupt) {
		t.Fatalf("flipped backstore: Lookup err = %v, want ErrCorrupt", err)
	}
	if err := os.Truncate(path, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := paged.ix.Lookup(term); !errors.Is(err, snapcodec.ErrCorrupt) {
		t.Fatalf("truncated backstore: Lookup err = %v, want ErrCorrupt", err)
	}

	// Engine-level fallback: the backing refs survive the round-trip, so
	// restoring the file's bytes restores identical answers.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := mustCanonical(t, paged, queries); got != want {
		t.Error("restored backstore serves different answers")
	}
}

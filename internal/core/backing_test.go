package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seda/internal/fulltext"
	"seda/internal/query"
	"seda/internal/snapcodec"
)

// Disk-backed residency at the engine level: LoadEngineFile hands every
// shard a backing ref into the snapshot file, from which each fetch reads
// only the runs it needs into a cache under the budget, a shard with no
// file stays resident and outside the pager, SaveEngineFile brings a
// built paged engine under its budget, and a backstore corrupted after
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

// TestBackingTiers: under a 1-byte budget, an engine loaded from a
// snapshot file ("disk") pages from that file, and one loaded from a
// stream ("heap") has no file to page from, so it stays fully resident:
// no page-in, eviction or disk read, and no run in the pager. Both answer
// byte-identically to the built engine.
func TestBackingTiers(t *testing.T) {
	_, cfg, path, queries, want := backingFixture(t)
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.ResidentBudget = 1

	t.Run("disk", func(t *testing.T) {
		paged, err := LoadEngineFile(path, pcfg, "")
		if err != nil {
			t.Fatal(err)
		}
		if got := mustCanonical(t, paged, queries); got != want {
			t.Fatal("file-loaded engine diverges from resident")
		}
		if st, _ := paged.PagerStats(); st.DiskReads == 0 {
			t.Error("file-loaded engine answered without a single disk read")
		}
	})
	t.Run("heap", func(t *testing.T) {
		loaded, err := LoadEngine(bytes.NewReader(snap), pcfg, "")
		if err != nil {
			t.Fatal(err)
		}
		if got := mustCanonical(t, loaded, queries); got != want {
			t.Fatal("memory-loaded engine diverges from resident")
		}
		st, ok := loaded.PagerStats()
		if !ok {
			t.Fatal("budgeted engine reports no pager")
		}
		if st.PageIns != 0 || st.Evictions != 0 || st.DiskReads != 0 || st.Resident != 0 {
			t.Errorf("memory-loaded engine paged: %+v, want no page-ins, evictions, disk reads or resident runs", st)
		}
		for s, ss := range loaded.ShardStats() {
			if !ss.Resident {
				t.Errorf("shard %d of a memory-loaded engine is not resident", s)
			}
		}
	})
}

// TestSaveRebindsBacking: a BUILT paged engine has no snapshot, so it
// evicts nothing; SaveEngineFile binds its shards to the file it wrote,
// and from then on the engine reads runs from disk under its budget.
func TestSaveRebindsBacking(t *testing.T) {
	c := corpusConfigs()[0]
	raw := renderXML(t, c.gen(c.scale))
	cfg := c.cfg
	cfg.Shards = 4
	cfg.ResidentBudget = 1
	built := scratchEngine(t, raw, cfg)
	queries := pickQueries(built)
	// The answers to compare with come from a second, identically built
	// engine: asking built itself would fill its term cache, and it would
	// then answer the same queries after the save without reading a run.
	want := mustCanonical(t, scratchEngine(t, raw, cfg), queries)
	st, _ := built.PagerStats()
	if st.Evictions != 0 || st.DiskReads != 0 || st.Resident != 0 {
		t.Fatalf("built engine paged before any save: %+v", st)
	}

	path := filepath.Join(t.TempDir(), "rebind.snap")
	if err := SaveEngineFile(path, built, ""); err != nil {
		t.Fatal(err)
	}
	// Binding drops each shard's whole decoded state, one eviction each.
	before, _ := built.PagerStats()
	if before.Evictions != 4 {
		t.Errorf("saving under a 1-byte budget dropped %d of 4 shards' decoded state", before.Evictions)
	}
	for s, ss := range built.ShardStats() {
		if ss.Resident {
			t.Errorf("shard %d kept its whole decoded state after being bound", s)
		}
	}
	if got := mustCanonical(t, built, queries); got != want {
		t.Error("re-bound engine diverges from its pre-save answers")
	}
	after, _ := built.PagerStats()
	if after.DiskReads == before.DiskReads {
		t.Error("re-bound engine answered without reading runs from the new snapshot")
	}
	if after.Resident > 1 {
		t.Errorf("1-byte budget left %d runs resident", after.Resident)
	}
}

// TestUnsavedIngestStaysResident: generations derived from an unsaved
// budgeted engine have no snapshot to page from, so the pager caches no
// run of their shards — in particular not the tail shards each ingest
// replaces, which would otherwise stay reachable through it forever.
func TestUnsavedIngestStaysResident(t *testing.T) {
	c := corpusConfigs()[0]
	raw := renderXML(t, c.gen(c.scale))
	cfg := c.cfg
	cfg.Shards = 4
	cfg.ResidentBudget = 1
	const gens = 5
	cut := len(raw) - gens
	if cut < 1 {
		t.Fatalf("corpus of %d docs too small for %d ingests", len(raw), gens)
	}
	eng := scratchEngine(t, raw[:cut], cfg)
	for i := 0; i < gens; i++ {
		next, err := eng.AddDocumentsXML(raw[cut+i : cut+i+1])
		if err != nil {
			t.Fatal(err)
		}
		eng = next
		mustCanonical(t, eng, pickQueries(eng))
		if st, _ := eng.PagerStats(); st.Resident != 0 || st.Evictions != 0 {
			t.Fatalf("generation %d: pager holds %d runs (%d evictions), want none", i+1, st.Resident, st.Evictions)
		}
	}
}

// TestBackingSurvivesRenameOver: a save that renames another engine's
// snapshot over the file a paged engine was loaded from leaves that engine
// paging from the inode it decoded — the handle it read the file through.
func TestBackingSurvivesRenameOver(t *testing.T) {
	_, cfg, path, queries, want := backingFixture(t)
	pcfg := cfg
	pcfg.ResidentBudget = 1
	paged, err := LoadEngineFile(path, pcfg, "")
	if err != nil {
		t.Fatal(err)
	}
	c := corpusConfigs()[1]
	other := scratchEngine(t, renderXML(t, c.gen(c.scale)), c.cfg)
	if err := SaveEngineFile(path, other, ""); err != nil {
		t.Fatal(err)
	}
	if got := mustCanonical(t, paged, queries); got != want {
		t.Error("paged engine diverges after another snapshot was renamed over its file")
	}
	if st, _ := paged.PagerStats(); st.DiskReads == 0 {
		t.Error("paged engine answered without a single disk read")
	}
}

// TestHostileBackstoreEngine: flipping the bytes of every shard section
// (and truncating the whole file) AFTER a disk-backed load turns run
// fetches into snapcodec.ErrCorrupt errors at the engine's read API — no panics —
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
	// A run fetch reads and verifies only its own run, and damage outside
	// it does not change its answer, so every byte of every shard section
	// is flipped: any run a lookup reads is corrupt.
	flipped := append([]byte(nil), pristine...)
	shardSections := 0
	for _, sec := range sections {
		if strings.HasPrefix(sec.Name, secIndexShard) {
			for i := sec.Offset; i < sec.Offset+int64(sec.Size); i++ {
				flipped[i] ^= 0xFF
			}
			shardSections++
		}
	}
	if shardSections != 4 {
		t.Fatalf("scanned %d shard sections, want 4", shardSections)
	}

	// With a 1-byte budget at most one run is resident: after matching
	// another term, every run of term is cold and must be read.
	words := docWords(paged)
	term := query.Term{Search: fulltext.Word{Term: words[0]}}
	other := query.Term{Search: fulltext.Word{Term: words[1]}}
	if _, err := paged.ix.MatchTerm(other); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := paged.ix.MatchTerm(term); !errors.Is(err, snapcodec.ErrCorrupt) {
		t.Fatalf("flipped backstore: MatchTerm err = %v, want ErrCorrupt", err)
	}
	if err := os.Truncate(path, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := paged.ix.MatchTerm(term); !errors.Is(err, snapcodec.ErrCorrupt) {
		t.Fatalf("truncated backstore: MatchTerm err = %v, want ErrCorrupt", err)
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

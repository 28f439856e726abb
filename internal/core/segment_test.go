package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"seda/internal/datagen"
)

// TestSegmentsCompactToConfiguredShards: ingests append segments, and a
// compaction folds them back into the configured base layout — not one
// shard per segment — directly, after a save and load, and after a paged
// load whose further ingests merge segments served from the file.
func TestSegmentsCompactToConfiguredShards(t *testing.T) {
	c := corpusConfigs()[1]
	raw := renderXML(t, c.gen(c.scale))
	const ingests = 20
	if len(raw) < ingests+6 {
		t.Fatalf("corpus of %d docs too small", len(raw))
	}
	cfg := c.cfg
	cfg.Shards = 3
	cut := len(raw) - ingests - 3
	eng := scratchEngine(t, raw[:cut], cfg)
	for i := range ingests {
		next, err := eng.AddDocumentsXML(raw[cut+i : cut+i+1])
		if err != nil {
			t.Fatal(err)
		}
		eng = next
	}
	eng, _, err := eng.DeleteDocuments(raw[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	segs := eng.NumShards() - 3
	if segs < 2 || segs > 5 { // log2(20)+1
		t.Fatalf("20 ingests left %d segments, want 2 to 5", segs)
	}
	compacted, err := eng.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if n := compacted.NumShards(); n != 3 {
		t.Errorf("compacted engine has %d shards, want the configured 3", n)
	}

	path := filepath.Join(t.TempDir(), "segmented.snap")
	if err := SaveEngineFile(path, eng, ""); err != nil {
		t.Fatal(err)
	}
	le, err := LoadEngineAuto(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if le.Config.Shards != 3 || le.Engine.NumShards() != eng.NumShards() {
		t.Errorf("loaded config says %d shards and the engine has %d, want 3 and %d", le.Config.Shards, le.Engine.NumShards(), eng.NumShards())
	}
	if compacted, err := le.Engine.Compact(); err != nil {
		t.Fatal(err)
	} else if n := compacted.NumShards(); n != 3 {
		t.Errorf("loaded and compacted engine has %d shards, want the configured 3", n)
	}
	var a, b bytes.Buffer
	if err := SaveEngine(&a, eng, ""); err != nil {
		t.Fatal(err)
	}
	if err := SaveEngine(&b, le.Engine, ""); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("save→load→save of a segmented engine is not byte-identical")
	}

	// Served run by run from the file, the segments merge with the next
	// ingests, and every generation answers like a build over its live
	// documents.
	pcfg := cfg
	pcfg.ResidentBudget = 1
	paged, err := LoadEngineFile(path, pcfg, "")
	if err != nil {
		t.Fatal(err)
	}
	queries := pickQueries(eng)
	live := raw[1 : cut+ingests]
	for i := range 3 {
		doc := raw[cut+ingests+i : cut+ingests+i+1]
		if paged, err = paged.AddDocumentsXML(doc); err != nil {
			t.Fatal(err)
		}
		live = append(live, doc...)
		if got, want := mustCanonical(t, paged, queries), mustCanonical(t, scratchEngine(t, live, cfg), queries); got != want {
			t.Fatalf("paged engine after %d more ingests diverges\n--- scratch ---\n%s\n--- paged ---\n%s", i+1, want, got)
		}
	}
}

// TestWriteCostFlatInCorpus: a write costs the document, not the corpus.
// One single-document ingest, one update and one delete through the
// engine — collection, index, link graph and dataguide summary, the
// steps derive takes for them — allocate less than 1.5 times as much on
// Mondial at scale 0.5 (the lifecycle.churn corpus) as at scale 0.125.
func TestWriteCostFlatInCorpus(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cost := func(scale float64) uint64 {
		eng, err := NewEngine(datagen.Mondial(scale), Config{Discover: datagen.DiscoverOptionsFor("mondial")})
		if err != nil {
			t.Fatal(err)
		}
		rev := func(i int) []byte {
			return fmt.Appendf(nil, `<city id="w1" country="c001"><name>zqwrite rev%d</name></city>`, i)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if eng, err = eng.AddDocumentsXML([]IngestDoc{{Name: "w.xml", XML: rev(1)}}); err != nil {
			t.Fatal(err)
		}
		if eng, err = eng.UpdateDocumentXML("w.xml", rev(2)); err != nil {
			t.Fatal(err)
		}
		if eng, _, err = eng.DeleteDocuments("w.xml"); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := cost(0.125), cost(0.5)
	t.Logf("ingest+update+delete allocate %.0f kB at scale 0.125, %.0f kB at 0.5", float64(small)/1e3, float64(large)/1e3)
	if ratio := float64(large) / float64(small); ratio >= 1.5 {
		t.Errorf("4x the corpus allocates %.2fx per write cycle, want under 1.5x", ratio)
	}
}

package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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

// partsOf returns the elements of the slice field name of the struct v
// points to as addresses, so a test can tell a kept part from a re-folded
// one: the index's shards, the graph's layers, the dataguide's parts.
func partsOf(v any, name string) []uintptr {
	f := reflect.ValueOf(v).Elem().FieldByName(name)
	out := make([]uintptr, f.Len())
	for i := range out {
		out[i] = f.Index(i).Pointer()
	}
	return out
}

// TestCompactKeepsBase: when only documents ingested one at a time since
// the build have died, a compaction keeps the predecessor's base — its
// index base shards, graph base layer and dataguide base part, the very
// same objects — folds the survivors after the first dead document as
// one segment, leaves at most log2(d)+1 segments over the d ingested
// documents, and answers like a build over the survivors.
// TestSegmentsCompactToConfiguredShards covers the rebuild a dead base
// document forces.
func TestCompactKeepsBase(t *testing.T) {
	c := corpusConfigs()[1]
	raw := renderXML(t, c.gen(c.scale))
	const ingests = 24
	if len(raw) < ingests+2 {
		t.Fatalf("corpus of %d docs too small", len(raw))
	}
	cfg := c.cfg
	cfg.Shards = 2
	cut := len(raw) - ingests
	eng := scratchEngine(t, raw[:cut], cfg)
	live := raw[:cut]
	for i, d := range raw[cut:] {
		next, err := eng.AddDocumentsXML([]IngestDoc{d})
		if err != nil {
			t.Fatal(err)
		}
		eng = next
		if i%3 == 0 {
			live = append(live, d)
			continue
		}
		if eng, _, err = eng.DeleteDocuments(d.Name); err != nil {
			t.Fatal(err)
		}
	}
	compacted, err := eng.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if compacted.col.Tombstones().Len() != 0 || compacted.NumLiveDocs() != len(live) {
		t.Fatalf("compacted engine has %d tombstones and %d live documents, want 0 and %d",
			compacted.col.Tombstones().Len(), compacted.NumLiveDocs(), len(live))
	}
	for _, layer := range []struct {
		name       string
		prev, next any
		field      string
		base       int
	}{
		{"index", eng.ix, compacted.ix, "shards", eng.ix.NumBaseShards()},
		{"graph", eng.g, compacted.g, "layers", 1},
		{"dataguide", eng.dg, compacted.dg, "parts", 1},
	} {
		prev, next := partsOf(layer.prev, layer.field), partsOf(layer.next, layer.field)
		if len(next) < layer.base || !slices.Equal(next[:layer.base], prev[:layer.base]) {
			t.Errorf("%s: the compaction did not keep the predecessor's base", layer.name)
		}
		if segs := len(next) - layer.base; segs > bits.Len(ingests) {
			t.Errorf("%s: %d segments after %d ingests, want at most %d", layer.name, segs, ingests, bits.Len(ingests))
		}
	}
	if n := compacted.ix.NumBaseShards(); n != 2 {
		t.Errorf("compacted engine has %d base shards, want the configured 2", n)
	}
	queries := pickQueries(compacted)
	if got, want := mustCanonical(t, compacted, queries), mustCanonical(t, scratchEngine(t, live, cfg), queries); got != want {
		t.Errorf("compacted engine diverges from a build over the survivors\n--- scratch ---\n%s\n--- compacted ---\n%s", want, got)
	}
}

// TestWriteCostFlatInCorpus: a write costs the document, not the corpus.
// One single-document ingest, one update and one delete through the
// engine — collection, index, link graph and dataguide summary, the
// steps derive takes for them — allocate less than 1.5 times as much on
// Mondial at scale 0.5 (the lifecycle.churn corpus) as at scale 0.125;
// and so does the compaction after 30 single-document ingest-and-delete
// cycles, which keeps the base and drops the segments.
func TestWriteCostFlatInCorpus(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	allocs := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cost := func(scale float64) (write, compact uint64) {
		eng, err := NewEngine(datagen.Mondial(scale), Config{Discover: datagen.DiscoverOptionsFor("mondial")})
		if err != nil {
			t.Fatal(err)
		}
		rev := func(i int) []byte {
			return fmt.Appendf(nil, `<city id="w1" country="c001"><name>zqwrite rev%d</name></city>`, i)
		}
		write = allocs(func() {
			if eng, err = eng.AddDocumentsXML([]IngestDoc{{Name: "w.xml", XML: rev(1)}}); err != nil {
				t.Fatal(err)
			}
			if eng, err = eng.UpdateDocumentXML("w.xml", rev(2)); err != nil {
				t.Fatal(err)
			}
			if eng, _, err = eng.DeleteDocuments("w.xml"); err != nil {
				t.Fatal(err)
			}
		})
		for i := range 30 {
			if eng, err = eng.AddDocumentsXML([]IngestDoc{{Name: "w.xml", XML: rev(i)}}); err != nil {
				t.Fatal(err)
			}
			if eng, _, err = eng.DeleteDocuments("w.xml"); err != nil {
				t.Fatal(err)
			}
		}
		compact = allocs(func() {
			if eng, err = eng.Compact(); err != nil {
				t.Fatal(err)
			}
		})
		return write, compact
	}
	smallWrite, smallCompact := cost(0.125)
	largeWrite, largeCompact := cost(0.5)
	t.Logf("ingest+update+delete allocate %.0f kB at scale 0.125, %.0f kB at 0.5", float64(smallWrite)/1e3, float64(largeWrite)/1e3)
	t.Logf("a compaction after 30 ingest-and-delete cycles allocates %.0f kB at scale 0.125, %.0f kB at 0.5", float64(smallCompact)/1e3, float64(largeCompact)/1e3)
	if ratio := float64(largeWrite) / float64(smallWrite); ratio >= 1.5 {
		t.Errorf("4x the corpus allocates %.2fx per write cycle, want under 1.5x", ratio)
	}
	if ratio := float64(largeCompact) / float64(smallCompact); ratio >= 1.5 {
		t.Errorf("4x the corpus allocates %.2fx per compaction, want under 1.5x", ratio)
	}
}

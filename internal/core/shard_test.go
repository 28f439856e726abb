package core

import (
	"bytes"
	"path/filepath"
	"testing"
)

// The tentpole invariant of engine sharding: a multi-shard engine answers
// top-k, context summaries, and connection summaries byte-identically to
// a single-shard engine over the same documents — after a fresh build,
// after a snapshot save/load round trip, and after incremental ingest
// (which re-extends only the tail shard, so the partition differs from a
// fresh multi-shard build's; answers must not care). Run under -race
// (make test does) to also exercise the scatter-gather and parallel
// snapshot I/O paths.

// TestShardEquivalence is the acceptance criterion, across all four
// corpora.
func TestShardEquivalence(t *testing.T) {
	for _, c := range corpusConfigs() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			raw := renderXML(t, c.gen(c.scale))
			if len(raw) < 5 {
				t.Fatalf("corpus too small: %d docs", len(raw))
			}
			one := scratchEngine(t, raw, c.cfg)
			queries := pickQueries(one)
			if len(queries) == 0 {
				t.Fatal("no queries derived from vocabulary")
			}
			want := mustCanonical(t, one, queries)

			cfg4 := c.cfg
			cfg4.Shards = 4
			sharded := scratchEngine(t, raw, cfg4)
			if got := sharded.NumShards(); got != 4 {
				t.Fatalf("NumShards = %d, want 4", got)
			}
			if got := mustCanonical(t, sharded, queries); got != want {
				t.Errorf("fresh 4-shard build diverges from 1-shard\n--- 1-shard ---\n%s\n--- 4-shard ---\n%s", want, got)
			}

			// Snapshot round trip: the container persists one section
			// group per shard and the loaded engine adopts that layout.
			path := filepath.Join(t.TempDir(), "sharded.snap")
			if err := SaveEngineFile(path, sharded, ""); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadEngineFile(path, cfg4, "")
			if err != nil {
				t.Fatal(err)
			}
			if got := loaded.NumShards(); got != 4 {
				t.Fatalf("loaded NumShards = %d, want 4", got)
			}
			if got := mustCanonical(t, loaded, queries); got != want {
				t.Errorf("snapshot-loaded 4-shard engine diverges\n--- 1-shard ---\n%s\n--- loaded ---\n%s", want, got)
			}

			// Incremental ingest: a segment is appended; every base shard
			// is untouched.
			incr := incrementalEngine(t, raw, cfg4, len(raw)*3/5, 2)
			if got := mustCanonical(t, incr, queries); got != want {
				t.Errorf("4-shard engine after ingest diverges\n--- 1-shard ---\n%s\n--- ingested ---\n%s", want, got)
			}
		})
	}
}

// TestShardLocalIngestRouting: an ingest must leave every base shard's
// stats (and hence its structures) as they were, and append a segment
// over exactly the added documents.
func TestShardLocalIngestRouting(t *testing.T) {
	c := corpusConfigs()[0]
	raw := renderXML(t, c.gen(c.scale))
	cfg := c.cfg
	cfg.Shards = 3
	base := scratchEngine(t, raw[:len(raw)-2], cfg)
	before := base.ShardStats()
	if len(before) != 3 {
		t.Fatalf("base has %d shards, want 3", len(before))
	}
	next, err := base.AddDocumentsXML(raw[len(raw)-2:])
	if err != nil {
		t.Fatal(err)
	}
	after := next.ShardStats()
	if len(after) != 4 {
		t.Fatalf("ingested engine has %d shards, want 3 and a segment", len(after))
	}
	for i := 0; i < 3; i++ {
		if after[i] != before[i] {
			t.Errorf("base shard %d changed across ingest: before %+v, after %+v", i, before[i], after[i])
		}
	}
	seg := after[3]
	if !seg.Segment || seg.Lo != before[2].Hi || seg.Hi != next.Collection().NumDocs() {
		t.Errorf("segment %+v, want one over [%d, %d)", seg, before[2].Hi, next.Collection().NumDocs())
	}
}

// TestShardedSnapshotByteDeterminism: save → load → save must reproduce
// the container byte for byte, at any shard count and any encode
// parallelism.
func TestShardedSnapshotByteDeterminism(t *testing.T) {
	c := corpusConfigs()[0]
	raw := renderXML(t, c.gen(c.scale))
	cfg := c.cfg
	cfg.Shards = 4
	cfg.Parallelism = 4
	eng := scratchEngine(t, raw, cfg)

	var first bytes.Buffer
	if err := SaveEngine(&first, eng, "determinism"); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(bytes.NewReader(first.Bytes()), cfg, "determinism")
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := SaveEngine(&second, loaded, "determinism"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("save→load→save is not byte-identical (%d vs %d bytes)", first.Len(), second.Len())
	}

	// A sequential encode of the same engine produces the same bytes.
	seqCfg := cfg
	seqCfg.Parallelism = 1
	seq, err := LoadEngine(bytes.NewReader(first.Bytes()), seqCfg, "determinism")
	if err != nil {
		t.Fatal(err)
	}
	var third bytes.Buffer
	if err := SaveEngine(&third, seq, "determinism"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), third.Bytes()) {
		t.Error("sequential and parallel snapshot encodes differ")
	}
}

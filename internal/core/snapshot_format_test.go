package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// TestSnapshotFrameLayout decodes an engine snapshot with a hand-rolled
// reader that follows the wire-format specification in ARCHITECTURE.md
// ("The SEDASNAP container") literally — independent of internal/snapcodec
// — so a codec change that silently diverges from the documented frame
// layout fails here. If this test needs editing, ARCHITECTURE.md needs the
// same edit.
func TestSnapshotFrameLayout(t *testing.T) {
	t.Run("one-shard", func(t *testing.T) {
		testSnapshotFrameLayout(t, Config{}, nil,
			[]string{"meta", "pathdict", "collection", "graph", "index.0", "dataguide"})
	})
	t.Run("two-shard", func(t *testing.T) {
		// One index.<n> section per shard, in shard order.
		testSnapshotFrameLayout(t, Config{Shards: 2}, nil,
			[]string{"meta", "pathdict", "collection", "graph", "index.0", "index.1", "dataguide"})
	})
	t.Run("masked", func(t *testing.T) {
		// A generation carrying tombstones adds the "tombstones" section
		// between graph and the index shards; unmasked engines omit it
		// (the two subtests above double as that check).
		testSnapshotFrameLayout(t, Config{}, func(e *Engine) *Engine {
			ne, n, err := e.DeleteDocuments("b.xml")
			if err != nil || n != 1 {
				t.Fatalf("DeleteDocuments: n=%d err=%v", n, err)
			}
			return ne
		}, []string{"meta", "pathdict", "collection", "graph", "tombstones", "index.0", "dataguide"})
	})
	t.Run("segmented", func(t *testing.T) {
		// An ingest appends a segment, saved as "segment.<n>" after the
		// base shards' index.<n> sections.
		testSnapshotFrameLayout(t, Config{}, func(e *Engine) *Engine {
			ne, err := e.AddDocumentsXML([]IngestDoc{{Name: "c.xml", XML: []byte(`<lab id="l3"><name>gamma</name></lab>`)}})
			if err != nil {
				t.Fatalf("AddDocumentsXML: %v", err)
			}
			return ne
		}, []string{"meta", "pathdict", "collection", "graph", "index.0", "segment.0", "dataguide"})
	})
}

func testSnapshotFrameLayout(t *testing.T, cfg Config, mutate func(*Engine) *Engine, wantSections []string) {
	eng := scratchEngine(t, []IngestDoc{
		{Name: "a.xml", XML: []byte(`<lab id="l1"><name>alpha</name><member ref="l2">ann</member></lab>`)},
		{Name: "b.xml", XML: []byte(`<lab id="l2"><name>beta</name></lab>`)},
	}, cfg)
	if mutate != nil {
		eng = mutate(eng)
	}
	var buf bytes.Buffer
	if err := SaveEngine(&buf, eng, "spec-check"); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	off := 0

	// Per spec, a uvarint is Go's encoding/binary unsigned varint.
	uvarint := func(what string) uint64 {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			t.Fatalf("truncated uvarint (%s) at offset %d", what, off)
		}
		off += n
		return v
	}
	// Per spec, a string is a uvarint byte length followed by the bytes.
	str := func(what string) string {
		n := int(uvarint(what + " length"))
		if off+n > len(data) {
			t.Fatalf("string (%s) of %d bytes overruns input at offset %d", what, n, off)
		}
		s := string(data[off : off+n])
		off += n
		return s
	}

	// Frame 1: the 8-byte magic.
	if string(data[:8]) != "SEDASNAP" {
		t.Fatalf("magic = %q, want %q", data[:8], "SEDASNAP")
	}
	off = 8
	// Frame 2: container format version (currently 4: per-shard index
	// sections carrying the delta-compressed shard codec, plus the
	// optional tombstones section).
	if v := uvarint("container version"); v != 4 {
		t.Fatalf("container version = %d, want 4", v)
	}
	// Frame 3: section count. A full engine (dataguides enabled) carries
	// the documented sections in write order: the corpus-global layers
	// plus one index.<n> section per shard.
	count := uvarint("section count")
	if int(count) != len(wantSections) {
		t.Fatalf("section count = %d, want %d", count, len(wantSections))
	}

	// Per section: name (string), payload length (uvarint), CRC-32C of the
	// payload (4 bytes big-endian, Castagnoli), payload bytes.
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	payloads := make(map[string][]byte, count)
	for i := 0; i < int(count); i++ {
		name := str("section name")
		if name != wantSections[i] {
			t.Fatalf("section %d = %q, want %q", i, name, wantSections[i])
		}
		plen := int(uvarint("payload length"))
		if off+4+plen > len(data) {
			t.Fatalf("section %q claims %d payload bytes, only %d remain", name, plen, len(data)-off-4)
		}
		storedCRC := binary.BigEndian.Uint32(data[off:])
		off += 4
		payload := data[off : off+plen]
		off += plen
		if got := crc32.Checksum(payload, castagnoli); got != storedCRC {
			t.Fatalf("section %q: stored CRC %08x, computed %08x", name, storedCRC, got)
		}
		payloads[name] = payload
	}
	if off != len(data) {
		t.Fatalf("%d trailing bytes after the last section", len(data)-off)
	}

	// The meta payload starts with its own version uvarint (currently 1),
	// then the config fingerprint and the source tag as strings.
	meta := payloads["meta"]
	data, off = meta, 0
	if v := uvarint("meta version"); v != 1 {
		t.Fatalf("meta version = %d, want 1", v)
	}
	if fp := str("fingerprint"); fp != cfg.Fingerprint() {
		t.Fatalf("stored fingerprint %q does not match Config.Fingerprint() %q", fp, cfg.Fingerprint())
	}
	if src := str("source tag"); src != "spec-check" {
		t.Fatalf("stored source tag %q, want %q", src, "spec-check")
	}

	// The tombstones payload (v4, present only on masked generations):
	// codec version uvarint (currently 1), tombstone count uvarint, then
	// per tombstone the uvarint gap delta id-prev-1 (the first id
	// verbatim, prev starting at -1).
	if ts, ok := payloads["tombstones"]; ok {
		data, off = ts, 0
		if v := uvarint("tombstones codec version"); v != 1 {
			t.Fatalf("tombstones codec version = %d, want 1", v)
		}
		n := uvarint("tombstone count")
		if n != 1 {
			t.Fatalf("tombstone count = %d, want 1 (b.xml)", n)
		}
		// b.xml is document id 1; the first gap delta is the id itself.
		if id := uvarint("tombstone gap"); id != 1 {
			t.Fatalf("first tombstone id = %d, want 1", id)
		}
		if off != len(data) {
			t.Fatalf("%d trailing bytes after the tombstone ids", len(data)-off)
		}
	}
}

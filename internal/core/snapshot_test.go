package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seda/internal/datagen"
	"seda/internal/snapcodec"
	"seda/internal/store"
)

var snapQueries = []string{`(*, "United States") AND (trade_country, *)`}

func saveToBytes(t *testing.T, e *Engine, source string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveEngine(&buf, e, source); err != nil {
		t.Fatalf("SaveEngine: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	e := newEngine(t)
	data := saveToBytes(t, e, "test-source")

	got, err := LoadEngine(bytes.NewReader(data), Config{}, "test-source")
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	if got.Collection().NumDocs() != e.Collection().NumDocs() ||
		got.Collection().NumNodes() != e.Collection().NumNodes() {
		t.Fatal("collection shape differs")
	}
	if got.Graph().NumEdges() != e.Graph().NumEdges() {
		t.Fatal("graph differs")
	}
	if len(got.Dataguides().Guides) != len(e.Dataguides().Guides) {
		t.Fatal("dataguide summary differs")
	}
	if want, have := mustCanonical(t, e, snapQueries), mustCanonical(t, got, snapQueries); want != have {
		t.Errorf("behavior differs after load:\nbuilt:\n%s\nloaded:\n%s", want, have)
	}
	if got.BuildTimings["load"] == 0 {
		t.Error("loaded engine should record a load timing")
	}
}

// TestSnapshotDeterminism is the save→load→save contract: the snapshot of
// a loaded engine is byte-identical to the snapshot it was loaded from.
func TestSnapshotDeterminism(t *testing.T) {
	e := newEngine(t)
	data := saveToBytes(t, e, "s")
	loaded, err := LoadEngine(bytes.NewReader(data), Config{}, "")
	if err != nil {
		t.Fatal(err)
	}
	again := saveToBytes(t, loaded, "s")
	if !bytes.Equal(data, again) {
		t.Errorf("save→load→save not byte-identical (%d vs %d bytes)", len(data), len(again))
	}
	// And a second save of the original engine is stable too.
	if !bytes.Equal(data, saveToBytes(t, e, "s")) {
		t.Error("re-saving the same engine produced different bytes")
	}
}

// TestSnapshotBytesPinned pins the whole snapshot of a fixed corpus. The
// one-shard digest was computed before the dataguide fold moved from path
// maps to bitsets, and the masked four-shard digest (which adds the
// tombstones section and one index.<n> section per shard) before the
// retired container versions were deleted. The masked Mondial digest
// (IDREF links, one value-link spec, a re-fold after a delete) was
// computed before link derivation became one fold, so it pins the graph's
// edge order. They hold only while every layer still writes the same
// bytes; change them only with a deliberate format change.
func TestSnapshotBytesPinned(t *testing.T) {
	mondialCfg := Config{
		Discover:   datagen.DiscoverOptionsFor("mondial"),
		ValueLinks: []ValueLink{{FromPath: "/city/country", ToPath: "/country/id", Label: "in country"}},
	}
	for _, tc := range []struct {
		name   string
		gen    func(float64) *store.Collection
		cfg    Config
		shards int
		delete bool
		want   string
	}{
		{"one-shard", datagen.WorldFactbook, Config{}, 1, false, "61a352919beb764e7a4e76b50734927fc17f3265844d7acf2b87e6590a3278c8"},
		{"four-shard-masked", datagen.WorldFactbook, Config{}, 4, true, "d387a66daaac2f095f3675c81039446494e57dec1afb5ff87aa7d3bb1f1df184"},
		{"mondial-linked-masked", datagen.Mondial, mondialCfg, 2, true, "0b1dcfd14c912eb7de7cf5602624884896248a663e0be50010412acc705134fa"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Parallelism, cfg.Shards = 1, tc.shards
			e, err := NewEngine(tc.gen(0.1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.delete {
				if e, _, err = e.DeleteDocuments(e.Collection().Doc(3).Name); err != nil {
					t.Fatal(err)
				}
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(saveToBytes(t, e, ""))); got != tc.want {
				t.Errorf("%s snapshot sha256 = %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}

func TestSnapshotConfigMismatch(t *testing.T) {
	e := newEngine(t) // built with the default threshold 0.40
	data := saveToBytes(t, e, "")

	_, err := LoadEngine(bytes.NewReader(data), Config{DataguideThreshold: 0.8}, "")
	if !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("threshold mismatch err = %v, want ErrConfigMismatch", err)
	}
	// An explicitly-spelled default must match the zero-value spelling.
	if _, err := LoadEngine(bytes.NewReader(data), Config{DataguideThreshold: 0.40}, ""); err != nil {
		t.Errorf("equivalent config rejected: %v", err)
	}
	// Parallelism is excluded from the fingerprint and never persisted:
	// the loaded engine runs at the caller's setting.
	if le, err := LoadEngine(bytes.NewReader(data), Config{Parallelism: 3}, ""); err != nil {
		t.Errorf("parallelism should not affect the fingerprint: %v", err)
	} else if le.cfg.Parallelism != 3 {
		t.Errorf("loaded engine Parallelism = %d, want the caller's 3", le.cfg.Parallelism)
	}
	// Discover options are part of the fingerprint.
	cfg := Config{}
	cfg.Discover.IDRefAttrs = []string{"custom_ref"}
	if _, err := LoadEngine(bytes.NewReader(data), cfg, ""); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("discover mismatch err = %v, want ErrConfigMismatch", err)
	}
}

// TestFingerprintInjective: configs that differ only by delimiter
// characters inside list elements must not fingerprint identically.
func TestFingerprintInjective(t *testing.T) {
	a := Config{}
	a.Discover.IDAttrs = []string{"a,b"}
	b := Config{}
	b.Discover.IDAttrs = []string{"a", "b"}
	if a.Fingerprint() == b.Fingerprint() {
		t.Errorf("list-element collision: %q", a.Fingerprint())
	}
	c := Config{ValueLinks: []ValueLink{{FromPath: "/x>y", ToPath: "/z", Label: "l"}}}
	d := Config{ValueLinks: []ValueLink{{FromPath: "/x", ToPath: "y>/z", Label: "l"}}}
	if c.Fingerprint() == d.Fingerprint() {
		t.Errorf("value-link collision: %q", c.Fingerprint())
	}
	// Equal configs still agree, and resolution still normalizes defaults.
	if (Config{}).Fingerprint() != (Config{DataguideThreshold: 0.40}).Fingerprint() {
		t.Error("equivalent configs fingerprint differently")
	}
}

func TestSnapshotSourceMismatch(t *testing.T) {
	e := newEngine(t)
	data := saveToBytes(t, e, "builtin:worldfactbook@scale=0.1")
	_, err := LoadEngine(bytes.NewReader(data), Config{}, "builtin:worldfactbook@scale=0.2")
	if !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("source mismatch err = %v, want ErrConfigMismatch", err)
	}
	// No expectation: the tag is informational.
	if _, err := LoadEngine(bytes.NewReader(data), Config{}, ""); err != nil {
		t.Errorf("load without source expectation: %v", err)
	}
}

func TestSnapshotHostileInputs(t *testing.T) {
	e := newEngine(t)
	data := saveToBytes(t, e, "")

	// Not a snapshot at all.
	if _, err := LoadEngine(bytes.NewReader([]byte("<xml/>")), Config{}, ""); !errors.Is(err, ErrNotSnapshot) {
		t.Errorf("bad magic err = %v, want ErrNotSnapshot", err)
	}

	// Unknown container version.
	bad := append([]byte{}, data...)
	bad[len(snapcodec.Magic)] = 0x63 // version varint 99
	if _, err := LoadEngine(bytes.NewReader(bad), Config{}, ""); !errors.Is(err, snapcodec.ErrVersion) {
		t.Errorf("future version err = %v, want ErrVersion", err)
	}

	// Corrupted payload byte: the section checksum must catch it.
	bad = append([]byte{}, data...)
	bad[len(bad)/2] ^= 0xFF
	if _, err := LoadEngine(bytes.NewReader(bad), Config{}, ""); err == nil {
		t.Error("corrupted byte should fail")
	}

	// Truncation sweep: every prefix errors, never panics. Stride through
	// the body but hit every boundary of the first 512 bytes exactly.
	for cut := 0; cut < len(data); cut += 1 + cut/512*31 {
		if _, err := LoadEngine(bytes.NewReader(data[:cut]), Config{}, ""); err == nil {
			t.Errorf("cut=%d: expected error", cut)
		}
	}
}

// TestSnapshotWithoutDataguideRefused: the meta section's retired
// skip-dataguides slot is always written false. A snapshot that stores
// true carries no dataguide section, and every engine serves §6's
// connection summary, so each load entry point refuses it with
// snapcodec.ErrVersion (rebuild from source).
func TestSnapshotWithoutDataguideRefused(t *testing.T) {
	e := newEngine(t)
	sections, err := snapcodec.ReadContainer(saveToBytes(t, e, ""), snapshotFormatVersion)
	if err != nil {
		t.Fatal(err)
	}
	var meta snapcodec.Writer
	meta.Int(metaVersion)
	meta.String(strings.Replace(e.cfg.Fingerprint(), ";skipdataguides=false", ";skipdataguides=true", 1))
	meta.String("")
	encodeConfig(&meta, e.cfg)
	payload := meta.Bytes()
	if payload[len(payload)-1] != 0 {
		t.Fatal("the skip-dataguides slot is not written false")
	}
	payload[len(payload)-1] = 1
	var secs []snapcodec.Section
	for _, sec := range sections {
		switch sec.Name {
		case secMeta:
			secs = append(secs, snapcodec.Section{Name: secMeta, Payload: payload})
		case secDataguide:
		default:
			secs = append(secs, sec)
		}
	}
	var buf bytes.Buffer
	if err := snapcodec.WriteContainer(&buf, snapshotFormatVersion, secs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "nodg.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, errLoad := LoadEngine(bytes.NewReader(buf.Bytes()), Config{}, "")
	_, errFile := LoadEngineFile(path, Config{}, "")
	_, errAuto := LoadEngineAuto(path, Config{})
	for name, err := range map[string]error{"LoadEngine": errLoad, "LoadEngineFile": errFile, "LoadEngineAuto": errAuto} {
		if !errors.Is(err, snapcodec.ErrVersion) {
			t.Errorf("%s err = %v, want ErrVersion", name, err)
		}
	}
}

func TestSaveEngineFileAtomic(t *testing.T) {
	e := newEngine(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "col.snap")
	if err := SaveEngineFile(path, e, "src"); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place: the rename replaces the old snapshot.
	if err := SaveEngineFile(path, e, "src"); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "col.snap" {
		t.Errorf("directory not clean after save: %v", entries)
	}
	if _, err := LoadEngineFile(path, Config{}, "src"); err != nil {
		t.Fatal(err)
	}
}

// TestLoadEngineAutoV1Compat: LoadEngineAuto adopts a snapshot with its
// stored config and refuses anything that is not one.
func TestLoadEngineAutoV1Compat(t *testing.T) {
	e := newEngine(t)
	dir := t.TempDir()

	// A real snapshot: adopted with its stored config, no rebuild.
	snapPath := filepath.Join(dir, "col.snap")
	if err := SaveEngineFile(snapPath, e, "tagged"); err != nil {
		t.Fatal(err)
	}
	le, err := LoadEngineAuto(snapPath, Config{Parallelism: 2})
	if err != nil {
		t.Fatalf("LoadEngineAuto(snapshot): %v", err)
	}
	if le.Source != "tagged" {
		t.Errorf("Source=%q", le.Source)
	}
	if le.Config.Fingerprint() != e.cfg.Fingerprint() {
		t.Error("stored config not adopted")
	}
	if le.Config.Parallelism != 2 || le.Engine.cfg.Parallelism != 2 {
		t.Errorf("Parallelism %d (engine %d), want the caller's 2", le.Config.Parallelism, le.Engine.cfg.Parallelism)
	}
	if want, have := mustCanonical(t, e, snapQueries), mustCanonical(t, le.Engine, snapQueries); want != have {
		t.Error("adopted engine behaves differently")
	}

	// Anything that is not a snapshot is refused.
	junk := filepath.Join(dir, "junk")
	os.WriteFile(junk, []byte("not anything"), 0o644)
	if _, err := LoadEngineAuto(junk, Config{}); !errors.Is(err, ErrNotSnapshot) {
		t.Errorf("junk err = %v, want ErrNotSnapshot", err)
	}
}

// TestRetiredVersionsRefused re-frames a valid container's sections at
// every container version but the current one: each load entry point, and
// the framing scan the backing re-bind uses, must refuse it with
// snapcodec.ErrVersion (rebuild from source), not decode it.
func TestRetiredVersionsRefused(t *testing.T) {
	sections, err := snapcodec.ReadContainer(saveToBytes(t, newEngine(t), ""), snapshotFormatVersion)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, v := range []int{1, 2, 3, 5} {
		var buf bytes.Buffer
		if err := snapcodec.WriteContainer(&buf, v, sections); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("v%d.snap", v))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		_, errLoad := LoadEngine(bytes.NewReader(buf.Bytes()), Config{}, "")
		_, errFile := LoadEngineFile(path, Config{}, "")
		_, errAuto := LoadEngineAuto(path, Config{})
		_, errScan := snapcodec.ScanSections(bytes.NewReader(buf.Bytes()), snapshotFormatVersion)
		for name, err := range map[string]error{
			"LoadEngine": errLoad, "LoadEngineFile": errFile,
			"LoadEngineAuto": errAuto, "ScanSections": errScan,
		} {
			if !errors.Is(err, snapcodec.ErrVersion) {
				t.Errorf("v%d: %s err = %v, want ErrVersion", v, name, err)
			}
		}
	}
}

// TestMaskedSnapshotHostileInputs sweeps a v4 container carrying the
// tombstones section with truncations and byte flips, then rewrites the
// section payload with well-framed hostile bodies (alloc-bomb counts,
// out-of-range ids, future codec versions) behind a valid CRC — every
// one must error cleanly out of LoadEngine, never panic or over-allocate.
func TestMaskedSnapshotHostileInputs(t *testing.T) {
	e := newEngine(t)
	masked, _, err := e.DeleteDocuments("doc1")
	if err != nil {
		t.Fatal(err)
	}
	data := saveToBytes(t, masked, "")

	// The masked container must actually carry the section under test.
	sections, err := snapcodec.ReadContainer(data, snapshotFormatVersion)
	if err != nil {
		t.Fatal(err)
	}
	tsIdx := -1
	for i, s := range sections {
		if s.Name == secTombstones {
			tsIdx = i
		}
	}
	if tsIdx < 0 {
		t.Fatal("masked snapshot has no tombstones section")
	}

	// Truncation sweep (same stride as TestSnapshotHostileInputs).
	for cut := 0; cut < len(data); cut += 1 + cut/512*31 {
		if _, err := LoadEngine(bytes.NewReader(data[:cut]), Config{}, ""); err == nil {
			t.Errorf("cut=%d: expected error", cut)
		}
	}
	// A flipped byte inside the tombstones payload trips its CRC.
	bad := append([]byte{}, data...)
	flipped := false
	for off := range bad {
		if bytes.HasPrefix(data[off:], sections[tsIdx].Payload) && len(sections[tsIdx].Payload) > 0 {
			bad[off] ^= 0xFF
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("could not locate the tombstones payload")
	}
	if _, err := LoadEngine(bytes.NewReader(bad), Config{}, ""); err == nil {
		t.Error("flipped tombstones byte should fail")
	}

	// Hostile section bodies behind valid framing: rewrite the payload and
	// re-frame (WriteContainer recomputes the CRC).
	hostile := func(name string, body func(w *snapcodec.Writer)) {
		var w snapcodec.Writer
		body(&w)
		secs := append([]snapcodec.Section{}, sections...)
		secs[tsIdx] = snapcodec.Section{Name: secTombstones, Payload: w.Bytes()}
		var buf bytes.Buffer
		if err := snapcodec.WriteContainer(&buf, snapshotFormatVersion, secs); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadEngine(bytes.NewReader(buf.Bytes()), Config{}, ""); err == nil {
			t.Errorf("%s: hostile tombstones section accepted", name)
		}
	}
	hostile("alloc-bomb count", func(w *snapcodec.Writer) {
		w.Int(1) // codec version
		w.Int(1 << 40)
	})
	hostile("out-of-range id", func(w *snapcodec.Writer) {
		w.Int(1)
		w.Int(1)
		w.Int(1000) // id 1000 in a 4-doc collection
	})
	hostile("future codec version", func(w *snapcodec.Writer) {
		w.Int(99)
		w.Int(0)
	})
	hostile("truncated ids", func(w *snapcodec.Writer) {
		w.Int(1)
		w.Int(3) // claims 3 ids, provides none
	})

	// Control: the untouched container still loads and hides doc1.
	loaded, err := LoadEngine(bytes.NewReader(data), Config{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumLiveDocs() != 3 || loaded.Collection().Tombstones().Len() != 1 {
		t.Errorf("loaded masked engine: live=%d tombstones=%d", loaded.NumLiveDocs(), loaded.Collection().Tombstones().Len())
	}
}

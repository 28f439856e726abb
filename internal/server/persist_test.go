package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"seda/internal/core"
	"seda/internal/snapcodec"
)

// newDiskClient serves from a disk-backed registry rooted at dir — the
// `sedad -data dir` configuration.
func newDiskClient(t *testing.T, dir string, opts Options) *testClient {
	t.Helper()
	srv := New(opts)
	if _, err := srv.Registry().EnableSnapshots(dir, opts.Parallelism); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &testClient{t: t, ts: ts}
}

var labDocs = []documentPayload{
	{Name: "a.xml", XML: `<lab><name>alpha</name><rating>4</rating></lab>`},
	{Name: "b.xml", XML: `<lab><name>beta</name><rating>5</rating></lab>`},
}

// TestUploadSurvivesRestart is the acceptance path: a collection created
// over HTTP is served after a daemon restart from its snapshot — no XML
// re-parsed, no index rebuilt.
func TestUploadSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	c1 := newDiskClient(t, dir, Options{})
	c1.call("POST", "/collections", collectionRequest{Name: "labs", Documents: labDocs}, http.StatusCreated, nil)
	id := c1.newSession("labs", `(name, "alpha")`)
	var tk topkResponse
	c1.call("GET", "/sessions/"+id+"/topk?k=5", nil, http.StatusOK, &tk)
	if len(tk.Results) == 0 {
		t.Fatal("no results before restart")
	}
	if _, err := os.Stat(filepath.Join(dir, "labs.snap")); err != nil {
		t.Fatalf("engine did not persist: %v", err)
	}

	// "Restart": a fresh server over the same data dir, no re-upload.
	c2 := newDiskClient(t, dir, Options{})
	var stats statsResponse
	c2.call("GET", "/debug/stats", nil, http.StatusOK, &stats)
	if len(stats.Collections) != 1 || stats.Collections[0].Name != "labs" {
		t.Fatalf("snapshot not rediscovered: %+v", stats.Collections)
	}
	if got := stats.Collections[0].State; got != StateCold {
		t.Errorf("state before first use = %q, want %q", got, StateCold)
	}

	id2 := c2.newSession("labs", `(name, "alpha")`)
	var tk2 topkResponse
	c2.call("GET", "/sessions/"+id2+"/topk?k=5", nil, http.StatusOK, &tk2)
	if len(tk2.Results) != len(tk.Results) {
		t.Fatalf("results differ after restart: %d vs %d", len(tk2.Results), len(tk.Results))
	}
	for i := range tk.Results {
		if tk2.Results[i].Nodes[0].Node != tk.Results[i].Nodes[0].Node ||
			tk2.Results[i].Score != tk.Results[i].Score {
			t.Errorf("result %d differs after restart", i)
		}
	}

	// The engine must have come from the snapshot, not a rebuild.
	c2.call("GET", "/debug/stats", nil, http.StatusOK, &stats)
	if got := stats.Collections[0].State; got != StateLoaded {
		t.Errorf("state after restart = %q, want %q", got, StateLoaded)
	}
	if stats.Collections[0].SnapshotBytes <= 0 {
		t.Error("snapshot_bytes not reported")
	}
}

// TestStatsReportsBuildState pins the cold → built transition and the
// snapshot byte accounting of a disk-backed registry.
func TestStatsReportsBuildState(t *testing.T) {
	dir := t.TempDir()
	c := newDiskClient(t, dir, Options{})
	c.call("POST", "/collections", collectionRequest{Name: "labs", Documents: labDocs}, http.StatusCreated, nil)

	var stats statsResponse
	c.call("GET", "/debug/stats", nil, http.StatusOK, &stats)
	if got := stats.Collections[0].State; got != StateCold {
		t.Errorf("state = %q, want %q", got, StateCold)
	}
	if stats.Collections[0].SnapshotBytes != 0 {
		t.Errorf("snapshot_bytes before build = %d, want 0", stats.Collections[0].SnapshotBytes)
	}

	c.newSession("labs", `(name, "alpha")`) // forces the build + persist
	c.call("GET", "/debug/stats", nil, http.StatusOK, &stats)
	if got := stats.Collections[0].State; got != StateBuilt {
		t.Errorf("state = %q, want %q", got, StateBuilt)
	}
	fi, err := os.Stat(filepath.Join(dir, "labs.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Collections[0].SnapshotBytes != fi.Size() {
		t.Errorf("snapshot_bytes = %d, file is %d", stats.Collections[0].SnapshotBytes, fi.Size())
	}

	// A memory-only server reports state without snapshot bytes.
	m := newTestClient(t, Options{})
	m.call("POST", "/collections", collectionRequest{Name: "mem", Documents: labDocs}, http.StatusCreated, nil)
	m.newSession("mem", `(name, "alpha")`)
	var memStats statsResponse
	m.call("GET", "/debug/stats", nil, http.StatusOK, &memStats)
	if got := memStats.Collections[0].State; got != StateBuilt {
		t.Errorf("memory-only state = %q, want %q", got, StateBuilt)
	}
	if memStats.Collections[0].SnapshotBytes != 0 {
		t.Error("memory-only server reported snapshot bytes")
	}
}

// TestSnapshotCacheValidation: a re-registration under the same name uses
// the persisted snapshot only when config and source both match; a config
// change rebuilds from source and replaces the stale file.
func TestSnapshotCacheValidation(t *testing.T) {
	dir := t.TempDir()
	col := testCollection(t)

	r1 := NewRegistry()
	if _, err := r1.EnableSnapshots(dir, 0); err != nil {
		t.Fatal(err)
	}
	if err := r1.RegisterCollection("c", col, core.Config{}, "src-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Engine("c"); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "c.snap")
	before, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}

	// Same config, same source: the discovered entry upgrades and the
	// snapshot is adopted without a rebuild.
	r2 := NewRegistry()
	if _, err := r2.EnableSnapshots(dir, 0); err != nil {
		t.Fatal(err)
	}
	if err := r2.RegisterCollection("c", col, core.Config{}, "src-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Engine("c"); err != nil {
		t.Fatal(err)
	}
	if got := r2.List()[0].State; got != StateLoaded {
		t.Errorf("matching re-registration state = %q, want %q", got, StateLoaded)
	}

	// Different config: the snapshot must NOT be served; the rebuild
	// replaces it on disk.
	r3 := NewRegistry()
	if _, err := r3.EnableSnapshots(dir, 0); err != nil {
		t.Fatal(err)
	}
	if err := r3.RegisterCollection("c", col, core.Config{DataguideThreshold: 0.9}, "src-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r3.Engine("c"); err != nil {
		t.Fatal(err)
	}
	if got := r3.List()[0].State; got != StateBuilt {
		t.Errorf("config-mismatched snapshot was served: state = %q", got)
	}
	after, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	if after.ModTime().Equal(before.ModTime()) && after.Size() == before.Size() {
		t.Log("note: rebuilt snapshot is byte-compatible; size/mtime unchanged is acceptable only if content updated")
	}
	// The replaced snapshot now validates under the new config.
	if _, err := core.LoadEngineFile(snap, core.Config{DataguideThreshold: 0.9}, "src-1"); err != nil {
		t.Errorf("replaced snapshot does not validate: %v", err)
	}

	// Different source (same config): likewise rebuilt, not served.
	r4 := NewRegistry()
	if _, err := r4.EnableSnapshots(dir, 0); err != nil {
		t.Fatal(err)
	}
	if err := r4.RegisterCollection("c", col, core.Config{DataguideThreshold: 0.9}, "src-2"); err != nil {
		t.Fatal(err)
	}
	if _, err := r4.Engine("c"); err != nil {
		t.Fatal(err)
	}
	if got := r4.List()[0].State; got != StateBuilt {
		t.Errorf("source-mismatched snapshot was served: state = %q", got)
	}
}

// TestSupersededEntryDoesNotPersist: an entry that was upgraded away
// while (or before) building must not write its stale engine over the
// replacement's snapshot.
func TestSupersededEntryDoesNotPersist(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	if _, err := r.EnableSnapshots(dir, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterCollection("c", testCollection(t), core.Config{}, "new-source"); err != nil {
		t.Fatal(err)
	}
	r.mu.RLock()
	current := r.entries["c"]
	r.mu.RUnlock()

	// Build the live entry: its snapshot lands on disk.
	if _, err := r.Engine("c"); err != nil {
		t.Fatal(err)
	}

	// A stale entry for the same name (as if upgraded away mid-build)
	// tries to persist a different engine; the write must be skipped.
	stale := &regEntry{name: "c", snapshotPath: current.snapshotPath, source: "stale-source"}
	eng, err := core.NewEngine(testCollection(t), core.Config{DataguideThreshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	r.persist(stale, eng, stale.source)

	// The file on disk still validates as the live entry's snapshot.
	if _, err := core.LoadEngineFile(current.snapshotPath, core.Config{}, "new-source"); err != nil {
		t.Errorf("live snapshot was clobbered by a superseded entry: %v", err)
	}
}

// TestPersistFailureIsObservable: snapshot writes are best-effort, but a
// failure must surface as snapshot_error in the registry listing instead
// of vanishing.
func TestPersistFailureIsObservable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	r := NewRegistry()
	if _, err := r.EnableSnapshots(dir, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterCollection("c", testCollection(t), core.Config{}, ""); err != nil {
		t.Fatal(err)
	}
	// Yank the directory out from under the registry; the build succeeds
	// but the snapshot write cannot.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Engine("c"); err != nil {
		t.Fatalf("build must survive persist failure: %v", err)
	}
	info := r.List()[0]
	if info.State != StateBuilt {
		t.Errorf("state = %q, want %q", info.State, StateBuilt)
	}
	if info.SnapshotError == "" {
		t.Error("persist failure not reported in snapshot_error")
	}
	if info.SnapshotBytes != 0 {
		t.Errorf("snapshot_bytes = %d after failed persist", info.SnapshotBytes)
	}
}

// TestRetiredSnapshotInDataDir: a container of a retired format version
// and a file that is no snapshot at all, dropped into the data dir as
// <name>.snap, are not served from boot discovery — neither carries a
// loadable construction, and a boot-discovered entry has no source to
// rebuild from. Each errors on use and stays cold; re-registering the
// name from source rebuilds it and rewrites the file in the current
// format, which the next process then loads.
func TestRetiredSnapshotInDataDir(t *testing.T) {
	dir := t.TempDir()
	eng, err := core.NewEngine(testCollection(t), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var cur bytes.Buffer
	if err := core.SaveEngine(&cur, eng, ""); err != nil {
		t.Fatal(err)
	}
	sections, err := snapcodec.ReadContainer(cur.Bytes(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := snapcodec.WriteContainer(&v3, 3, sections); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{"retired": v3.Bytes(), "junk": []byte("<not-a-snapshot/>")}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name+".snap"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r1 := NewRegistry()
	if _, err := r1.EnableSnapshots(dir, 0); err != nil {
		t.Fatal(err)
	}
	for name := range files {
		if _, err := r1.Engine(name); err == nil {
			t.Fatalf("%s: refused file served from boot discovery", name)
		}
	}
	for _, info := range r1.List() {
		if info.State != StateCold {
			t.Errorf("%s: state after refused load = %q, want %q", info.Name, info.State, StateCold)
		}
	}

	// Re-registering from source recovers: the rebuild replaces each file
	// with a current-version snapshot, which the next process then loads.
	for name := range files {
		if err := r1.RegisterCollection(name, testCollection(t), core.Config{}, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := r1.Engine(name); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, name+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := snapcodec.ReadContainer(data, 4); err != nil {
			t.Errorf("%s: rebuilt file is not a v4 container: %v", name, err)
		}
	}

	r2 := NewRegistry()
	if _, err := r2.EnableSnapshots(dir, 0); err != nil {
		t.Fatal(err)
	}
	for name := range files {
		if _, err := r2.Engine(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, info := range r2.List() {
		if info.State != StateLoaded {
			t.Errorf("%s: state after rebuild = %q, want %q", info.Name, info.State, StateLoaded)
		}
	}
}

// TestCorruptSnapshotFallsBack: a truncated snapshot on disk must not
// break serving — source entries rebuild, and boot-discovered entries
// surface a wrapped error on use (and retry, since failures are not
// cached).
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	r1 := NewRegistry()
	if _, err := r1.EnableSnapshots(dir, 0); err != nil {
		t.Fatal(err)
	}
	if err := r1.RegisterCollection("c", testCollection(t), core.Config{}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Engine("c"); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "c.snap")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Boot-discovered entry over the corrupt file: error, not panic.
	r2 := NewRegistry()
	if _, err := r2.EnableSnapshots(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Engine("c"); err == nil {
		t.Error("corrupt boot-discovered snapshot should error on use")
	}

	// A source registration of the same name upgrades the entry and
	// rebuilds right past the corruption.
	if err := r2.RegisterCollection("c", testCollection(t), core.Config{}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Engine("c"); err != nil {
		t.Fatalf("rebuild after corruption failed: %v", err)
	}
	if got := r2.List()[0].State; got != StateBuilt {
		t.Errorf("state = %q, want %q", got, StateBuilt)
	}
}

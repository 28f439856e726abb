package server

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seda/internal/core"
	"seda/internal/datagen"
	"seda/internal/index"
	"seda/internal/snapcodec"
	"seda/internal/store"
	"seda/internal/topk"
)

// ErrAlreadyRegistered reports a duplicate collection name; handlers map
// it to 409 Conflict.
var ErrAlreadyRegistered = errors.New("collection already registered")

// An engineBuilder produces the collection and engine for one registered
// name. Builders run at most once, on first use.
type engineBuilder func() (*core.Engine, error)

// Build states reported per collection (GET /debug/stats, GET /collections).
const (
	// StateCold: registered but not built yet — the first request pays
	// either a snapshot load or a full build.
	StateCold = "cold"
	// StateBuilt: built from source (generator, uploaded XML) in this
	// process.
	StateBuilt = "built"
	// StateLoaded: restored from a disk snapshot — no XML was parsed and
	// no index was rebuilt.
	StateLoaded = "loaded-from-snapshot"
)

// snapExt is the filename extension of engine snapshots in the data dir.
const snapExt = ".snap"

// regEntry is one named collection in the registry. The engine is built
// lazily, exactly once, by whichever request needs it first; concurrent
// first users block on the same per-entry mutex and then share the
// result. A failed build is NOT cached — the next request retries, so a
// transiently-broken collection does not brick its name for the life of
// the process.
//
// When the registry has a data directory, the entry's snapshot file acts
// as a build cache: engine() first tries to load it (validated against
// the entry's config fingerprint and source tag), falls back to the
// source build on any mismatch or corruption, and persists the result
// for the next process.
type regEntry struct {
	name    string
	builtin string // generator name for builtins, "" for uploads

	// snapshotPath is where this entry's engine persists ("" = no disk
	// backing). source tags the snapshot's origin so a cached file built
	// from different inputs (another scale, other documents) is rejected.
	snapshotPath string
	source       string // guarded by buildMu
	// discovered marks entries registered from a boot-time directory scan
	// only — they have no source builder (build is nil; the engine comes
	// from the snapshot file) and may be upgraded by a later
	// RegisterBuiltin/RegisterCollection of the same name.
	discovered bool
	// cfg is the construction config: fingerprint validation of the
	// snapshot cache for source entries, and the environment (parallelism,
	// residency) for discovered entries.
	cfg core.Config

	buildMu sync.Mutex
	done    atomic.Bool   // set after a successful build; gates lock-free peeks
	build   engineBuilder // guarded by buildMu
	eng     *core.Engine  // guarded by buildMu
	// live mirrors eng for lock-free reads: generation checks by the async
	// snapshot writer (which must not take buildMu — see persistGeneration)
	// and the stats listing. Written under buildMu.
	live atomic.Pointer[core.Engine]
	// fromSnapshot records whether the served engine came from snapshotPath
	// unmodified; an ingest clears it (the generation in memory is newer
	// than any snapshot until the re-persist lands). Atomic because the
	// stats listing reads it lock-free while ingests rewrite it.
	fromSnapshot atomic.Bool
	// snapshotBytes is the engine's size on disk, 0 when not persisted.
	snapshotBytes atomic.Int64
	// persistErr holds the last snapshot-write failure as a string ("" =
	// none): persistence is best-effort, but its failures must be
	// observable (GET /debug/stats), not silent.
	persistErr atomic.Value
	// compacting gates the entry's background compactor: at most one
	// threshold-triggered compaction goroutine runs per entry (see
	// maybeCompactAsyncLocked).
	compacting atomic.Bool
}

func (e *regEntry) engine(r *Registry) (*core.Engine, error) {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	return e.engineLocked(r)
}

// engineLocked is engine's body for callers already holding buildMu (the
// ingest path builds and then swaps under one critical section).
func (e *regEntry) engineLocked(r *Registry) (*core.Engine, error) {
	if e.eng != nil {
		return e.eng, nil
	}
	if e.discovered {
		// Boot-discovered entry: the snapshot file IS the source, and only
		// a current-version snapshot is served. Anything else has no source
		// to rebuild from here — refuse; re-registering the name from its
		// source rebuilds it and rewrites the file.
		le, err := core.LoadEngineAuto(e.snapshotPath, e.cfg)
		if errors.Is(err, core.ErrNotSnapshot) || errors.Is(err, snapcodec.ErrVersion) {
			return nil, fmt.Errorf("server: %s: %w; re-register collection %q from its source to rebuild it", e.snapshotPath, err, e.name)
		}
		if err != nil {
			return nil, err
		}
		e.adoptLocked(le.Engine, true)
		r.observeEngine(le.Engine, "load")
		return le.Engine, nil
	}
	if e.snapshotPath != "" {
		// Snapshot-as-cache: adopt a matching snapshot, otherwise rebuild.
		// Every failure mode — missing file, corruption, config or source
		// mismatch — lands on the source build, and the rebuild's snapshot
		// then replaces the stale file.
		if eng, err := core.LoadEngineFile(e.snapshotPath, e.cfg, e.source); err == nil {
			e.adoptLocked(eng, true)
			r.observeEngine(eng, "load")
			return eng, nil
		}
	}
	eng, err := e.build()
	if err != nil {
		return nil, err
	}
	if e.snapshotPath != "" {
		r.persistLocked(e, eng)
	}
	e.adoptLocked(eng, false)
	r.observeEngine(eng, "build")
	return eng, nil
}

// adoptLocked installs a built or loaded engine; callers hold buildMu.
func (e *regEntry) adoptLocked(eng *core.Engine, fromSnapshot bool) {
	e.eng = eng
	e.live.Store(eng)
	e.fromSnapshot.Store(fromSnapshot)
	if fromSnapshot {
		e.statSnapshot()
	}
	e.done.Store(true)
}

func (e *regEntry) statSnapshot() {
	if fi, err := os.Stat(e.snapshotPath); err == nil {
		e.snapshotBytes.Store(fi.Size())
	}
}

// builtEngine returns the engine if the build has completed successfully,
// else nil. It never triggers or waits for a build (and reads the atomic
// generation mirror, since an ingest may swap the engine at any time).
func (e *regEntry) builtEngine() *core.Engine {
	if !e.done.Load() {
		return nil
	}
	return e.live.Load()
}

// state reports the entry's build state for the wire.
func (e *regEntry) state() string {
	if !e.done.Load() {
		return StateCold
	}
	if e.fromSnapshot.Load() {
		return StateLoaded
	}
	return StateBuilt
}

// Registry maps collection names to lazily-built engines. It is safe for
// concurrent use.
type Registry struct {
	// MaxEntries caps registrations (0 = unlimited). Set it before
	// serving; built engines are pinned for the process lifetime, so an
	// open registration endpoint needs a bound.
	MaxEntries int

	// ResidentBudget is the shard residency budget in bytes applied to
	// snapshot collections discovered at boot (EnableSnapshots); source
	// registrations carry their budget in their own config. 0 = fully
	// resident. Set it before serving.
	ResidentBudget int64

	// CompactThreshold triggers background compaction: when a delete or
	// update leaves an entry's tombstone ratio (masked / total documents)
	// at or above it, a per-entry compactor goroutine rewrites the engine
	// (see lifecycle.go). 0 disables the trigger — compaction then runs
	// only on explicit POST /collections/{name}/compact. Set it before
	// serving.
	CompactThreshold float64

	mu      sync.RWMutex
	entries map[string]*regEntry // guarded by mu

	// dataDir is the snapshot directory ("" = persistence disabled).
	// Guarded by mu.
	dataDir string

	// persistMu serializes snapshot writes. Entries under one name can
	// persist from different build mutexes (an upgraded-away discovered
	// entry finishing a slow rebuild races the replacement's build), and
	// the atomic renames would otherwise land in either order.
	persistMu sync.Mutex

	// Observers installed by SetObservers before serving; read-only after.
	searchMetrics *topk.Metrics
	pagingMetrics *index.PagingMetrics
	onOp          func(op string, phases map[string]time.Duration)
}

// SetObservers installs the serving tier's instrumentation. search is a
// shared topk metric set installed on every engine the registry adopts
// (ingest generations inherit it, keeping search counters monotonic
// across generation swaps); paging is the shared shard-paging metric set
// installed on every adopted engine's pager (a no-op for fully resident
// engines); onOp receives per-layer wall times after each engine
// lifecycle operation ("build", "load", "ingest", "save"). Any may be
// nil. Call once, before serving — like EnableSnapshots, it is not safe
// to race with request traffic.
func (r *Registry) SetObservers(search *topk.Metrics, paging *index.PagingMetrics, onOp func(op string, phases map[string]time.Duration)) {
	r.searchMetrics = search
	r.pagingMetrics = paging
	r.onOp = onOp
}

// observeEngine wires a freshly adopted or derived engine into the
// observers: it installs the shared search metric set and reports the
// engine's BuildTimings as the op's phases — the key equal to the op
// becomes the "total" phase, "<op>-layer" keys lose their prefix, and
// bare layer keys (a from-source build's "index"/"graph"/"dataguide")
// pass through.
func (r *Registry) observeEngine(eng *core.Engine, op string) {
	if r.searchMetrics != nil {
		eng.SetSearchMetrics(r.searchMetrics)
	}
	if r.pagingMetrics != nil {
		eng.SetPagingMetrics(r.pagingMetrics)
	}
	if r.onOp == nil {
		return
	}
	phases := make(map[string]time.Duration, len(eng.BuildTimings))
	for key, d := range eng.BuildTimings {
		switch {
		case key == op:
			phases["total"] = d
		case strings.HasPrefix(key, op+"-"):
			phases[key[len(op)+1:]] = d
		default:
			phases[key] = d
		}
	}
	r.onOp(op, phases)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*regEntry)}
}

// EnableSnapshots makes the registry disk-backed: every engine persists to
// dir after its first build, and `<name>.snap` files already in dir are
// registered immediately (their engines load lazily, on first use, with
// the config stored in the snapshot). parallelism is the worker width for
// loaded engines' searches (0 = all cores). It returns the names
// registered from disk, sorted.
//
// Call it once, before serving; it is not safe to race with registration
// or request traffic.
func (r *Registry) EnableSnapshots(dir string, parallelism int) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: snapshot dir: %w", err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: snapshot dir: %w", err)
	}
	r.mu.Lock()
	r.dataDir = dir
	r.mu.Unlock()
	var loaded []string
	for _, f := range files {
		name, ok := strings.CutSuffix(f.Name(), snapExt)
		if f.IsDir() || !ok || !validName(name) {
			continue
		}
		e := &regEntry{
			name:         name,
			snapshotPath: filepath.Join(dir, f.Name()),
			discovered:   true,
			cfg:          core.Config{Parallelism: parallelism, ResidentBudget: r.ResidentBudget},
		}
		if fi, err := f.Info(); err == nil {
			e.snapshotBytes.Store(fi.Size())
		}
		if err := r.register(e); err != nil {
			return nil, err
		}
		loaded = append(loaded, name)
	}
	sort.Strings(loaded)
	return loaded, nil
}

// maxBuiltinScale caps generated-corpus size: 1.0 is the paper's full
// size, 2.0 leaves headroom without letting one request OOM the daemon.
const maxBuiltinScale = 2.0

// Builtin corpus generators selectable via POST /collections.
var builtins = map[string]func(float64) *store.Collection{
	"worldfactbook": datagen.WorldFactbook,
	"mondial":       datagen.Mondial,
	"googlebase":    datagen.GoogleBase,
	"recipeml":      datagen.RecipeML,
}

// BuiltinNames lists the selectable builtin corpora, sorted.
func BuiltinNames() []string {
	out := make([]string, 0, len(builtins))
	for n := range builtins {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RegisterBuiltin registers one of the paper's generated corpora under
// name. The corpus is generated and indexed on first use.
func (r *Registry) RegisterBuiltin(name, builtin string, scale float64, cfg core.Config) error {
	gen, ok := builtins[builtin]
	if !ok {
		return fmt.Errorf("server: unknown builtin corpus %q (have %v)", builtin, BuiltinNames())
	}
	if scale <= 0 || scale > maxBuiltinScale {
		return fmt.Errorf("server: builtin scale must be in (0, %g], got %v", maxBuiltinScale, scale)
	}
	// Datasets with special link-discovery needs resolve through the one
	// shared mapping, so engines built here fingerprint identically to
	// snapshots written by sedagen or the benchmarks. Only the fields the
	// mapping specifies are overridden — caller-supplied options for the
	// other attribute classes survive.
	d := datagen.DiscoverOptionsFor(builtin)
	if len(d.IDAttrs) > 0 {
		cfg.Discover.IDAttrs = d.IDAttrs
	}
	if len(d.IDRefAttrs) > 0 {
		cfg.Discover.IDRefAttrs = d.IDRefAttrs
	}
	if len(d.XLinkAttrs) > 0 {
		cfg.Discover.XLinkAttrs = d.XLinkAttrs
	}
	return r.register(&regEntry{
		name:    name,
		builtin: builtin,
		source:  fmt.Sprintf("builtin:%s@scale=%g", builtin, scale),
		cfg:     cfg,
		build: func() (*core.Engine, error) {
			return core.NewEngine(gen(scale), cfg)
		},
	})
}

// RegisterCollection registers an already-materialized collection (e.g.
// assembled from uploaded XML documents). source optionally identifies
// the collection's inputs (the upload handler passes a content hash); it
// keys snapshot-cache validation so a stale snapshot persisted from
// different documents under the same name is rebuilt, not served. Pass ""
// when no such identity exists — the snapshot then validates on config
// alone.
func (r *Registry) RegisterCollection(name string, col *store.Collection, cfg core.Config, source string) error {
	return r.register(&regEntry{
		name:   name,
		source: source,
		cfg:    cfg,
		build:  func() (*core.Engine, error) { return core.NewEngine(col, cfg) },
	})
}

// uploadSource derives a snapshot source tag from uploaded documents: a
// content hash, so a re-upload of identical documents revalidates a
// persisted snapshot and anything else rebuilds it. The hash gates which
// data a name serves, so it must be collision-resistant — a client able
// to craft a second document set with the same tag could revalidate a
// stale snapshot under fresh inputs.
func uploadSource(docs []documentPayload) string {
	h := sha256.New()
	for _, d := range docs {
		fmt.Fprintf(h, "%d:%s:%d:", len(d.Name), d.Name, len(d.XML))
		h.Write([]byte(d.XML))
	}
	return fmt.Sprintf("upload:sha256=%x", h.Sum(nil))
}

// validName restricts collection names to a URL- and cache-key-safe
// charset: names appear as path segments and as components of the top-k
// cache key, so control characters (the key separator in particular) and
// slashes must not sneak in.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

func (r *Registry) register(e *regEntry) error {
	if !validName(e.name) {
		return fmt.Errorf("server: invalid collection name %q (use 1-64 of [a-zA-Z0-9._-])", e.name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dataDir != "" && e.snapshotPath == "" {
		e.snapshotPath = filepath.Join(r.dataDir, e.name+snapExt)
	}
	if prev, dup := r.entries[e.name]; dup {
		// A source registration upgrades a boot-discovered snapshot entry
		// that nobody has built yet: the new entry keeps the snapshot as
		// its build cache, so a matching file still loads in O(read) while
		// a config or source change rebuilds and replaces it. (A request
		// racing this swap may still build the discovered entry's engine;
		// that engine is dropped — its snapshot write is skipped because
		// the entry is no longer current (see persist), and the top-k
		// cache keys on engine id, so nothing it computed leaks into the
		// replacement.)
		if !prev.discovered || prev.done.Load() {
			return fmt.Errorf("server: collection %q: %w", e.name, ErrAlreadyRegistered)
		}
		e.snapshotBytes.Store(prev.snapshotBytes.Load())
		r.entries[e.name] = e
		return nil
	}
	if r.MaxEntries > 0 && len(r.entries) >= r.MaxEntries {
		return fmt.Errorf("server: collection limit reached (%d)", r.MaxEntries)
	}
	r.entries[e.name] = e
	return nil
}

// persistLocked writes e's engine snapshot best-effort: a full disk must not
// take down serving, but the failure is recorded for /stats. Only the
// entry currently registered under the name may write — a superseded
// entry finishing a slow build skips its persist, and concurrent persists
// serialize on persistMu — so a stale engine can never clobber the live
// entry's snapshot on disk. Callers hold e.buildMu.
func (r *Registry) persistLocked(e *regEntry, eng *core.Engine) {
	r.persistMu.Lock()
	defer r.persistMu.Unlock()
	r.mu.RLock()
	current := r.entries[e.name] == e
	r.mu.RUnlock()
	if !current {
		return
	}
	t0 := time.Now()
	if err := core.SaveEngineFile(e.snapshotPath, eng, e.source); err != nil {
		e.persistErr.Store(err.Error())
		return
	}
	if r.onOp != nil {
		r.onOp("save", map[string]time.Duration{"total": time.Since(t0)})
	}
	e.persistErr.Store("")
	e.statSnapshot()
}

// Engine returns the engine for name, building it on first use. Every
// caller observes the same engine (or the same build error).
func (r *Registry) Engine(name string) (*core.Engine, error) {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("server: %w %q", ErrUnknownCollection, name)
	}
	return e.engine(r)
}

// ErrUnknownCollection reports an ingest or lookup against a name that was
// never registered; handlers map it to 404.
var ErrUnknownCollection = errors.New("unknown collection")

// errColdBuildFailed marks an ingest that failed before the append even
// started, in the entry's own lazy build/load — a server-side condition
// (corrupt snapshot, generator failure), not a problem with the uploaded
// documents; the handler maps it to 500 instead of 400.
var errColdBuildFailed = errors.New("building collection before ingest")

// Ingest appends documents to a live collection: the current engine (built
// or loaded on the spot if the entry is still cold) derives a new
// generation via core's incremental AddDocuments, and the registry swaps
// the entry to it atomically. In-flight sessions keep reading the old
// generation (they hold the engine pointer), the shared top-k cache
// self-invalidates (it keys on the engine id, and the new generation has a
// new id), and — when the registry is disk-backed — the new generation
// re-snapshots asynchronously so the append survives a restart without
// stalling the request.
//
// The entry's source tag is re-derived from the previous tag plus the
// ingested documents, so a later re-registration of the name from its
// original source (builtin or upload) detects the drift and rebuilds from
// that source — re-registering is an explicit reset, while boot discovery
// adopts the ingested snapshot as-is.
func (r *Registry) Ingest(name string, docs []documentPayload) (*core.Engine, error) {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("server: %w %q", ErrUnknownCollection, name)
	}
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	eng, err := e.engineLocked(r)
	if err != nil {
		return nil, fmt.Errorf("server: %w %q: %v", errColdBuildFailed, name, err)
	}
	batch := make([]core.IngestDoc, len(docs))
	for i, d := range docs {
		batch[i] = core.IngestDoc{Name: d.Name, XML: []byte(d.XML)}
	}
	next, err := eng.AddDocumentsXML(batch)
	if err != nil {
		return nil, err
	}
	r.swapGenerationLocked(e, next, "ingest", ingestSource(e.source, docs))
	return next, nil
}

// swapGenerationLocked installs a derived generation on the entry: the
// engine pointer and its lock-free mirror swap atomically from a reader's
// perspective, state() reports "built" (the served engine no longer
// equals what any snapshot holds until the async re-persist lands), the
// observers see the operation, and — when disk-backed — the new
// generation re-snapshots in the background. Callers hold e.buildMu.
func (r *Registry) swapGenerationLocked(e *regEntry, next *core.Engine, op, source string) {
	e.eng = next
	e.live.Store(next)
	e.fromSnapshot.Store(false)
	r.observeEngine(next, op)
	e.source = source
	if e.snapshotPath != "" {
		go r.persistGeneration(e, next, e.source)
	}
}

// ingestSource chains the entry's source tag with a content hash of the
// ingested documents. The chain is deterministic and collision-resistant,
// so snapshot-cache validation keeps working: the same base registration
// plus the same ingest sequence revalidates, anything else rebuilds.
func ingestSource(prev string, docs []documentPayload) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s:", len(prev), prev)
	for _, d := range docs {
		fmt.Fprintf(h, "%d:%s:%d:", len(d.Name), d.Name, len(d.XML))
		h.Write([]byte(d.XML))
	}
	return fmt.Sprintf("ingest:sha256=%x", h.Sum(nil))
}

// persistGeneration is the asynchronous re-snapshot after an ingest. It
// deliberately avoids buildMu (a sync persist inside engineLocked may hold
// it while waiting on persistMu; taking them in the other order here would
// deadlock) and instead checks the lock-free generation mirror under
// persistMu: if the entry has been superseded, or a newer generation has
// already been swapped in, this write is skipped — the newest generation's
// own persist is (or was) responsible for the file.
func (r *Registry) persistGeneration(e *regEntry, eng *core.Engine, source string) {
	r.persistMu.Lock()
	defer r.persistMu.Unlock()
	r.mu.RLock()
	current := r.entries[e.name] == e
	r.mu.RUnlock()
	if !current || e.live.Load() != eng {
		return
	}
	t0 := time.Now()
	if err := core.SaveEngineFile(e.snapshotPath, eng, source); err != nil {
		e.persistErr.Store(err.Error())
		return
	}
	if r.onOp != nil {
		r.onOp("save", map[string]time.Duration{"total": time.Since(t0)})
	}
	e.persistErr.Store("")
	e.statSnapshot()
}

// RegistryInfo describes one registered collection for the wire.
type RegistryInfo struct {
	Name    string `json:"name"`
	Builtin string `json:"builtin,omitempty"`
	Built   bool   `json:"built"`
	// State is the build state: "cold", "built" (from source this
	// process), or "loaded-from-snapshot".
	State string `json:"state"`
	// SnapshotBytes is the engine snapshot's size on disk (0 when the
	// registry is not disk-backed or the engine has not persisted yet).
	SnapshotBytes int64 `json:"snapshot_bytes,omitempty"`
	// SnapshotError surfaces the last failed snapshot write — persistence
	// is best-effort, so "uploads survive restarts" degrading (disk full,
	// permissions) must be visible to operators.
	SnapshotError string `json:"snapshot_error,omitempty"`
	// Docs counts LIVE documents; Tombstones the masked (deleted) ones
	// still occupying id space until the next compaction.
	Docs       int `json:"docs,omitempty"`
	Tombstones int `json:"tombstones,omitempty"`
	Nodes      int `json:"nodes,omitempty"`
	// Shards breaks the built engine's index down by horizontal shard
	// (document range, vocabulary, postings, exact encoded bytes); absent
	// until the engine is built or loaded.
	Shards []ShardInfo `json:"shards,omitempty"`
	// Paging reports the engine's shard-residency accounting; absent for
	// fully resident engines (no budget configured).
	Paging *PagingInfo `json:"paging,omitempty"`
}

// PagingInfo is one paged engine's residency accounting on the wire.
type PagingInfo struct {
	// Budget is the configured resident budget in bytes; ResidentBytes
	// the exact encoded size of the shards currently decoded, Resident
	// their count.
	Budget        int64 `json:"budget_bytes"`
	ResidentBytes int64 `json:"resident_bytes"`
	Resident      int   `json:"resident_shards"`
	// EncodedHeapBytes is the encoded payload bytes evicted shards still
	// hold on the Go heap — zero when every evicted shard pages from the
	// snapshot file (the honesty gauge behind
	// seda_paging_encoded_heap_bytes).
	EncodedHeapBytes int64  `json:"encoded_heap_bytes"`
	PageIns          uint64 `json:"page_ins"`
	Evictions        uint64 `json:"evictions"`
	// DiskReads counts shard sections re-read from the snapshot backing
	// store (page-ins and save splices).
	DiskReads uint64 `json:"disk_reads"`
}

// ShardInfo is one index shard's footprint on the wire.
type ShardInfo struct {
	// Docs is the number of documents in the shard's range [Lo, Hi).
	Lo       int   `json:"lo"`
	Hi       int   `json:"hi"`
	Docs     int   `json:"docs"`
	Terms    int   `json:"terms"`
	Postings int   `json:"postings"`
	Bytes    int64 `json:"bytes"`
	// Resident reports whether the shard's decoded form is in memory
	// (always true without a resident budget; a paged shard flips as it
	// is touched and evicted).
	Resident bool `json:"resident"`
	// Backing is the shard's residency tier when evicted: "heap" (encoded
	// payload on the Go heap) or "disk" (paged in from the snapshot file).
	Backing string `json:"backing"`
	// Fetches counts term-fetch tasks the top-k scatter has sent to this
	// shard since it was built or loaded (runtime state, not persisted) —
	// uneven numbers across shards reveal a skewed document partition.
	Fetches uint64 `json:"fetches"`
}

// StateCounts tallies registered collections by build state, for the
// seda_collections gauge. Every state is present so a scrape series never
// disappears when its count drops to zero.
func (r *Registry) StateCounts() map[string]float64 {
	r.mu.RLock()
	entries := make([]*regEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	counts := map[string]float64{StateCold: 0, StateBuilt: 0, StateLoaded: 0}
	for _, e := range entries {
		counts[e.state()]++
	}
	return counts
}

// List reports every registered collection, sorted by name. Docs/Nodes are
// populated only for collections whose engine has been built.
func (r *Registry) List() []RegistryInfo {
	r.mu.RLock()
	entries := make([]*regEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	out := make([]RegistryInfo, 0, len(entries))
	for _, e := range entries {
		info := RegistryInfo{
			Name:          e.name,
			Builtin:       e.builtin,
			State:         e.state(),
			SnapshotBytes: e.snapshotBytes.Load(),
		}
		if s, _ := e.persistErr.Load().(string); s != "" {
			info.SnapshotError = s
		}
		if eng := e.builtEngine(); eng != nil {
			info.Built = true
			info.Docs = eng.NumLiveDocs()
			info.Tombstones = eng.Collection().Tombstones().Len()
			info.Nodes = eng.Collection().NumNodes()
			for _, st := range eng.ShardStats() {
				info.Shards = append(info.Shards, ShardInfo{
					Lo: st.Lo, Hi: st.Hi, Docs: st.Docs,
					Terms: st.Terms, Postings: st.Postings, Bytes: st.Bytes,
					Resident: st.Resident, Backing: st.Backing, Fetches: st.Fetches,
				})
			}
			if ps, ok := eng.PagerStats(); ok {
				info.Paging = &PagingInfo{
					Budget:           ps.Budget,
					ResidentBytes:    ps.ResidentBytes,
					Resident:         ps.Resident,
					EncodedHeapBytes: ps.EncodedHeapBytes,
					PageIns:          ps.PageIns,
					Evictions:        ps.Evictions,
					DiskReads:        ps.DiskReads,
				}
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

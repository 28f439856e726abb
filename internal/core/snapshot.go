// Engine snapshots (the persistence layer the paper's Figure 4 assumes):
// every derived layer of an Engine — path dictionary, collection with its
// corpus statistics, full-text indexes, link graph, dataguide summary —
// serialized into one section-framed container so a process restart costs
// O(read) instead of O(rebuild).
//
// The container (see internal/snapcodec for the framing) carries a "meta"
// section first: the snapshot's construction Config, its canonical
// fingerprint, and an optional opaque source tag. LoadEngine refuses a
// snapshot whose fingerprint differs from the caller's config — a snapshot
// built under one dataguide threshold or link-discovery setting silently
// reloaded under another would serve wrong summaries, so the mismatch is
// an error, not a warning. Callers who own no expectation (a REPL \load,
// a registry booting from disk) use LoadEngineAuto, which adopts the
// stored config instead.
package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seda/internal/dataguide"
	"seda/internal/graph"
	"seda/internal/index"
	"seda/internal/pathdict"
	"seda/internal/snapcodec"
	"seda/internal/store"
)

// snapshotFormatVersion is the engine-container format version. Layer
// payloads carry their own versions; this one gates the container shape
// and the section roster: one "index.<n>" section per shard in the
// delta-compressed shard codec (see internal/index), and an optional
// "tombstones" section carrying the generation's deletion mask. It is the
// only version read: a container of any other version is
// snapcodec.ErrVersion, and the caller rebuilds from source.
const snapshotFormatVersion = 4

// Section names of the engine container, in write order. The graph and
// dataguide sections are corpus-global (both are built from per-shard
// profiles by merge folds and queried across shard boundaries); only the
// index fragments per shard.
const (
	secMeta       = "meta"
	secPathdict   = "pathdict"
	secCollection = "collection"
	secGraph      = "graph"
	secIndexShard = "index."     // one section per shard ("index.0", …)
	secDataguide  = "dataguide"  // absent when the engine skipped dataguides
	secTombstones = "tombstones" // deletion mask; absent when unmasked
)

// metaVersion versions the meta-section payload.
const metaVersion = 1

// Snapshot error classes. ErrNotSnapshot and corruption errors from
// internal/snapcodec pass through and also match with errors.Is.
var (
	// ErrNotSnapshot aliases snapcodec.ErrNotSnapshot: the stream is not
	// an engine snapshot.
	ErrNotSnapshot = snapcodec.ErrNotSnapshot
	// ErrConfigMismatch reports a snapshot whose recorded config
	// fingerprint (or source tag) differs from what the caller expects.
	ErrConfigMismatch = errors.New("core: snapshot config mismatch")
)

// Fingerprint returns the canonical identity of the engine-shaping parts
// of a Config. Two configs with equal fingerprints build identical engines
// from the same data. Parallelism, Shards and ResidentBudget are
// deliberately excluded: they change build scheduling, the
// execution-plane layout, and shard residency, never a query answer (a
// loaded engine adopts the shard layout stored in the snapshot's section
// roster, and paged answers are byte-identical to resident ones). Every
// string element is
// %q-quoted so the encoding is injective — delimiter characters inside
// attribute names or paths cannot make two different configs collide.
func (cfg Config) Fingerprint() string {
	r := cfg.resolved()
	var b strings.Builder
	fmt.Fprintf(&b, "v1;threshold=%g", r.DataguideThreshold)
	quoteList := func(key string, ss []string) {
		fmt.Fprintf(&b, ";%s=[", key)
		for i, s := range ss {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%q", s)
		}
		b.WriteByte(']')
	}
	quoteList("discover.id", r.Discover.IDAttrs)
	quoteList("discover.idref", r.Discover.IDRefAttrs)
	quoteList("discover.xlink", r.Discover.XLinkAttrs)
	b.WriteString(";valuelinks=[")
	for i, vl := range r.ValueLinks {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%q>%q:%q", vl.FromPath, vl.ToPath, vl.Label)
	}
	b.WriteByte(']')
	fmt.Fprintf(&b, ";skipdataguides=%t", r.SkipDataguides)
	return b.String()
}

// SaveEngine writes e as a versioned snapshot container to w. source is an
// optional opaque origin tag (e.g. "builtin:worldfactbook@scale=0.1") that
// LoadEngine verifies when the caller supplies an expectation; pass "" for
// none.
//
// Section payloads encode concurrently, bounded by the engine's resolved
// Parallelism — the index contributes one independent job per shard, so a
// multi-shard engine's snapshot write scales with cores. The container
// bytes are identical at every parallelism: payloads land in fixed slots
// and are framed in roster order.
func SaveEngine(w io.Writer, e *Engine, source string) error {
	var meta snapcodec.Writer
	meta.Int(metaVersion)
	meta.String(e.cfg.Fingerprint())
	meta.String(source)
	encodeConfig(&meta, e.cfg)

	// Non-index layers encode infallibly (their state is always resident);
	// an index shard may have to re-read its section from the snapshot
	// backing store, so its encode is the one fallible job.
	type job struct {
		name string
		enc  func(*snapcodec.Writer) error
	}
	infallible := func(enc func(*snapcodec.Writer)) func(*snapcodec.Writer) error {
		return func(w *snapcodec.Writer) error { enc(w); return nil }
	}
	jobs := []job{
		{secPathdict, infallible(e.col.Dict().Encode)},
		{secCollection, infallible(e.col.Encode)},
		{secGraph, infallible(e.g.Encode)},
	}
	if dead := e.col.Tombstones(); dead.Len() > 0 {
		// The collection section persists its statistics already masked, so
		// the load path attaches this set without re-subtracting (see
		// store.AttachTombstones).
		jobs = append(jobs, job{secTombstones, infallible(dead.Encode)})
	}
	for s := 0; s < e.ix.NumShards(); s++ {
		s := s
		jobs = append(jobs, job{
			name: fmt.Sprintf("%s%d", secIndexShard, s),
			enc:  func(w *snapcodec.Writer) error { return e.ix.EncodeShard(w, s) },
		})
	}
	if e.dg != nil {
		jobs = append(jobs, job{secDataguide, infallible(e.dg.Encode)})
	}

	sections := make([]snapcodec.Section, len(jobs)+1)
	sections[0] = snapcodec.Section{Name: secMeta, Payload: meta.Bytes()}
	encodes := make([]func(), len(jobs))
	encErrs := make([]error, len(jobs))
	for i := range jobs {
		i := i
		encodes[i] = func() {
			var sw snapcodec.Writer
			if err := jobs[i].enc(&sw); err != nil {
				encErrs[i] = err
				return
			}
			sections[i+1] = snapcodec.Section{Name: jobs[i].name, Payload: sw.Bytes()}
		}
	}
	runJobs(encodes, e.parallelism)
	for i, err := range encErrs {
		if err != nil {
			return fmt.Errorf("core: save engine: section %q: %w", jobs[i].name, err)
		}
	}
	if err := snapcodec.WriteContainer(w, snapshotFormatVersion, sections); err != nil {
		return fmt.Errorf("core: save engine: %w", err)
	}
	return nil
}

// SaveEngineFile writes the snapshot atomically: the container goes to a
// temp file in the target directory, is synced, and then renamed over
// path, so readers never observe a half-written snapshot and a crash
// leaves any previous snapshot intact.
func SaveEngineFile(path string, e *Engine, source string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return fmt.Errorf("core: save engine: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := SaveEngine(tmp, e, source); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("core: save engine: sync: %w", err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("core: save engine: chmod: %w", err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return fmt.Errorf("core: save engine: close: %w", err)
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("core: save engine: %w", err)
	}
	// A paged engine re-binds its shards to the file just written: the
	// codec is canonical, so each index.<n> section is byte-equal to the
	// shard's current encoding and eviction may now drop encoded payloads
	// to disk (this is how a BUILT engine graduates from heap-backed to
	// disk-backed residency). Best-effort: on failure shards keep their
	// previous tier — an old file's refs stay readable through their open
	// descriptors even after the rename unlinked it.
	if e.pager != nil {
		rebindBacking(path, e)
	}
	return nil
}

// rebindBacking points every index shard at its section inside the
// snapshot at path. Only the container framing is scanned (ScanSections
// skips payloads); page-in re-verifies each section's CRC anyway.
func rebindBacking(path string, e *Engine) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	sections, err := snapcodec.ScanSections(f, snapshotFormatVersion)
	f.Close()
	if err != nil {
		return
	}
	b, err := index.OpenBacking(path)
	if err != nil {
		return
	}
	for _, sec := range sections {
		if !strings.HasPrefix(sec.Name, secIndexShard) {
			continue
		}
		s, err := strconv.Atoi(sec.Name[len(secIndexShard):])
		if err != nil || s < 0 || s >= e.ix.NumShards() {
			continue
		}
		// A size mismatch (BindBacking rejects it) leaves that shard on its
		// previous tier; the other shards still re-bind.
		_ = e.ix.BindBacking(s, index.NewBackingRef(b, sec.Offset, sec.Size, sec.CRC))
	}
}

// LoadEngine reads a snapshot from r and verifies it was built under cfg:
// a fingerprint difference (or, when source is non-empty, a source-tag
// difference) returns ErrConfigMismatch and the caller should rebuild.
// cfg.Parallelism applies to the loaded engine's searches and
// cfg.ResidentBudget to its shard residency (> 0 defers shard payload
// decodes to first touch and evicts cold shards past the budget);
// cfg.Shards is ignored — the engine adopts the shard layout stored in
// the snapshot (shard count never changes a query answer).
func LoadEngine(r io.Reader, cfg Config, source string) (*Engine, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: load engine: %w", err)
	}
	return loadEngine(data, "", &cfg, source)
}

// LoadEngineFile is LoadEngine over a file. With a positive
// cfg.ResidentBudget the file additionally becomes the paging backstore:
// each shard is handed a ref to its section so eviction drops the encoded
// payload too and page-in re-reads it from disk.
func LoadEngineFile(path string, cfg Config, source string) (*Engine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load engine: %w", err)
	}
	return loadEngine(data, path, &cfg, source)
}

// LoadedEngine is the result of LoadEngineAuto.
type LoadedEngine struct {
	Engine *Engine
	// Config is the construction config the snapshot stored, with the
	// caller's environment fields applied.
	Config Config
	// Source is the snapshot's stored origin tag.
	Source string
}

// LoadEngineAuto loads an engine snapshot from path without an
// expectation: the snapshot is adopted together with its stored config (no
// fingerprint check — the snapshot is the authority). Only env's
// environment fields are read: Parallelism and ResidentBudget. A
// file that is not a snapshot is ErrNotSnapshot, and a container of another
// format version is snapcodec.ErrVersion; either means rebuild from source.
func LoadEngineAuto(path string, env Config) (*LoadedEngine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load engine: %w", err)
	}
	le := &LoadedEngine{}
	le.Engine, err = loadEngineInto(data, path, nil, "", env.ResidentBudget, le)
	if err != nil {
		return nil, err
	}
	le.Config.Parallelism = env.Parallelism
	le.Engine.cfg.Parallelism = env.Parallelism
	le.Engine.parallelism = resolveParallelism(env.Parallelism)
	return le, nil
}

func resolveParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// loadEngine decodes a snapshot. When want is non-nil the stored config
// fingerprint must match want's (and the stored source tag must match
// source when source is non-empty); when nil the stored config is adopted.
// path, when non-empty, names the snapshot file for disk-backed paging.
func loadEngine(data []byte, path string, want *Config, source string) (*Engine, error) {
	le := &LoadedEngine{}
	var budget int64
	if want != nil {
		budget = want.ResidentBudget
	}
	eng, err := loadEngineInto(data, path, want, source, budget, le)
	if err != nil {
		return nil, err
	}
	if want != nil {
		eng.cfg.Parallelism = want.Parallelism
		eng.parallelism = resolveParallelism(want.Parallelism)
	}
	return eng, nil
}

// loadEngineInto decodes a snapshot container. budget > 0 enables paged
// residency: shard sections are parsed but their posting payloads stay
// encoded until first touch, and a pager evicts decoded shards back to
// those payloads whenever their total exact encoded size exceeds budget.
// Like Parallelism, the budget is environment, not identity — it comes
// from the caller, never from the snapshot. A non-empty path names the
// file data was read from; with a pager it becomes the paging backstore.
func loadEngineInto(data []byte, path string, want *Config, source string, budget int64, le *LoadedEngine) (*Engine, error) {
	t0 := time.Now()
	sections, err := snapcodec.ReadContainer(data, snapshotFormatVersion)
	if err != nil {
		return nil, fmt.Errorf("core: load engine: %w", err)
	}
	byName := make(map[string]snapcodec.Section, len(sections))
	for _, s := range sections {
		if _, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("core: load engine: %w: duplicate section %q", snapcodec.ErrCorrupt, s.Name)
		}
		byName[s.Name] = s
	}
	need := func(name string) (*snapcodec.Reader, error) {
		s, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("core: load engine: %w: missing section %q", snapcodec.ErrCorrupt, name)
		}
		return snapcodec.NewReader(s.Payload), nil
	}

	mr, err := need(secMeta)
	if err != nil {
		return nil, err
	}
	if v := mr.Int(); mr.Err() == nil && v != metaVersion {
		return nil, fmt.Errorf("core: load engine: %w: meta version %d", snapcodec.ErrVersion, v)
	}
	storedFP := mr.String()
	storedSource := mr.String()
	storedCfg, err := decodeConfig(mr)
	if err != nil {
		return nil, fmt.Errorf("core: load engine: %w", err)
	}
	if fp := storedCfg.Fingerprint(); fp != storedFP {
		return nil, fmt.Errorf("core: load engine: %w: stored fingerprint %q does not describe stored config %q", snapcodec.ErrCorrupt, storedFP, fp)
	}
	if want != nil {
		if fp := want.Fingerprint(); fp != storedFP {
			return nil, fmt.Errorf("%w: snapshot built with %q, caller wants %q", ErrConfigMismatch, storedFP, fp)
		}
		if source != "" && storedSource != source {
			return nil, fmt.Errorf("%w: snapshot source %q, caller wants %q", ErrConfigMismatch, storedSource, source)
		}
	}
	le.Config = storedCfg
	le.Source = storedSource

	// timings records per-section decode wall times alongside the total;
	// concurrent sections each time themselves, so the entries are
	// per-layer wall times, not a sum (same convention as the build).
	timings := make(map[string]time.Duration)

	tp := time.Now()
	pr, err := need(secPathdict)
	if err != nil {
		return nil, err
	}
	dict, err := pathdict.Decode(pr)
	if err != nil {
		return nil, fmt.Errorf("core: load engine: %w", err)
	}
	timings["load-pathdict"] = time.Since(tp)
	tp = time.Now()
	cr, err := need(secCollection)
	if err != nil {
		return nil, err
	}
	col, err := store.Decode(cr, dict)
	if err != nil {
		return nil, fmt.Errorf("core: load engine: %w", err)
	}
	timings["load-collection"] = time.Since(tp)

	// The tombstone section, when present, attaches the deletion mask
	// before any dependent layer decodes: FromShards re-derives the index
	// mask from the collection's tombstones, and the graph and dataguide
	// codecs validate against the masked collection. The persisted
	// collection statistics were masked at save time, so nothing is
	// subtracted here.
	if s, ok := byName[secTombstones]; ok {
		dead, err := store.DecodeTombstones(snapcodec.NewReader(s.Payload), col.NumDocs())
		if err != nil {
			return nil, fmt.Errorf("core: load engine: %w", err)
		}
		if col, err = col.AttachTombstones(dead); err != nil {
			return nil, fmt.Errorf("core: load engine: %w: %v", snapcodec.ErrCorrupt, err)
		}
	}

	// The index's shard roster: index.0 … index.N-1. The full Sections are
	// kept — their Offset/Size/CRC become the shards' backing refs when the
	// snapshot file doubles as the paging backstore.
	var shardSections []snapcodec.Section
	for {
		s, ok := byName[fmt.Sprintf("%s%d", secIndexShard, len(shardSections))]
		if !ok {
			break
		}
		shardSections = append(shardSections, s)
	}
	if len(shardSections) == 0 {
		return nil, fmt.Errorf("core: load engine: %w: missing section %q", snapcodec.ErrCorrupt, secIndexShard+"0")
	}

	// The remaining layers depend only on the collection, so they decode
	// concurrently: the graph, every index shard, and the dataguide set
	// are independent jobs over a worker pool. Errors surface in roster
	// order so the reported failure is deterministic.
	var (
		g          *graph.Graph
		shards     = make([]*index.Shard, len(shardSections))
		shardErrs  = make([]error, len(shardSections))
		shardTimes = make([]time.Duration, len(shardSections))
		dg         *dataguide.Set
		gErr       error
		dgErr      error
		gTime      time.Duration
		dgTime     time.Duration
	)
	dgSection, haveDg := byName[secDataguide]
	if !haveDg && !storedCfg.SkipDataguides {
		return nil, fmt.Errorf("core: load engine: %w: missing section %q", snapcodec.ErrCorrupt, secDataguide)
	}
	jobs := []func(){
		func() {
			t := time.Now()
			defer func() { gTime = time.Since(t) }()
			gr, err := need(secGraph)
			if err != nil {
				gErr = err
				return
			}
			if g, err = graph.Decode(gr, col); err != nil {
				gErr = fmt.Errorf("core: load engine: %w", err)
			}
		},
	}
	decodeShard := index.DecodeShard
	if budget > 0 {
		decodeShard = index.DecodeShardPaged
	}
	for i := range shardSections {
		i := i
		jobs = append(jobs, func() {
			t := time.Now()
			shards[i], shardErrs[i] = decodeShard(snapcodec.NewReader(shardSections[i].Payload), col)
			shardTimes[i] = time.Since(t)
		})
	}
	if haveDg {
		jobs = append(jobs, func() {
			t := time.Now()
			defer func() { dgTime = time.Since(t) }()
			var err error
			if dg, err = dataguide.Decode(snapcodec.NewReader(dgSection.Payload), col); err != nil {
				dgErr = fmt.Errorf("core: load engine: %w", err)
			}
		})
	}
	runJobs(jobs, resolveParallelism(storedCfg.Parallelism))
	if gErr != nil {
		return nil, gErr
	}
	for _, err := range shardErrs {
		if err != nil {
			return nil, fmt.Errorf("core: load engine: %w", err)
		}
	}
	if dgErr != nil {
		return nil, dgErr
	}
	t := time.Now()
	ix, err := index.FromShards(col, shards)
	if err != nil {
		return nil, fmt.Errorf("core: load engine: %w: %v", snapcodec.ErrCorrupt, err)
	}
	// Shard decodes run concurrently, so the index layer's wall time is its
	// slowest shard plus the roster assembly.
	ixTime := slices.Max(shardTimes) + time.Since(t)
	timings["load-graph"] = gTime
	timings["load-index"] = ixTime
	if haveDg {
		timings["load-dataguide"] = dgTime
	}

	// The engine keeps the snapshot's shard layout; recording it in the
	// config means a re-save (or a registry re-persist after ingest)
	// preserves the layout.
	storedCfg.Shards = ix.NumShards()
	storedCfg.ResidentBudget = budget
	le.Config = storedCfg

	e := &Engine{
		col:          col,
		ix:           ix,
		g:            g,
		dg:           dg,
		cfg:          storedCfg,
		parallelism:  resolveParallelism(storedCfg.Parallelism),
		BuildTimings: timings,
	}
	if p := index.NewPager(budget); p != nil {
		e.pager = p
		ix.AttachPager(p)
		// Disk-backed residency: hand each shard a ref to its section in the
		// snapshot file, so eviction drops the encoded payload too and
		// page-in re-reads (and re-verifies) it from disk. Best-effort — on
		// an open or bind failure the affected shards keep their in-heap
		// encoded payloads (the PR 8 behavior), exactly like a built
		// not-yet-saved engine or an in-memory load.
		if path != "" {
			if b, err := index.OpenBacking(path); err == nil {
				for i, sec := range shardSections {
					_ = ix.BindBacking(i, index.NewBackingRef(b, sec.Offset, sec.Size, sec.CRC))
				}
			}
		}
	}
	timings["load"] = time.Since(t0)
	e.finish()
	le.Engine = e
	return e, nil
}

// runJobs executes the jobs over at most workers goroutines, in index
// order when sequential; jobs record their own results and errors.
func runJobs(jobs []func(), workers int) {
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, j := range jobs {
			j()
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				jobs[i]()
			}
		}()
	}
	wg.Wait()
}

// encodeConfig writes the engine-shaping Config fields (Parallelism is
// environment, not identity, and is not persisted).
func encodeConfig(w *snapcodec.Writer, cfg Config) {
	w.F64(cfg.DataguideThreshold)
	encodeStrings(w, cfg.Discover.IDAttrs)
	encodeStrings(w, cfg.Discover.IDRefAttrs)
	encodeStrings(w, cfg.Discover.XLinkAttrs)
	w.Int(len(cfg.ValueLinks))
	for _, vl := range cfg.ValueLinks {
		w.String(vl.FromPath)
		w.String(vl.ToPath)
		w.String(vl.Label)
	}
	w.Bool(cfg.SkipDataguides)
}

func decodeConfig(r *snapcodec.Reader) (Config, error) {
	var cfg Config
	cfg.DataguideThreshold = r.F64()
	cfg.Discover.IDAttrs = decodeStrings(r)
	cfg.Discover.IDRefAttrs = decodeStrings(r)
	cfg.Discover.XLinkAttrs = decodeStrings(r)
	n := r.Count(3)
	for i := 0; i < n; i++ {
		cfg.ValueLinks = append(cfg.ValueLinks, ValueLink{
			FromPath: r.String(),
			ToPath:   r.String(),
			Label:    r.String(),
		})
	}
	cfg.SkipDataguides = r.Bool()
	if err := r.Err(); err != nil {
		return Config{}, fmt.Errorf("decoding config: %w", err)
	}
	return cfg, nil
}

func encodeStrings(w *snapcodec.Writer, ss []string) {
	w.Int(len(ss))
	for _, s := range ss {
		w.String(s)
	}
}

func decodeStrings(r *snapcodec.Reader) []string {
	n := r.Count(1)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.String())
	}
	return out
}

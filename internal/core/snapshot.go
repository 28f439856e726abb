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
	"time"

	"seda/internal/dataguide"
	"seda/internal/graph"
	"seda/internal/index"
	"seda/internal/parallel"
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
	secIndexShard = "index."     // one section per base shard ("index.0", …)
	secSegment    = "segment."   // one section per segment ("segment.0", …); absent when none
	secDataguide  = "dataguide"  // required: every engine carries one
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
	// Every engine carries a dataguide summary; the literal keeps the
	// fingerprint of the retired skip-dataguides setting stable.
	b.WriteString(";skipdataguides=false")
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
		jobs = append(jobs, job{
			name: shardSection(e.ix, s),
			enc:  func(w *snapcodec.Writer) error { return e.ix.EncodeShard(w, s) },
		})
	}
	jobs = append(jobs, job{secDataguide, infallible(e.dg.Encode)})

	sections := make([]snapcodec.Section, len(jobs)+1)
	sections[0] = snapcodec.Section{Name: secMeta, Payload: meta.Bytes()}
	encErrs := make([]error, len(jobs))
	parallel.Do(len(jobs), resolveParallelism(e.cfg.Parallelism), func(i int) {
		var sw snapcodec.Writer
		if err := jobs[i].enc(&sw); err != nil {
			encErrs[i] = err
			return
		}
		sections[i+1] = snapcodec.Section{Name: jobs[i].name, Payload: sw.Bytes()}
	})
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
	// shard's current encoding, and a shard bound to one drops its decoded
	// state and is served run by run from the file (this is how a BUILT
	// engine comes under its budget). Best-effort: on
	// failure shards keep their previous refs — an old file's stay
	// readable through their open descriptors even after the rename
	// unlinked it — and unbound shards stay resident.
	if e.pager != nil {
		rebindBacking(path, e)
	}
	return nil
}

// shardSection names shard s's section: "index.<s>" for a base shard,
// "segment.<n>" for the n-th segment.
func shardSection(ix *index.Index, s int) string {
	if b := ix.NumBaseShards(); s >= b {
		return fmt.Sprintf("%s%d", secSegment, s-b)
	}
	return fmt.Sprintf("%s%d", secIndexShard, s)
}

// rebindBacking points every index shard at its section inside the
// snapshot at path. The file is opened once: the handle the framing is
// scanned through (ScanSections skips payloads) becomes the Backing, so
// the refs name the inode that was scanned even if another save renames
// over path meanwhile. Page-in re-verifies each section's CRC anyway.
func rebindBacking(path string, e *Engine) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	sections, err := snapcodec.ScanSections(f, snapshotFormatVersion)
	if err != nil {
		f.Close()
		return
	}
	b := index.NewBacking(f)
	for _, sec := range sections {
		var s int
		switch {
		case strings.HasPrefix(sec.Name, secIndexShard):
			s, err = strconv.Atoi(sec.Name[len(secIndexShard):])
		case strings.HasPrefix(sec.Name, secSegment):
			s, err = strconv.Atoi(sec.Name[len(secSegment):])
			s += e.ix.NumBaseShards()
		default:
			continue
		}
		if err != nil || s < 0 || s >= e.ix.NumShards() || shardSection(e.ix, s) != sec.Name {
			continue
		}
		// A size mismatch (BindBacking rejects it) leaves that shard on its
		// previous ref; the other shards still re-bind.
		_ = e.ix.BindBacking(s, index.NewBackingRef(b, sec.Offset, sec.Size, sec.CRC))
	}
}

// LoadEngine reads a snapshot from r and verifies it was built under cfg:
// a fingerprint difference (or, when source is non-empty, a source-tag
// difference) returns ErrConfigMismatch and the caller should rebuild.
// cfg.Parallelism bounds the snapshot's decode workers and the loaded
// engine's search fetch scatter; cfg.Shards is ignored — the engine
// adopts the shard layout stored in the snapshot (shard count never
// changes a query answer). A stream is no paging backstore, so the
// engine loads fully resident even under a positive cfg.ResidentBudget;
// its pager is attached all the same, and the shards come under it once
// SaveEngineFile gives them a file.
func LoadEngine(r io.Reader, cfg Config, source string) (*Engine, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: load engine: %w", err)
	}
	le, err := loadEngine(data, nil, &cfg, source, cfg)
	if err != nil {
		return nil, err
	}
	return le.Engine, nil
}

// LoadEngineFile is LoadEngine over a file. With a positive
// cfg.ResidentBudget the file additionally becomes the paging backstore:
// each shard is handed a ref to its section, and its posting and node
// lists stay in the file: a fetch reads just the runs it needs into the
// pager's cache, which drops the least recently used past the budget.
func LoadEngineFile(path string, cfg Config, source string) (*Engine, error) {
	le, err := loadEngineFile(path, &cfg, source, cfg)
	if err != nil {
		return nil, err
	}
	return le.Engine, nil
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
	return loadEngineFile(path, nil, "", env)
}

// loadEngineFile opens the snapshot at path once and reads it whole
// through that handle. Under a positive env.ResidentBudget the same handle
// becomes the shards' Backing, so the bytes decoded and the bytes paged
// in later come from one inode even if a save renames over path
// meanwhile; otherwise it is closed after the read.
func loadEngineFile(path string, want *Config, source string, env Config) (*LoadedEngine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load engine: %w", err)
	}
	// Size the buffer from the file, as os.ReadFile does, so a large
	// snapshot is not re-copied while a buffer grows.
	var data []byte
	fi, err := f.Stat()
	if err == nil {
		data = make([]byte, fi.Size())
		_, err = io.ReadFull(f, data)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("core: load engine: %w", err)
	}
	var b *index.Backing
	if env.ResidentBudget > 0 {
		b = index.NewBacking(f)
	} else {
		f.Close()
	}
	le, err := loadEngine(data, b, want, source, env)
	if err != nil && b != nil {
		f.Close()
	}
	return le, err
}

func resolveParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// loadEngine decodes a snapshot container. When want is non-nil the stored
// config fingerprint must match want's (and the stored source tag must
// match source when source is non-empty); when nil the stored config is
// adopted. env supplies the environment fields, which come from the caller
// and never from the snapshot: Parallelism bounds the decode workers and
// the engine's searches, and ResidentBudget > 0 attaches a pager. b, when
// non-nil, is the file data was read from: each shard is decoded with a
// ref to its section there and served run by run from it: the pager
// caches decoded runs and drops the least recently used whenever their
// decoded footprint exceeds the budget. With a nil b every shard decodes
// fully resident.
func loadEngine(data []byte, b *index.Backing, want *Config, source string, env Config) (*LoadedEngine, error) {
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
	le := &LoadedEngine{Source: storedSource}

	// timings records per-section decode wall times alongside the total;
	// concurrent sections each time themselves, so the entries are
	// per-layer wall times, not a sum.
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

	// The index's shard roster: index.0 … index.N-1, then segment.0 …
	// segment.M-1. The full Sections are kept — their Offset/Size/CRC
	// become the shards' backing refs when the snapshot file is the paging
	// backstore.
	roster := func(prefix string) []snapcodec.Section {
		var out []snapcodec.Section
		for {
			s, ok := byName[fmt.Sprintf("%s%d", prefix, len(out))]
			if !ok {
				return out
			}
			out = append(out, s)
		}
	}
	shardSections := roster(secIndexShard)
	nbase := len(shardSections)
	if nbase == 0 {
		return nil, fmt.Errorf("core: load engine: %w: missing section %q", snapcodec.ErrCorrupt, secIndexShard+"0")
	}
	shardSections = append(shardSections, roster(secSegment)...)

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
	dgr, err := need(secDataguide)
	if err != nil {
		return nil, err
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
			if g, err = graph.Decode(gr, col, storedCfg.Discover, storedCfg.ValueLinks); err != nil {
				gErr = fmt.Errorf("core: load engine: %w", err)
			}
		},
	}
	for i := range shardSections {
		i := i
		jobs = append(jobs, func() {
			t := time.Now()
			sec := shardSections[i]
			var ref *index.BackingRef
			if b != nil {
				ref = index.NewBackingRef(b, sec.Offset, sec.Size, sec.CRC)
			}
			shards[i], shardErrs[i] = index.DecodeShard(snapcodec.NewReader(sec.Payload), col, ref)
			shardTimes[i] = time.Since(t)
		})
	}
	jobs = append(jobs, func() {
		t := time.Now()
		defer func() { dgTime = time.Since(t) }()
		var err error
		if dg, err = dataguide.Decode(dgr, col); err != nil {
			dgErr = fmt.Errorf("core: load engine: %w", err)
		}
	})
	parallel.Do(len(jobs), resolveParallelism(env.Parallelism), func(i int) { jobs[i]() })
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
	ix, err := index.FromShards(col, shards[:nbase], shards[nbase:])
	if err != nil {
		return nil, fmt.Errorf("core: load engine: %w: %v", snapcodec.ErrCorrupt, err)
	}
	// Shard decodes run concurrently, so the index layer's wall time is its
	// slowest shard plus the roster assembly.
	ixTime := slices.Max(shardTimes) + time.Since(t)
	timings["load-graph"] = gTime
	timings["load-index"] = ixTime
	timings["load-dataguide"] = dgTime

	// The engine keeps the snapshot's shard layout; recording its base
	// shard count in the config means a compaction, a re-save or a
	// registry re-persist after ingest preserves the layout. The
	// environment fields are the caller's.
	storedCfg.Shards = ix.NumBaseShards()
	storedCfg.Parallelism = env.Parallelism
	storedCfg.ResidentBudget = env.ResidentBudget
	le.Config = storedCfg

	e := seal(nil, storedCfg, layers{col: col, ix: ix, g: g, dg: dg}, timings)
	timings["load"] = time.Since(t0)
	le.Engine = e
	return le, nil
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
	w.Bool(false) // the retired skip-dataguides slot; see decodeConfig
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
	// The retired skip-dataguides slot: true marks a snapshot stored
	// without a dataguide summary, which no engine can serve, so the
	// caller rebuilds from source.
	if r.Bool() && r.Err() == nil {
		return Config{}, fmt.Errorf("snapshot without a dataguide summary: %w", snapcodec.ErrVersion)
	}
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

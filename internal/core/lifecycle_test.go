package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"seda/internal/xmldoc"
)

// The tentpole invariant of the document lifecycle: after ANY
// interleaving of add / delete / update / compact, the engine answers
// top-k, context summaries, and connection summaries identically to an
// engine built from scratch over the surviving documents — on every
// corpus, fully resident or paged at any budget. Run under -race (make
// test does) to also exercise generation isolation and compaction under
// concurrent queries.
//
// Masked engines keep the survivors' original document ids while a
// from-scratch build numbers them 0..n-1, and the two builds assign path
// ids in different dictionary orders, so the comparison renders answers
// canonically: node refs as document NAME plus Dewey position, link
// paths as strings. Everything the user can observe — scores, tuple
// sets, orders, context entries, connection structure — must be
// byte-identical under that rendering. (Compacted engines renumber
// survivors exactly like the from-scratch build, so for them the
// canonical form differs from the raw one only in the link-path
// rendering.)

// canonicalAnswers renders the three answer surfaces with document names
// instead of ids and path strings instead of path ids, after the live
// document names in id order — which, for two engines sharing an id
// space, is their id→name list, so rendering documents by name loses
// nothing. It returns an error instead of failing the test so concurrent
// readers can call it from goroutines.
func canonicalAnswers(eng *Engine, queries []string) (string, error) {
	col := eng.Collection()
	dict := col.Dict()
	refStr := func(ref xmldoc.NodeRef) string {
		return fmt.Sprintf("%s@%s", col.Doc(ref.Doc).Name, ref.Dewey)
	}
	var b strings.Builder
	b.WriteString("docs")
	for _, d := range col.LiveDocs() {
		fmt.Fprintf(&b, " %s", d.Name)
	}
	b.WriteByte('\n')
	for _, q := range queries {
		fmt.Fprintf(&b, "== %s\n", q)
		s, err := eng.NewSession(q)
		if err != nil {
			return "", fmt.Errorf("session %q: %w", q, err)
		}
		rs, err := s.TopK(10)
		if err != nil {
			return "", fmt.Errorf("topk %q: %w", q, err)
		}
		for i, r := range rs {
			fmt.Fprintf(&b, "topk[%d] score=%v content=%v compact=%v", i, r.Score, r.ContentScore, r.Compactness)
			for j, ref := range r.Nodes {
				fmt.Fprintf(&b, " %s:%s", refStr(ref), dict.Path(r.Paths[j]))
			}
			b.WriteByte('\n')
		}
		for _, ctx := range s.ContextSummary() {
			fmt.Fprintf(&b, "ctx %v\n", ctx.Term)
			for _, e := range ctx.Entries {
				fmt.Fprintf(&b, "  %s df=%d occ=%d\n", e.PathString, e.DocFreq, e.Occurrences)
			}
		}
		if len(rs) > 0 {
			conns, err := s.ConnectionSummary()
			if err != nil {
				return "", fmt.Errorf("connections %q: %w", q, err)
			}
			for _, c := range conns {
				fmt.Fprintf(&b, "conn %d-%d len=%d sup=%d fp=%t %s link=%d-%d %s %s %s %v x%d\n",
					c.TermA, c.TermB, c.Length, c.Support, c.FalsePositive, c.Describe(dict),
					c.Link.FromGuide, c.Link.ToGuide, dict.Path(c.Link.FromPath), dict.Path(c.Link.ToPath),
					c.Link.Kind, c.Link.Label, c.Link.Count)
			}
		}
	}
	return b.String(), nil
}

func mustCanonical(t *testing.T, eng *Engine, queries []string) string {
	t.Helper()
	s, err := canonicalAnswers(eng, queries)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A lifeOp is one step of a lifecycle schedule; doc indexes raw.
type lifeOp struct {
	kind string // "del", "upd", "add", "compact"
	doc  int    // del/upd/add: the document (by raw index) addressed
	src  int    // upd: raw index whose XML becomes the replacement body
	// as, when set, names the document instead of raw[doc]'s name, so an
	// add can ingest a copy under a name no base document has.
	as string
}

// name returns the name op addresses.
func (op lifeOp) name(raw []IngestDoc) string {
	if op.as != "" {
		return op.as
	}
	return raw[op.doc].Name
}

// applySchedule folds the ops over eng, deriving one generation per op.
func applySchedule(t *testing.T, eng *Engine, raw []IngestDoc, ops []lifeOp) *Engine {
	t.Helper()
	for i, op := range ops {
		var err error
		switch op.kind {
		case "del":
			eng, _, err = eng.DeleteDocuments(op.name(raw))
		case "upd":
			eng, err = eng.UpdateDocumentXML(op.name(raw), raw[op.src].XML)
		case "add":
			eng, err = eng.AddDocumentsXML([]IngestDoc{{Name: op.name(raw), XML: raw[op.doc].XML}})
		case "compact":
			eng, err = eng.Compact()
		default:
			t.Fatalf("op %d: unknown kind %q", i, op.kind)
		}
		if err != nil {
			t.Fatalf("op %d (%s %d): %v", i, op.kind, op.doc, err)
		}
	}
	return eng
}

// applyModel folds the same ops over the flat survivor list: the
// documents a from-scratch build must ingest, in the engine's id order
// (deletes remove by name, updates and adds append at the tail — exactly
// where the engine assigns the new ids).
func applyModel(raw []IngestDoc, ops []lifeOp) []IngestDoc {
	model := append([]IngestDoc(nil), raw...)
	removeName := func(name string) {
		out := model[:0]
		for _, d := range model {
			if d.Name != name {
				out = append(out, d)
			}
		}
		model = out
	}
	for _, op := range ops {
		switch op.kind {
		case "del":
			removeName(op.name(raw))
		case "upd":
			removeName(op.name(raw))
			model = append(model, IngestDoc{Name: op.name(raw), XML: raw[op.src].XML})
		case "add":
			model = append(model, IngestDoc{Name: op.name(raw), XML: raw[op.doc].XML})
		}
	}
	return model
}

// lifecycleSchedules are the table-driven interleavings; indexes are
// modulo the corpus size at runtime.
func lifecycleSchedules() []struct {
	name string
	ops  []lifeOp
} {
	return []struct {
		name string
		ops  []lifeOp
	}{
		{"delete", []lifeOp{{kind: "del", doc: 1}, {kind: "del", doc: 3}}},
		// Reinsert under a previously deleted name: the document returns
		// with a NEW id at the tail of the id space.
		{"delete-reinsert", []lifeOp{{kind: "del", doc: 1}, {kind: "add", doc: 1}}},
		{"update", []lifeOp{{kind: "upd", doc: 0, src: 2}, {kind: "del", doc: 3}}},
		{"compact", []lifeOp{{kind: "del", doc: 0}, {kind: "del", doc: 2}, {kind: "compact"}}},
		// Mask → compact → mask again: compaction must leave an engine every
		// later lifecycle op treats like a from-scratch build.
		{"interleaved", []lifeOp{
			{kind: "upd", doc: 2, src: 4}, {kind: "del", doc: 0}, {kind: "compact"},
			{kind: "del", doc: 3}, {kind: "add", doc: 0},
		}},
		// Only documents ingested since the build die, so each compaction
		// keeps the base and renumbers the segment survivors after it.
		{"compact-segments", []lifeOp{
			{kind: "add", doc: 1, as: "seg-a"}, {kind: "add", doc: 2, as: "seg-b"}, {kind: "add", doc: 3, as: "seg-c"},
			{kind: "upd", as: "seg-b", src: 4}, {kind: "del", as: "seg-a"}, {kind: "del", as: "seg-c"},
			{kind: "compact"},
			{kind: "add", doc: 0, as: "seg-d"}, {kind: "del", as: "seg-b"}, {kind: "compact"},
		}},
	}
}

// clampOps rewrites schedule doc indexes modulo the corpus size and
// drops index collisions (two ops must not address the same name unless
// intended), keeping schedules meaningful on any corpus.
func clampOps(ops []lifeOp, n int) []lifeOp {
	out := make([]lifeOp, len(ops))
	for i, op := range ops {
		op.doc, op.src = op.doc%n, op.src%n
		out[i] = op
	}
	return out
}

// TestLifecycleEquivalence is the acceptance criterion: every schedule,
// on all four corpora, fully resident and paged at a 1-byte and a 50%
// budget ("update mid-eviction" is the upd schedules under budget 1:
// every generation swap lands while the pager is thrashing).
func TestLifecycleEquivalence(t *testing.T) {
	for _, c := range corpusConfigs() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			raw := renderXML(t, c.gen(c.scale))
			if len(raw) < 5 {
				t.Fatalf("corpus too small: %d docs", len(raw))
			}
			cfg := c.cfg
			cfg.Shards = 3
			base := scratchEngine(t, raw, cfg)
			queries := pickQueries(base)
			if len(queries) == 0 {
				t.Fatal("no queries derived from vocabulary")
			}
			var total int64
			for _, st := range base.ShardStats() {
				total += st.Bytes
			}
			snap := filepath.Join(t.TempDir(), "base.snap")
			if err := SaveEngineFile(snap, base, ""); err != nil {
				t.Fatal(err)
			}

			for _, sched := range lifecycleSchedules() {
				sched := sched
				t.Run(sched.name, func(t *testing.T) {
					t.Parallel()
					ops := clampOps(sched.ops, len(raw))
					model := applyModel(raw, ops)
					want := mustCanonical(t, scratchEngine(t, model, cfg), queries)

					budgets := []struct {
						name   string
						budget int64
					}{{"resident", 0}, {"budget=1", 1}, {"budget=50%", total / 2}}
					for _, bu := range budgets {
						bu := bu
						t.Run(bu.name, func(t *testing.T) {
							t.Parallel()
							start := base
							if bu.budget > 0 {
								pcfg := cfg
								pcfg.ResidentBudget = bu.budget
								loaded, err := LoadEngineFile(snap, pcfg, "")
								if err != nil {
									t.Fatal(err)
								}
								start = loaded
							}
							eng := applySchedule(t, start, raw, ops)
							if eng.NumLiveDocs() != len(model) {
								t.Fatalf("live docs = %d, want %d", eng.NumLiveDocs(), len(model))
							}
							if err := eng.Dataguides().CoverageInvariant(); err != nil {
								t.Fatalf("dataguide coverage: %v", err)
							}
							if got := mustCanonical(t, eng, queries); got != want {
								t.Errorf("%s/%s answers diverge from scratch build over survivors\n--- scratch ---\n%s\n--- lifecycle ---\n%s",
									sched.name, bu.name, want, got)
							}
							// Re-render: paged runs re-touch shards the first
							// pass evicted; masked overlap shards must filter
							// identically on every page-in.
							if got := mustCanonical(t, eng, queries); got != want {
								t.Errorf("%s/%s answers diverge on re-query", sched.name, bu.name)
							}
						})
					}
				})
			}
		})
	}
}

// TestLifecycleGenerationIsolation: delete, update, and compact must not
// disturb the generation they derive from — in-flight sessions keep
// reading the pre-mutation corpus.
func TestLifecycleGenerationIsolation(t *testing.T) {
	c := corpusConfigs()[0]
	raw := renderXML(t, c.gen(c.scale))
	old := scratchEngine(t, raw, c.cfg)
	queries := pickQueries(old)
	before := mustCanonical(t, old, queries)
	oldDocs, oldEdges := old.Collection().NumDocs(), old.Graph().NumEdges()

	masked, n, err := old.DeleteDocuments(raw[1].Name)
	if err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if masked.ID() == old.ID() {
		t.Fatal("masked generation reuses the old engine id")
	}
	updated, err := masked.UpdateDocumentXML(raw[0].Name, raw[2].XML)
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := updated.Compact()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]bool{old.ID(): true, masked.ID(): true, updated.ID(): true, compacted.ID(): true}
	if len(ids) != 4 {
		t.Fatalf("generations share engine ids: %v", ids)
	}
	if old.Collection().NumDocs() != oldDocs || old.Graph().NumEdges() != oldEdges {
		t.Fatal("lifecycle ops mutated the old generation's layers")
	}
	if after := mustCanonical(t, old, queries); after != before {
		t.Errorf("old generation's answers changed\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	if compacted.Catalog() != old.Catalog() || compacted.Entities() != old.Entities() {
		t.Error("session state should carry across lifecycle generations")
	}
}

// TestCompactDuringConcurrentQueries: readers pinned to the masked
// generation keep answering consistently while Compact derives the
// rewritten engine (run under -race, this is the data-race probe for a
// compaction that reads the collection and layers the readers share).
func TestCompactDuringConcurrentQueries(t *testing.T) {
	c := corpusConfigs()[1] // mondial: the link-heavy corpus
	raw := renderXML(t, c.gen(c.scale))
	cfg := c.cfg
	cfg.Shards = 3
	base := scratchEngine(t, raw, cfg)
	queries := pickQueries(base)

	masked, _, err := base.DeleteDocuments(raw[1].Name, raw[3].Name)
	if err != nil {
		t.Fatal(err)
	}
	want := mustCanonical(t, masked, queries)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := canonicalAnswers(masked, queries)
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- fmt.Errorf("concurrent reader saw diverging answers")
					return
				}
			}
		}()
	}
	compacted, err := masked.Compact()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if err != nil {
		t.Fatal(err)
	}

	model := applyModel(raw, []lifeOp{{kind: "del", doc: 1}, {kind: "del", doc: 3}})
	scratch := scratchEngine(t, model, cfg)
	if got := mustCanonical(t, compacted, queries); got != mustCanonical(t, scratch, queries) {
		t.Error("compacted engine diverges from scratch build over survivors")
	}
	if compacted.Collection().Tombstones().Len() != 0 {
		t.Error("compacted engine still carries tombstones")
	}
}

// TestLifecycleSnapshotRoundTrip: a masked generation survives
// save/load (SEDASNAP v4 tombstones section) with identical answers, and
// compacting the loaded engine still converges to the scratch build.
func TestLifecycleSnapshotRoundTrip(t *testing.T) {
	c := corpusConfigs()[0]
	raw := renderXML(t, c.gen(c.scale))
	cfg := c.cfg
	cfg.Shards = 2
	base := scratchEngine(t, raw, cfg)
	queries := pickQueries(base)

	masked, _, err := base.DeleteDocuments(raw[1].Name, raw[2].Name)
	if err != nil {
		t.Fatal(err)
	}
	want := mustCanonical(t, masked, queries)

	path := filepath.Join(t.TempDir(), "masked.snap")
	if err := SaveEngineFile(path, masked, ""); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1} {
		pcfg := cfg
		pcfg.ResidentBudget = budget
		loaded, err := LoadEngineFile(path, pcfg, "")
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if got := loaded.Collection().Tombstones().Len(); got != 2 {
			t.Fatalf("budget %d: loaded %d tombstones, want 2", budget, got)
		}
		if got := mustCanonical(t, loaded, queries); got != want {
			t.Errorf("budget %d: loaded masked engine diverges\n--- saved ---\n%s\n--- loaded ---\n%s", budget, want, got)
		}
		compacted, err := loaded.Compact()
		if err != nil {
			t.Fatalf("budget %d: compact after load: %v", budget, err)
		}
		model := applyModel(raw, []lifeOp{{kind: "del", doc: 1}, {kind: "del", doc: 2}})
		if got, wantC := mustCanonical(t, compacted, queries), mustCanonical(t, scratchEngine(t, model, cfg), queries); got != wantC {
			t.Errorf("budget %d: compacted-after-load diverges from scratch", budget)
		}
	}
}

// TestLifecycleErrors pins the failure contract: unknown names, empty
// deletes, compacting an unmasked or fully-masked engine.
func TestLifecycleErrors(t *testing.T) {
	eng := scratchEngine(t, []IngestDoc{
		{Name: "a.xml", XML: []byte(`<a><b>x</b></a>`)},
		{Name: "b.xml", XML: []byte(`<a><b>y</b></a>`)},
	}, Config{})

	if _, _, err := eng.DeleteDocuments(); err == nil {
		t.Error("want error for empty delete")
	}
	if _, _, err := eng.DeleteDocuments("nope.xml"); err == nil {
		t.Error("want error for unknown name")
	} else if _, ok := err.(*ErrNoSuchDocument); !ok {
		t.Errorf("want *ErrNoSuchDocument, got %T", err)
	}
	if _, err := eng.Compact(); err == nil {
		t.Error("want error compacting an unmasked engine")
	}
	if _, err := eng.UpdateDocumentXML("a.xml", []byte(`<a>`)); err == nil {
		t.Error("want error for malformed update XML")
	}

	// Deleting everything leaves a valid (empty-answer) engine that
	// refuses to compact.
	dead, n, err := eng.DeleteDocuments("a.xml", "b.xml")
	if err != nil || n != 2 {
		t.Fatalf("delete all: n=%d err=%v", n, err)
	}
	if dead.NumLiveDocs() != 0 {
		t.Fatalf("live docs = %d, want 0", dead.NumLiveDocs())
	}
	if _, err := dead.Compact(); err == nil {
		t.Error("want error compacting a fully-masked engine")
	}
	// A delete against the already-deleted name fails.
	if _, _, err := dead.DeleteDocuments("a.xml"); err == nil {
		t.Error("want error deleting an already-masked name")
	}
}

// TestDeleteRepeatedName: a name given twice masks its documents once and
// answers exactly like naming it once.
func TestDeleteRepeatedName(t *testing.T) {
	eng := newEngine(t)
	once, n1, err := eng.DeleteDocuments("doc1")
	if err != nil {
		t.Fatal(err)
	}
	twice, n2, err := eng.DeleteDocuments("doc1", "doc1")
	if err != nil {
		t.Fatalf("repeated name: %v", err)
	}
	if n1 != 1 || n2 != 1 {
		t.Fatalf("masked %d and %d documents, want 1 and 1", n1, n2)
	}
	if got := twice.Collection().Tombstones().Len(); got != 1 {
		t.Fatalf("repeated name left %d tombstones, want 1", got)
	}
	if want, got := mustCanonical(t, once, snapQueries), mustCanonical(t, twice, snapQueries); got != want {
		t.Errorf("repeated name answers differ\n--- once ---\n%s\n--- twice ---\n%s", want, got)
	}
}

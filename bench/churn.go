package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"

	"seda"
	"seda/internal/core"
	"seda/internal/datagen"
	"seda/internal/pathdict"
	"seda/internal/query"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

const (
	// churnScale makes Mondial about 2 780 linked documents at -scale 1.
	churnScale = 0.5
	// churnCompactThreshold is low enough that the background compactor
	// completes several cycles in a window (each op leaves two tombstones).
	churnCompactThreshold = 0.02
)

// churnProbes are compared against a from-scratch engine over the
// surviving documents when the run ends.
var churnProbes = []string{
	`(name, "United States")`,
	`(name, china) AND (province, *)`,
	`(country, *) AND (name, germany)`,
	`(name, "Pacific Ocean")`,
	`(city, *) AND (name, canada)`,
}

// churn is the workload lifecycle.churn: each op ingests a new document,
// changes it and deletes it, and after each step asks a top-k query that
// must show exactly the document's current state.
type churn struct {
	defaults
	cfg       *config
	countries int // country documents in the corpus; the ids c000.. new documents link to
}

func (w *churn) spec() spec {
	return spec{
		name:       "lifecycle.churn",
		why:        "writes beside reads on linked Mondial documents: ingest, update and delete re-fold index, graph and dataguide while the other client searches a masked generation; p95 carries compaction",
		collection: "mondial",
		warmup:     2,
		setups:     7,
	}
}

func (w *churn) corpus() (*store.Collection, error) {
	return datagen.Mondial(churnScale * w.cfg.scale), nil
}

func (w *churn) plan(col *store.Collection) {
	for _, d := range col.Docs() {
		if d.Root.Tag == "country" {
			w.countries++
		}
	}
}

func (w *churn) config() core.Config {
	return core.Config{Discover: datagen.DiscoverOptionsFor("mondial")}
}

func (w *churn) serve(col *store.Collection) (*seda.Server, error) {
	srv := seda.NewServer(seda.ServerOptions{})
	srv.Registry().CompactThreshold = churnCompactThreshold
	return srv, srv.Registry().RegisterCollection("mondial", col, w.config(), "")
}

// churnDoc is op i's document: a city linked to a country, found by a
// keyword no other document holds, in two revisions.
type churnDoc struct {
	name, keyword string
	xml           [2]string
}

func (w *churn) doc(i int) churnDoc {
	rng := rand.New(rand.NewSource(w.cfg.seed<<20 + int64(i)))
	d := churnDoc{
		name:    fmt.Sprintf("churn-%d.xml", i),
		keyword: fmt.Sprintf("zq%dx%d", uint64(w.cfg.seed), i),
	}
	for rev := range d.xml {
		var b strings.Builder
		fmt.Fprintf(&b, `<city id="churn%d" country="c%03d"><name>%s rev%d</name>`, i, rng.Intn(w.countries), d.keyword, rev+1)
		for s := 0; s < 8; s++ {
			fmt.Fprintf(&b, "<city_stat_%03d>%d</city_stat_%03d>", s, rng.Intn(100000), s)
		}
		b.WriteString("</city>")
		d.xml[rev] = b.String()
	}
	return d
}

func (d churnDoc) query() string { return fmt.Sprintf("(name, %s)", d.keyword) }

func (w *churn) describe(i int) string {
	d := w.doc(i)
	return d.name + d.xml[0] + d.xml[1]
}

// expect asks the document's query and fails unless the answer is exactly
// the wanted revision (0 = the document must be gone).
func (d churnDoc) expect(c *client, rev int) error {
	id, err := c.session("mondial", d.query())
	if err != nil {
		return err
	}
	top, err := c.topk(id, 5)
	if err != nil {
		return err
	}
	if err := c.endSession(id); err != nil {
		return err
	}
	var texts []string
	for _, r := range top.Results {
		for _, n := range r.Nodes {
			texts = append(texts, n.Text)
		}
	}
	return d.check(texts, rev)
}

func (d churnDoc) check(texts []string, rev int) error {
	want := []string{}
	if rev > 0 {
		want = append(want, fmt.Sprintf("%s rev%d", d.keyword, rev))
	}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		return fmt.Errorf("%s: top-k shows %q, want %q", d.name, texts, want)
	}
	return nil
}

func (w *churn) do(c *client, i int) (string, error) {
	d := w.doc(i)
	at := "/collections/mondial/documents"
	ingest := map[string]any{"documents": []map[string]string{{"name": d.name, "xml": d.xml[0]}}}
	if err := c.call("POST", at, ingest, http.StatusOK, nil); err != nil {
		return "", err
	}
	if err := d.expect(c, 1); err != nil {
		return "", err
	}
	if err := c.call("PUT", at+"/"+d.name, map[string]string{"xml": d.xml[1]}, http.StatusOK, nil); err != nil {
		return "", err
	}
	if err := d.expect(c, 2); err != nil {
		return "", err
	}
	var deleted struct {
		DocsDeleted int `json:"docs_deleted"`
	}
	if err := c.call("DELETE", at+"/"+d.name, nil, http.StatusOK, &deleted); err != nil {
		return "", err
	}
	if deleted.DocsDeleted != 1 {
		return "", fmt.Errorf("%s: DELETE masked %d documents, want 1", d.name, deleted.DocsDeleted)
	}
	if err := d.expect(c, 0); err != nil {
		return "", err
	}
	return d.keyword, nil
}

// replay derives the same three generations from eng without publishing
// them, so the other client and the registry never see them.
func (w *churn) replay(eng *core.Engine, i int, o *opTrace) (string, error) {
	d := w.doc(i)
	var err error
	o.time("xmldoc.parse", func() { _, err = xmldoc.Parse([]byte(d.xml[0]), pathdict.New()) })
	if err != nil {
		return "", err
	}
	steps := []struct {
		op     string
		derive func(*core.Engine) (*core.Engine, error)
	}{
		{"ingest", func(e *core.Engine) (*core.Engine, error) {
			return e.AddDocumentsXML([]core.IngestDoc{{Name: d.name, XML: []byte(d.xml[0])}})
		}},
		{"update", func(e *core.Engine) (*core.Engine, error) { return e.UpdateDocumentXML(d.name, []byte(d.xml[1])) }},
		{"delete", func(e *core.Engine) (*core.Engine, error) {
			next, _, err := e.DeleteDocuments(d.name)
			return next, err
		}},
	}
	for n, st := range steps {
		var next *core.Engine
		id, start := o.time(st.op, func() { next, err = st.derive(eng) })
		if err != nil {
			return "", err
		}
		o.lifecycle(id, start, st.op, next)
		eng = next
		var q query.Query
		o.time("query.parse", func() { q, err = query.Parse(d.query()) })
		if err != nil {
			return "", err
		}
		rs, err := o.search(eng.NewSessionFromQuery(q), 5)
		if err != nil {
			return "", err
		}
		var texts []string
		for _, r := range rs {
			for _, ref := range r.Nodes {
				texts = append(texts, eng.Collection().Content(ref))
			}
		}
		if err := d.check(texts, (n+1)%3); err != nil {
			return "", fmt.Errorf("replay: %w", err)
		}
	}
	return d.keyword, nil
}

// finish compares the probe queries with a from-scratch engine over the
// survivors: every churned document is deleted again, so the survivors are
// the generated corpus, whether or not the last tombstones are compacted.
func (w *churn) finish(c *client) (int, []string) {
	var failures []string
	scratch, err := core.NewEngine(datagen.Mondial(churnScale*w.cfg.scale), w.config())
	if err != nil {
		return len(churnProbes), []string{fmt.Sprintf("from-scratch engine: %v", err)}
	}
	for _, probe := range churnProbes {
		if err := w.probe(c, scratch, probe); err != nil {
			failures = append(failures, fmt.Sprintf("probe %s: %v", probe, err))
		}
	}
	return len(churnProbes), failures
}

func (w *churn) probe(c *client, scratch *core.Engine, probe string) error {
	s, err := scratch.NewSession(probe)
	if err != nil {
		return err
	}
	rs, err := s.TopK(10)
	if err != nil {
		return err
	}
	if len(rs) == 0 {
		return fmt.Errorf("no answer on the from-scratch engine")
	}
	want := newDigest()
	addTopK(want, scratch.Collection(), rs)
	id, err := c.session("mondial", probe)
	if err != nil {
		return err
	}
	top, err := c.topk(id, 10)
	if err != nil {
		return err
	}
	got := newDigest()
	top.addTo(got)
	if got.sum() != want.sum() {
		return fmt.Errorf("served answer %s differs from from-scratch %s", got.sum(), want.sum())
	}
	return c.endSession(id)
}

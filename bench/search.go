package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"seda"
	"seda/internal/core"
	"seda/internal/datagen"
	"seda/internal/fulltext"
	"seda/internal/query"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

const (
	// searchScale makes GoogleBase 20 000 flat documents at -scale 1: the
	// corpus with the longest posting lists.
	searchScale = 2
	// burst is the number of searches in one op, one per slot of the shape
	// mix. Single queries differ twentyfold in cost, so their median sits
	// between modes and jumps from run to run; a burst holding the whole
	// mix has one mode.
	burst = 5
	// opsPerSecond sizes the query pool: ten times what two clients get
	// through, so a window never wraps around to a repeated query.
	opsPerSecond = 150
	pagedShards  = 8
)

// search is the workloads search.fresh and search.paged: the same corpus
// and the same never-repeated query sequence, served fully resident or
// from a snapshot with half the encoded index resident. One op is a burst
// of searches, each a new session and its top-10.
type search struct {
	defaults
	cfg     *config
	paged   bool
	queries []string

	// search.paged: the snapshot the set-ups load, written once per run by
	// the first corpus call, and what that preparation measured.
	snapDir   string
	budget    int64
	saveS     float64
	snapBytes int64
	built     map[string]time.Duration
}

func (w *search) spec() spec {
	sp := spec{
		name:        "search.fresh",
		why:         "bursts of never-repeated two-term queries on 20 000 flat GoogleBase documents, fully resident: index fetch, top-k rank and the wire do all the work; bypasses pager, folds and cube",
		collection:  "gb",
		warmup:      2,
		verifyEvery: 4,
		setups:      5,
	}
	if w.paged {
		sp.name = "search.paged"
		sp.why = "search.fresh's corpus and queries from an 8-shard snapshot with half the encoded index resident: page-in, decode and evict do the work; set-up is the cold start"
	}
	return sp
}

func (w *search) corpus() (*store.Collection, error) {
	if !w.paged {
		return datagen.GoogleBase(searchScale * w.cfg.scale), nil
	}
	if w.snapDir != "" {
		return nil, nil // set-ups load the snapshot
	}
	col := datagen.GoogleBase(searchScale * w.cfg.scale)
	eng, err := core.NewEngine(col, core.Config{Shards: pagedShards})
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(w.cfg.tmp, "paged")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "gb.snap")
	t0 := time.Now()
	if err := core.SaveEngineFile(path, eng, ""); err != nil {
		return nil, err
	}
	w.saveS = time.Since(t0).Seconds()
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	w.snapBytes = fi.Size()
	var encoded int64
	for _, st := range eng.ShardStats() {
		encoded += st.Bytes
	}
	w.snapDir, w.budget, w.built = dir, encoded/2, eng.BuildTimings
	return col, nil
}

// plan draws each query's two terms from one sampled document, so every
// answer is non-empty, in a fixed 40/40/20 mix of two-keyword, keyword +
// structural wildcard, and context-wildcard shapes. Words found in more
// than half the documents are not searched for.
func (w *search) plan(col *store.Collection) {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	docs := col.Docs()
	byDoc := make([][]leaf, len(docs))
	docFreq := make(map[string]int)
	for i, doc := range docs {
		byDoc[i] = leaves(doc)
		inDoc := make(map[string]bool)
		for _, l := range byDoc[i] {
			for _, t := range l.terms {
				if !inDoc[t] {
					inDoc[t] = true
					docFreq[t]++
				}
			}
		}
	}
	n := burst * (int(opsPerSecond*w.cfg.seconds) + w.spec().warmup + opsDigestLen)
	seen := make(map[string]bool, n)
	for len(w.queries) < n {
		ls := byDoc[rng.Intn(len(docs))]
		if len(ls) < 2 {
			continue
		}
		ai := rng.Intn(len(ls))
		bi := (ai + 1 + rng.Intn(len(ls)-1)) % len(ls)
		a, b := ls[ai], ls[bi]
		ta, tb := a.terms[rng.Intn(len(a.terms))], b.terms[rng.Intn(len(b.terms))]
		if 2*docFreq[ta] > len(docs) || 2*docFreq[tb] > len(docs) {
			continue
		}
		var q string
		switch len(w.queries) % burst {
		case 0, 1:
			q = fmt.Sprintf("(*, %s) AND (*, %s)", ta, tb)
		case 2, 3:
			q = fmt.Sprintf("(%s, %s) AND (%s, *)", a.tag, ta, b.tag)
		default:
			q = fmt.Sprintf("(%s*, %s) AND (*, %s)", strings.TrimRight(a.tag, "0123456789"), ta, tb)
		}
		if !seen[q] {
			seen[q] = true
			w.queries = append(w.queries, q)
		}
	}
}

// leaf is a text node's tag and the terms the index holds for it.
type leaf struct {
	tag   string
	terms []string
}

func leaves(doc *xmldoc.Document) []leaf {
	var out []leaf
	doc.Walk(func(n *xmldoc.Node) bool {
		if n.Kind != xmldoc.Element || n.Text == "" {
			return true
		}
		var terms []string
		for _, t := range fulltext.TokenizeTerms(n.Text) {
			if t != "and" && t != "or" && t != "not" {
				terms = append(terms, t)
			}
		}
		if len(terms) > 0 {
			out = append(out, leaf{tag: n.Tag, terms: terms})
		}
		return true
	})
	return out
}

func (w *search) serve(col *store.Collection) (*seda.Server, error) {
	if !w.paged {
		srv := seda.NewServer(seda.ServerOptions{})
		return srv, srv.Registry().RegisterCollection("gb", col, seda.Config{}, "")
	}
	srv := seda.NewServer(seda.ServerOptions{ResidentBudget: w.budget})
	_, err := srv.Registry().EnableSnapshots(w.snapDir, 0)
	return srv, err
}

// burstOf returns op i's queries.
func (w *search) burstOf(i int) ([]string, error) {
	if (i+1)*burst > len(w.queries) {
		return nil, errors.New("query pool exhausted: raise opsPerSecond")
	}
	return w.queries[i*burst : (i+1)*burst], nil
}

func (w *search) describe(i int) string {
	qs, _ := w.burstOf(i)
	return strings.Join(qs, "\n")
}

func (w *search) do(c *client, i int) (string, error) {
	qs, err := w.burstOf(i)
	if err != nil {
		return "", err
	}
	d := newDigest()
	for _, q := range qs {
		id, err := c.session("gb", q)
		if err != nil {
			return "", err
		}
		top, err := c.topk(id, 10)
		switch {
		case err != nil:
			return "", err
		case top.Cached:
			return "", fmt.Errorf("query %q was answered from the result cache", q)
		case len(top.Results) == 0:
			return "", fmt.Errorf("query %q has no answer", q)
		}
		top.addTo(d)
	}
	return d.sum(), nil
}

func (w *search) replay(eng *core.Engine, i int, o *opTrace) (string, error) {
	qs, err := w.burstOf(i)
	if err != nil {
		return "", err
	}
	d := newDigest()
	for _, text := range qs {
		var q query.Query
		o.time("query.parse", func() { q, err = query.Parse(text) })
		if err != nil {
			return "", err
		}
		rs, err := o.search(eng.NewSessionFromQuery(q), 10)
		if err != nil {
			return "", err
		}
		addTopK(d, eng.Collection(), rs)
	}
	return d.sum(), nil
}

// oracle for search.paged is search.fresh's engine, built from scratch:
// paged answers must equal fully resident ones.
func (w *search) oracle(served *core.Engine) (*core.Engine, error) {
	if !w.paged {
		return served, nil
	}
	return core.NewEngine(datagen.GoogleBase(searchScale*w.cfg.scale), core.Config{})
}

func (w *search) layerExtras(into map[string]float64) {
	if !w.paged {
		return
	}
	into["snapshot.save_s"] = w.saveS
	into["snapshot.bytes"] = float64(w.snapBytes)
	for _, layer := range []string{"index", "graph", "dataguide"} {
		into["build."+layer+"_s"] = w.built[layer].Seconds()
	}
}

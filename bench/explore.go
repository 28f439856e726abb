package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"

	"seda"
	"seda/internal/core"
	"seda/internal/cube"
	"seda/internal/datagen"
	"seda/internal/olap"
	"seda/internal/query"
	"seda/internal/rel"
	"seda/internal/store"
	"seda/internal/summary"
)

// script is one Figure-6 journey: a query about a country, the context
// selections that refine it, the connections chosen, and the OLAP question
// asked of the resulting star schema.
type script struct {
	query  string     // one %q verb: the country
	refine [][]string // refine[t]: the context paths term t is restricted to
	joins  []join     // the tree connections to choose
	// analyze
	measure       string
	dims, groupBy []string
	agg           string
}

type join struct {
	termA, termB int
	path         string
}

// scripts are run back to back for the same country and make up one op: the
// paper's Query 1 down to the Figure-3 star schema, then the GDP fact whose
// two contexts (GDP before 2005, GDP_ppp after) are the paper's schema
// evolution. One op holds both, instead of alternating ops, so the latency
// sample has one mode and its median does not sit in the gap between two.
var scripts = []script{
	{
		query: `(*, %q) AND (trade_country, *) AND (percentage, *)`,
		refine: [][]string{
			{"/country/name"},
			{"/country/economy/import_partners/item/trade_country"},
			{"/country/economy/import_partners/item/percentage"},
		},
		joins:   []join{{0, 1, "/country"}, {1, 2, "/country/economy/import_partners/item"}},
		measure: "import-trade-percentage", dims: []string{"year", "trade_country"}, groupBy: []string{"year"}, agg: "sum",
	},
	{
		query:   `(name, %q) AND (GDP*, *)`,
		refine:  [][]string{{"/country/name"}, {"/country/economy/GDP", "/country/economy/GDP_ppp"}},
		joins:   []join{{0, 1, "/country"}},
		measure: "GDP", dims: []string{"year"}, groupBy: []string{"year"}, agg: "count",
	},
}

// choose returns the positions of the connections the script picks.
func (sc script) choose(conns []connection) []int {
	picks := []int{}
	for i, c := range conns {
		for _, j := range sc.joins {
			if c.Kind == "tree" && c.TermA == j.termA && c.TermB == j.termB && c.JoinPath == j.path {
				picks = append(picks, i)
			}
		}
	}
	return picks
}

// figure3Catalog is the paper's Figure 3(b) catalog plus the GDP fact.
const figure3Catalog = `{
  "dimensions": [
    {"name":"country","contexts":[{"context":"/country/name","key":"(/country/name, /country/year)"}]},
    {"name":"year","contexts":[{"context":"/country/year","key":"(/country/name, /country/year)"}]},
    {"name":"import-country","contexts":[{"context":"/country/economy/import_partners/item/trade_country","key":"(/country/name, /country/year, .)"}]}
  ],
  "facts": [
    {"name":"import-trade-percentage","contexts":[{"context":"/country/economy/import_partners/item/percentage","key":"(/country/name, /country/year, ../trade_country)"}]},
    {"name":"GDP","contexts":[
      {"context":"/country/economy/GDP","key":"(/country/name, /country/year)"},
      {"context":"/country/economy/GDP_ppp","key":"(/country/name, /country/year)"}]}
  ]}`

// explore is the workload explore.wf.
type explore struct {
	defaults
	cfg       *config
	countries []string // the corpus's country names in seed order
}

func (w *explore) spec() spec {
	return spec{
		name:        "explore.wf",
		why:         "the paper's Figure-6 journey per country on WorldFactbook: wildcard-term fetches, rank, summaries, the twig join, cube and OLAP are all on the path; set-up is the dataguide fold",
		collection:  "wf",
		warmup:      4,
		verifyEvery: 4,
		setups:      3,
	}
}

func (w *explore) corpus() (*store.Collection, error) {
	return datagen.WorldFactbook(w.cfg.scale), nil
}

// plan draws the countries without replacement, so no loop repeats before
// every country has been visited and the result cache never answers.
func (w *explore) plan(col *store.Collection) {
	seen := make(map[string]bool)
	for _, d := range col.Docs() {
		if d.Root.Tag != "country" {
			continue
		}
		for _, n := range d.Root.Children {
			if n.Tag == "name" && !seen[n.Text] {
				seen[n.Text] = true
				w.countries = append(w.countries, n.Text)
			}
		}
	}
	sort.Strings(w.countries)
	rand.New(rand.NewSource(w.cfg.seed)).Shuffle(len(w.countries), func(i, j int) {
		w.countries[i], w.countries[j] = w.countries[j], w.countries[i]
	})
}

func (w *explore) serve(col *store.Collection) (*seda.Server, error) {
	srv := seda.NewServer(seda.ServerOptions{})
	return srv, srv.Registry().RegisterCollection("wf", col, seda.Config{}, "")
}

func (w *explore) prime(c *client) error {
	return c.call("POST", "/collections/wf/catalog", json.RawMessage(figure3Catalog), http.StatusOK, nil)
}

func (w *explore) country(i int) string { return w.countries[i%len(w.countries)] }

func (w *explore) describe(i int) string { return w.country(i) }

func (w *explore) do(c *client, i int) (string, error) {
	d := newDigest()
	for _, sc := range scripts {
		if err := sc.overHTTP(c, w.country(i), d); err != nil {
			return "", err
		}
	}
	return d.sum(), nil
}

func (sc script) overHTTP(c *client, country string, d *digest) error {
	id, err := c.session("wf", fmt.Sprintf(sc.query, country))
	if err != nil {
		return err
	}
	at := "/sessions/" + id
	top, err := c.topk(id, 10)
	if err != nil {
		return err
	}
	top.addTo(d)
	var ctxs wireContexts
	if err := c.call("GET", at+"/contexts", nil, http.StatusOK, &ctxs); err != nil {
		return err
	}
	ctxs.addTo(d)
	for t, paths := range sc.refine {
		if err := c.call("POST", at+"/refine", map[string]any{"term": t, "paths": paths}, http.StatusOK, nil); err != nil {
			return err
		}
	}
	if top, err = c.topk(id, 20); err != nil {
		return err
	}
	top.addTo(d)
	var conns struct {
		Connections []connection `json:"connections"`
	}
	if err := c.call("GET", at+"/connections", nil, http.StatusOK, &conns); err != nil {
		return err
	}
	addConnections(d, conns.Connections)
	if err := c.call("POST", at+"/choose", map[string]any{"connections": sc.choose(conns.Connections)}, http.StatusOK, nil); err != nil {
		return err
	}
	var results struct {
		Table wireTable `json:"table"`
	}
	if err := c.call("GET", at+"/results?max_rows=-1", nil, http.StatusOK, &results); err != nil {
		return err
	}
	results.Table.addTo(d)
	var star struct {
		Facts      []wireTable `json:"facts"`
		Dimensions []wireTable `json:"dimensions"`
	}
	if err := c.call("POST", at+"/cube", map[string]any{"max_rows": -1}, http.StatusOK, &star); err != nil {
		return err
	}
	for _, t := range append(star.Facts, star.Dimensions...) {
		t.addTo(d)
	}
	var analysis struct {
		Table wireTable `json:"table"`
	}
	err = c.call("POST", at+"/analyze", map[string]any{
		"measure": sc.measure, "dims": sc.dims, "group_by": sc.groupBy, "agg": sc.agg, "max_rows": -1,
	}, http.StatusOK, &analysis)
	if err != nil {
		return err
	}
	analysis.Table.addTo(d)
	return c.endSession(id)
}

func (w *explore) replay(eng *core.Engine, i int, o *opTrace) (string, error) {
	d := newDigest()
	for _, sc := range scripts {
		if err := sc.throughLibrary(eng, w.country(i), d, o); err != nil {
			return "", err
		}
	}
	return d.sum(), nil
}

func (sc script) throughLibrary(eng *core.Engine, country string, d *digest, o *opTrace) error {
	col := eng.Collection()
	var q query.Query
	var err error
	o.time("query.parse", func() { q, err = query.Parse(fmt.Sprintf(sc.query, country)) })
	if err != nil {
		return err
	}
	s := eng.NewSessionFromQuery(q)
	rs, err := o.search(s, 10)
	if err != nil {
		return err
	}
	addTopK(d, col, rs)
	var ctxs []summary.ContextBucket
	o.time("summary.context", func() { ctxs = s.ContextSummary() })
	addContexts(d, ctxs)
	for t, paths := range sc.refine {
		if err := s.RefineContexts(t, paths...); err != nil {
			return err
		}
	}
	if rs, err = o.search(s, 20); err != nil {
		return err
	}
	addTopK(d, col, rs)
	var found []summary.Connection
	o.time("summary.connection", func() { found, err = s.ConnectionSummary() })
	if err != nil {
		return err
	}
	conns := libConnections(col, found)
	addConnections(d, conns)
	if err := s.ChooseConnections(sc.choose(conns)...); err != nil {
		return err
	}
	var table *rel.Table
	o.time("twig.complete", func() { table, err = s.ResultTable() })
	if err != nil {
		return err
	}
	addTable(d, table)
	o.count("tuples", float64(len(table.Rows)))
	var star *cube.Star
	o.time("cube.build", func() { star, err = s.BuildCube(cube.Options{}) })
	if err != nil {
		return err
	}
	for _, t := range star.FactTables {
		addTable(d, t)
		o.count("fact_rows", float64(len(t.Rows)))
	}
	for _, t := range star.DimTables {
		addTable(d, t)
	}
	o.time("olap.analyze", func() {
		var oc *olap.Cube
		if oc, err = eng.Analyze(star, sc.measure, sc.dims); err == nil {
			table, err = oc.Aggregate(sc.groupBy, rel.AggFn(strings.ToUpper(sc.agg)))
		}
	})
	if err != nil {
		return err
	}
	addTable(d, table)
	return nil
}

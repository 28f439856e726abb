package seda

// Benchmark harness: one benchmark per paper artifact (see DESIGN.md's
// experiment index). Corpora are scaled down so iterations stay tractable;
// cmd/sedabench runs the full-scale, single-shot versions that print the
// paper's tables. Reported custom metrics (guides, tuples, rows) let the
// shape of each result be read straight off the benchmark output.

import (
	"fmt"
	"testing"

	"seda/internal/dataguide"
	"seda/internal/fulltext"
	"seda/internal/index"
	"seda/internal/keys"
	"seda/internal/rel"
	"seda/internal/summary"
	"seda/internal/topk"
	"seda/internal/twig"
)

// benchScale keeps per-iteration corpus builds affordable.
const benchScale = 0.05

// --- E1: Table 1 — dataguide construction per corpus ---

func benchTable1(b *testing.B, gen func(float64) *Collection, scale float64) {
	col := gen(scale)
	b.ResetTimer()
	var guides int
	for i := 0; i < b.N; i++ {
		dg, err := dataguide.Build(col, nil, 0.40)
		if err != nil {
			b.Fatal(err)
		}
		guides = len(dg.Guides)
	}
	b.ReportMetric(float64(col.NumDocs()), "docs")
	b.ReportMetric(float64(guides), "guides")
}

func BenchmarkTable1_GoogleBase(b *testing.B)    { benchTable1(b, GoogleBase, 0.1) }
func BenchmarkTable1_Mondial(b *testing.B)       { benchTable1(b, Mondial, 0.1) }
func BenchmarkTable1_RecipeML(b *testing.B)      { benchTable1(b, RecipeML, 0.1) }
func BenchmarkTable1_WorldFactbook(b *testing.B) { benchTable1(b, WorldFactbook, 0.1) }

// --- E2: Figure 3 — Query 1 end-to-end cube construction ---

func BenchmarkFigure3Cube(b *testing.B) {
	eng := wfbEngine(b, benchScale)
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		s := sessionQuery1Refined(b, eng)
		star, err := s.BuildCube(CubeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rows = star.FactTable("import-trade-percentage").NumRows()
	}
	b.ReportMetric(float64(rows), "fact_rows")
}

// sessionQuery1Refined prepares the refined Query 1 session with chosen
// connections.
func sessionQuery1Refined(b testing.TB, eng *Engine) *Session {
	s, err := eng.NewSession(query1)
	if err != nil {
		b.Fatal(err)
	}
	for i, p := range []string{nameP, tcP, pcP} {
		if err := s.RefineContexts(i, p); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.TopK(20); err != nil {
		b.Fatal(err)
	}
	conns, err := s.ConnectionSummary()
	if err != nil {
		b.Fatal(err)
	}
	dict := eng.Collection().Dict()
	var pick []int
	for i, cn := range conns {
		if cn.Kind != summary.Tree {
			continue
		}
		jp := dict.Path(cn.JoinPath)
		if (cn.TermA == 1 && cn.TermB == 2 && jp == itP) ||
			(cn.TermA == 0 && cn.TermB == 1 && jp == "/country") {
			pick = append(pick, i)
		}
	}
	if err := s.ChooseConnections(pick...); err != nil {
		b.Fatal(err)
	}
	return s
}

// --- E3: Figure 6 — control-flow phase latencies ---

func BenchmarkControlFlow_TopK(b *testing.B) {
	eng := wfbEngine(b, benchScale)
	s, err := eng.NewSession(query1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TopK(10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkControlFlow_ContextSummary(b *testing.B) {
	eng := wfbEngine(b, benchScale)
	s, err := eng.NewSession(query1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ContextSummary()
	}
}

func BenchmarkControlFlow_ConnectionSummary(b *testing.B) {
	eng := wfbEngine(b, benchScale)
	s, err := eng.NewSession(query1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.TopK(10); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ConnectionSummary(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkControlFlow_CompleteResults(b *testing.B) {
	eng := wfbEngine(b, benchScale)
	b.ResetTimer()
	var tuples int
	for i := 0; i < b.N; i++ {
		s := sessionQuery1Refined(b, eng)
		ts, err := s.CompleteResults()
		if err != nil {
			b.Fatal(err)
		}
		tuples = len(ts)
	}
	b.ReportMetric(float64(tuples), "tuples")
}

// --- E4: §1 in-text corpus statistics ---

func BenchmarkInTextStats(b *testing.B) {
	col := WorldFactbook(0.1)
	ix := index.Build(col)
	b.ResetTimer()
	var usPaths int
	for i := 0; i < b.N; i++ {
		usPaths = len(ix.PathsForExpr(fulltext.MustParseQuery(`"United States"`)))
	}
	b.ReportMetric(float64(usPaths), "us_paths")
	b.ReportMetric(float64(col.Stats().NumPaths), "distinct_paths")
}

// --- E5: §6.1 threshold sweep ---

func BenchmarkDataguideSweep(b *testing.B) {
	col := WorldFactbook(0.1)
	for _, th := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		b.Run(fmt.Sprintf("threshold=%.1f", th), func(b *testing.B) {
			var guides int
			for i := 0; i < b.N; i++ {
				dg, err := dataguide.Build(col, nil, th)
				if err != nil {
					b.Fatal(err)
				}
				guides = len(dg.Guides)
			}
			b.ReportMetric(float64(guides), "guides")
		})
	}
}

// --- A1: ranking ablation — compactness vs content-only ---

func BenchmarkAblationRanking(b *testing.B) {
	eng := wfbEngine(b, benchScale)
	q, err := ParseQuery(`(trade_country, *) AND (percentage, *)`)
	if err != nil {
		b.Fatal(err)
	}
	searcher := topk.New(eng.Index(), eng.Graph())
	for _, contentOnly := range []bool{false, true} {
		name := "compactness"
		if contentOnly {
			name = "content_only"
		}
		b.Run(name, func(b *testing.B) {
			var siblings int
			for i := 0; i < b.N; i++ {
				rs, err := searcher.Search(q, topk.Options{K: 10, ContentOnly: contentOnly})
				if err != nil {
					b.Fatal(err)
				}
				// Count top results whose pair is sibling-joined (the
				// intended same-item interpretation).
				siblings = 0
				for _, r := range rs {
					if r.Nodes[0].Doc == r.Nodes[1].Doc &&
						len(r.Nodes[0].Dewey) == len(r.Nodes[1].Dewey) &&
						r.Nodes[0].Dewey.Prefix(len(r.Nodes[0].Dewey)-1).String() == r.Nodes[1].Dewey.Prefix(len(r.Nodes[1].Dewey)-1).String() {
						siblings++
					}
				}
			}
			b.ReportMetric(float64(siblings), "sibling_pairs_in_top10")
		})
	}
}

// --- A5: top-k strategy — document-at-a-time TA vs classic rank join ---

func BenchmarkAblationTopKStrategy(b *testing.B) {
	eng := wfbEngine(b, benchScale)
	searcher := topk.New(eng.Index(), eng.Graph())
	q, err := ParseQuery(`(trade_country, *) AND (percentage, *)`)
	if err != nil {
		b.Fatal(err)
	}
	opts := topk.Options{K: 10, DisableCrossDoc: true}
	b.Run("doc_at_a_time", func(b *testing.B) {
		var st topk.Stats
		for i := 0; i < b.N; i++ {
			_, s, err := searcher.SearchStats(q, opts)
			if err != nil {
				b.Fatal(err)
			}
			st = s
		}
		b.ReportMetric(float64(st.UnitsScanned), "units_scanned")
		b.ReportMetric(float64(st.TuplesScored), "tuples_scored")
	})
	b.Run("rank_join", func(b *testing.B) {
		var st topk.Stats
		for i := 0; i < b.N; i++ {
			_, s, err := searcher.SearchRankJoin(q, opts)
			if err != nil {
				b.Fatal(err)
			}
			st = s
		}
		b.ReportMetric(float64(st.UnitsScanned), "stream_pulls")
		b.ReportMetric(float64(st.TuplesScored), "tuples_scored")
	})
}

// --- A2: join ablation — holistic twig join vs naive nested loop ---

func BenchmarkAblationJoin(b *testing.B) {
	eng := wfbEngine(b, benchScale)
	dict := eng.Collection().Dict()
	tm := func(ctx string) Term {
		t, err := ParseQuery(fmt.Sprintf("(%s, *)", ctx))
		if err != nil {
			b.Fatal(err)
		}
		return t.Terms[0]
	}
	plan := twig.Plan{
		Terms: []Term{tm(tcP), tm(pcP)},
		Connections: []summary.Connection{{
			TermA: 0, TermB: 1,
			PathA: dict.LookupPath(tcP), PathB: dict.LookupPath(pcP),
			Kind: summary.Tree, JoinPath: dict.LookupPath(itP),
		}},
	}
	ev := twig.New(eng.Index(), eng.Graph())
	b.Run("twig", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			ts, err := ev.ComputeAll(plan)
			if err != nil {
				b.Fatal(err)
			}
			n = len(ts)
		}
		b.ReportMetric(float64(n), "tuples")
	})
	b.Run("naive", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			ts, err := ev.ComputeNaive(plan)
			if err != nil {
				b.Fatal(err)
			}
			n = len(ts)
		}
		b.ReportMetric(float64(n), "tuples")
	})
}

// --- A3: connection cache ablation ---

func BenchmarkAblationConnCache(b *testing.B) {
	eng := wfbEngine(b, benchScale)
	s, err := eng.NewSession(query1)
	if err != nil {
		b.Fatal(err)
	}
	rs, err := s.TopK(10)
	if err != nil {
		b.Fatal(err)
	}
	for _, noCache := range []bool{false, true} {
		name := "cached"
		if noCache {
			name = "no_cache"
		}
		b.Run(name, func(b *testing.B) {
			sz := summary.NewSummarizer(eng.Dataguides(), eng.Graph())
			sz.NoCache = noCache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sz.Connections(rs)
			}
		})
	}
}

// --- A4: context-index probe ablation — Fig. 8 index vs full scan ---

func BenchmarkAblationContextProbe(b *testing.B) {
	col := WorldFactbook(0.1)
	ix := index.Build(col)
	expr := fulltext.MustParseQuery(`"United States"`)
	b.Run("fig8_index", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = len(ix.PathsForExpr(expr))
		}
		b.ReportMetric(float64(n), "paths")
	})
	b.Run("scan_all_nodes", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			// Oracle-style scan: evaluate the expression against every
			// node's direct text, collecting matching paths.
			paths := make(map[string]bool)
			for _, d := range col.Docs() {
				doc := d
				doc.Walk(func(nd *Node) bool {
					if nd.Text != "" && expr.Matches(fulltext.NewContent(nd.Text)) {
						paths[col.Dict().Path(nd.Path)] = true
					}
					return true
				})
			}
			n = len(paths)
		}
		b.ReportMetric(float64(n), "paths")
	})
}

// --- Substrate benchmarks ---

func BenchmarkIndexBuild(b *testing.B) {
	col := WorldFactbook(benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.Build(col)
	}
	b.ReportMetric(float64(col.NumNodes()), "nodes")
}

func BenchmarkEngineBuild(b *testing.B) {
	col := WorldFactbook(benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine(col, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKeyVerification(b *testing.B) {
	col := WorldFactbook(benchScale)
	k := keys.MustParse("(/country/name, /country/year, ../trade_country)")
	p := col.Dict().LookupPath(pcP)
	var refs []NodeRef
	col.EachNode(func(d *Document, n *Node) {
		if n.Path == p {
			refs = append(refs, NodeRef{Doc: d.ID, Dewey: n.Dewey})
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := keys.Verify(col, k, refs); len(vs) != 0 {
			b.Fatalf("violations: %v", vs)
		}
	}
	b.ReportMetric(float64(len(refs)), "keys_checked")
}

func BenchmarkOLAPAggregate(b *testing.B) {
	eng := wfbEngine(b, benchScale)
	s := sessionQuery1Refined(b, eng)
	star, err := s.BuildCube(CubeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ft := star.FactTable("import-trade-percentage")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ft.GroupBy([]string{"year"}, []rel.AggSpec{{Fn: rel.Sum, Col: "import-trade-percentage"}}); err != nil {
			b.Fatal(err)
		}
	}
}

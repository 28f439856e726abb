// Command sedabench regenerates every table and figure of the paper's
// evaluation at full scale and prints paper-vs-measured comparisons. It is
// the one-shot companion to the root bench_test.go micro-benchmarks; its
// output is the source for EXPERIMENTS.md.
//
// Each experiment additionally writes a machine-readable result file
// BENCH_<name>.json (wall ns/op, allocations) into -out (default the
// current directory, i.e. the repo root when run as `go run
// ./cmd/sedabench`), giving successive revisions a perf trajectory to
// compare against.
//
// Usage:
//
//	sedabench                  # all experiments at full scale
//	sedabench -exp table1      # one experiment
//	sedabench -scale 0.2       # scaled corpora (faster, shapes preserved)
//	sedabench -out ""          # skip the BENCH_*.json files
//	sedabench -parallelism 1   # sequential builds/searches (perf baseline)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"seda"
	"seda/internal/dataguide"
	"seda/internal/fulltext"
	"seda/internal/index"
	"seda/internal/keys"
	"seda/internal/summary"
	"seda/internal/topk"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|figure3|controlflow|intext|sweep|ablations|coldstart|ingest|shards|memory|lifecycle|serve|all")
	scale := flag.Float64("scale", 1.0, "corpus scale (1.0 = paper size)")
	out := flag.String("out", ".", "directory for BENCH_<name>.json result files (empty disables)")
	par := flag.Int("parallelism", 0, "worker goroutines for engine builds and searches (0 = all cores, 1 = sequential)")
	shardsFlag := flag.Int("shards", 0, "horizontal index shards per engine (0 = single shard); the shards experiment compares 1 against max(this, 4)")
	flag.Parse()
	if *par < 0 {
		fmt.Fprintln(os.Stderr, "sedabench: -parallelism must be >= 0")
		os.Exit(2)
	}
	if *shardsFlag < 0 {
		fmt.Fprintln(os.Stderr, "sedabench: -shards must be >= 0")
		os.Exit(2)
	}
	parallelism = *par
	shardCount = *shardsFlag

	run := func(name string, fn func(float64)) {
		if *exp == "all" || *exp == name {
			fmt.Printf("==== %s ====\n", name)
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			start := time.Now()
			fn(*scale)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&m1)
			fmt.Printf("(%s in %v)\n\n", name, elapsed.Round(time.Millisecond))
			if *out != "" {
				writeBenchResult(*out, benchResult{
					Name:       name,
					Scale:      *scale,
					NsPerOp:    elapsed.Nanoseconds(),
					Allocs:     m1.Mallocs - m0.Mallocs,
					AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
					Env:        currentEnv(),
				})
			}
		}
	}
	run("table1", table1)
	run("intext", inText)
	run("sweep", sweep)
	run("figure3", figure3)
	run("controlflow", controlFlow)
	run("ablations", ablations)
	// coldstart writes a richer per-corpus BENCH file (build vs load), so
	// it manages its own result file instead of going through run().
	if *exp == "all" || *exp == "coldstart" {
		fmt.Println("==== coldstart ====")
		start := time.Now()
		res := coldstart(*scale)
		res.NsPerOp = time.Since(start).Nanoseconds()
		fmt.Printf("(coldstart in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if *out != "" {
			writeColdstartResult(*out, res)
		}
	}

	// ingest writes a richer per-corpus BENCH file (incremental add vs full
	// rebuild), so it manages its own result file too.
	if *exp == "all" || *exp == "ingest" {
		fmt.Println("==== ingest ====")
		start := time.Now()
		res := ingest(*scale)
		res.NsPerOp = time.Since(start).Nanoseconds()
		fmt.Printf("(ingest in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if *out != "" {
			writeIngestResult(*out, res)
		}
	}

	// shards writes a richer per-corpus BENCH file (1-shard vs multi-shard
	// build and snapshot load), so it manages its own result file too.
	if *exp == "all" || *exp == "shards" {
		fmt.Println("==== shards ====")
		start := time.Now()
		res := shardsExp(*scale)
		res.NsPerOp = time.Since(start).Nanoseconds()
		fmt.Printf("(shards in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if *out != "" {
			writeShardsResult(*out, res)
		}
	}

	// memory measures the encoded index size and the paged-residency
	// memory/latency trade per corpus, so it manages its own result file.
	if *exp == "all" || *exp == "memory" {
		fmt.Println("==== memory ====")
		start := time.Now()
		res := memoryExp(*scale)
		res.NsPerOp = time.Since(start).Nanoseconds()
		fmt.Printf("(memory in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if *out != "" {
			writeMemoryResult(*out, res)
		}
	}

	// lifecycle measures delete/update latency, compaction throughput, and
	// masked-vs-compacted query p50 per corpus; it manages its own file.
	if *exp == "all" || *exp == "lifecycle" {
		fmt.Println("==== lifecycle ====")
		start := time.Now()
		res := lifecycleExp(*scale)
		res.NsPerOp = time.Since(start).Nanoseconds()
		fmt.Printf("(lifecycle in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if *out != "" {
			writeLifecycleResult(*out, res)
		}
	}

	// serve measures the HTTP tier under open-loop load and validates the
	// /metrics exposition; it writes percentile fields of its own.
	if *exp == "all" || *exp == "serve" {
		fmt.Println("==== serve ====")
		start := time.Now()
		res := serveExp(*scale)
		res.NsPerOp = time.Since(start).Nanoseconds()
		fmt.Printf("(serve in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if *out != "" {
			writeServeResult(*out, res)
		}
	}

	if *exp != "all" {
		switch *exp {
		case "table1", "intext", "sweep", "figure3", "controlflow", "ablations", "coldstart", "ingest", "shards", "memory", "lifecycle", "serve":
		default:
			fmt.Fprintf(os.Stderr, "sedabench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
	}
}

// table1 reproduces Table 1: dataguide statistics at threshold 40%.
func table1(scale float64) {
	type row struct {
		name   string
		gen    func(float64) *seda.Collection
		docs   int
		guides int
	}
	rows := []row{
		{name: "Google Base snapshot", gen: seda.GoogleBase, docs: 10000, guides: 88},
		{name: "Mondial", gen: seda.Mondial, docs: 5563, guides: 86},
		{name: "RecipeML", gen: seda.RecipeML, docs: 10988, guides: 3},
		{name: "World Factbook 2007", gen: seda.WorldFactbook, docs: 1600, guides: 500},
	}
	fmt.Printf("%-22s %12s %12s %14s %14s\n", "Data set", "# docs", "paper docs", "# data guides", "paper guides")
	for _, r := range rows {
		col := r.gen(scale)
		dg, err := dataguide.Build(col, nil, 0.40)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-22s %12d %12d %14d %14d\n", r.name, col.NumDocs(), r.docs, len(dg.Guides), r.guides)
	}
}

// inText reproduces the §1/§2 corpus statistics on World Factbook.
func inText(scale float64) {
	col := seda.WorldFactbook(scale)
	ix := index.BuildParallel(col, parallelism)
	dict := col.Dict()
	fmt.Printf("%-52s %10s %10s\n", "Statistic", "measured", "paper")
	fmt.Printf("%-52s %10d %10d\n", "documents", col.NumDocs(), 1600)
	fmt.Printf("%-52s %10d %10d\n", "distinct root-to-leaf paths", col.Stats().NumPaths, 1984)
	us := ix.PathsForExpr(fulltext.MustParseQuery(`"United States"`))
	fmt.Printf("%-52s %10d %10d\n", `paths matching (*, "United States")`, len(us), 27)
	fmt.Printf("%-52s %10d %10d\n", "docs containing /country",
		col.PathDocFreq(dict.LookupPath("/country")), 1577)
	refP := dict.LookupPath("/country/transnational_issues/refugees/country_of_origin")
	fmt.Printf("%-52s %10d %10d\n", "docs containing .../refugees/country_of_origin",
		col.PathDocFreq(refP), 186)
}

// sweep reproduces the §6.1 threshold observations: 1600 unmerged guides
// and the reduction factors 3x–100x.
func sweep(scale float64) {
	fmt.Printf("%-22s", "threshold")
	ths := []float64{0, 0.2, 0.4, 0.6, 0.8}
	for _, th := range ths {
		fmt.Printf(" %8.1f", th)
	}
	fmt.Println()
	for _, c := range []struct {
		name string
		gen  func(float64) *seda.Collection
	}{
		{"World Factbook", seda.WorldFactbook},
		{"Mondial", seda.Mondial},
		{"Google Base", seda.GoogleBase},
		{"RecipeML", seda.RecipeML},
	} {
		col := c.gen(scale)
		fmt.Printf("%-22s", c.name)
		for _, th := range ths {
			dg, err := dataguide.Build(col, nil, th)
			if err != nil {
				fatal(err)
			}
			fmt.Printf(" %8d", len(dg.Guides))
		}
		fmt.Printf("   (%d docs)\n", col.NumDocs())
	}
	fmt.Println("paper: unmerged WFB = 1600 guides; reduction 3x (WFB) to 100x (Google Base) at 0.4")
}

// parallelism is the -parallelism flag: the worker-pool width for engine
// builds and top-k searches (0 = all cores).
var parallelism int

// shardCount is the -shards flag: horizontal index shards per engine
// (0 = single shard).
var shardCount int

// wfbEngineWithCatalog builds the full-scale engine + Figure 3(b) catalog.
func wfbEngineWithCatalog(scale float64) *seda.Engine {
	col := seda.WorldFactbook(scale)
	eng, err := seda.NewEngine(col, seda.Config{Parallelism: parallelism, Shards: shardCount})
	if err != nil {
		fatal(err)
	}
	baseKey := keys.MustParse("(/country/name, /country/year)")
	cat := eng.Catalog()
	check(cat.AddDimension("country", seda.ContextEntry{Context: "/country/name", Key: baseKey}))
	check(cat.AddDimension("year", seda.ContextEntry{Context: "/country/year", Key: baseKey}))
	check(cat.AddDimension("import-country", seda.ContextEntry{
		Context: "/country/economy/import_partners/item/trade_country",
		Key:     keys.MustParse("(/country/name, /country/year, .)")}))
	check(cat.AddFact("import-trade-percentage", seda.ContextEntry{
		Context: "/country/economy/import_partners/item/percentage",
		Key:     keys.MustParse("(/country/name, /country/year, ../trade_country)")}))
	check(cat.AddFact("GDP",
		seda.ContextEntry{Context: "/country/economy/GDP", Key: baseKey},
		seda.ContextEntry{Context: "/country/economy/GDP_ppp", Key: baseKey}))
	return eng
}

const query1 = `(*, "United States") AND (trade_country, *) AND (percentage, *)`

// figure3 reproduces Figure 3: the Query 1 star schema.
func figure3(scale float64) {
	eng := wfbEngineWithCatalog(scale)
	s := refinedQuery1Session(eng)
	star, err := s.BuildCube(seda.CubeOptions{})
	if err != nil {
		fatal(err)
	}
	ft := star.FactTable("import-trade-percentage")
	fmt.Printf("fact table %s: %d rows, columns %v\n", ft.Name, ft.NumRows(), ft.Cols)
	sorted, err := ft.Sort("year", "trade_country")
	if err != nil {
		fatal(err)
	}
	limit := 10
	if sorted.NumRows() < limit {
		limit = sorted.NumRows()
	}
	sample := *sorted
	sample.Rows = sorted.Rows[:limit]
	fmt.Println(sample.String())
	for _, dt := range star.DimTables {
		fmt.Printf("dimension %-16s %5d members\n", dt.Name, dt.NumRows())
	}
	fmt.Println("\ngenerated SQL/XML (first 3 statements):")
	for i, stmt := range star.SQL {
		if i >= 3 {
			break
		}
		fmt.Println("  " + stmt)
	}
}

func refinedQuery1Session(eng *seda.Engine) *seda.Session {
	s, err := eng.NewSession(query1)
	if err != nil {
		fatal(err)
	}
	// The full Figure 6 loop: initial top-k and context summary precede
	// the user's context selections.
	if _, err := s.TopK(10); err != nil {
		fatal(err)
	}
	s.ContextSummary()
	check(s.RefineContexts(0, "/country/name"))
	check(s.RefineContexts(1, "/country/economy/import_partners/item/trade_country"))
	check(s.RefineContexts(2, "/country/economy/import_partners/item/percentage"))
	if _, err := s.TopK(20); err != nil {
		fatal(err)
	}
	conns, err := s.ConnectionSummary()
	if err != nil {
		fatal(err)
	}
	dict := eng.Collection().Dict()
	var pick []int
	for i, cn := range conns {
		if cn.Kind != summary.Tree {
			continue
		}
		jp := dict.Path(cn.JoinPath)
		if (cn.TermA == 1 && cn.TermB == 2 && jp == "/country/economy/import_partners/item") ||
			(cn.TermA == 0 && cn.TermB == 1 && jp == "/country") {
			pick = append(pick, i)
		}
	}
	check(s.ChooseConnections(pick...))
	return s
}

// controlFlow reproduces the Figure 6 phase-latency profile on Query 1.
func controlFlow(scale float64) {
	eng := wfbEngineWithCatalog(scale)
	s := refinedQuery1Session(eng)
	if _, err := s.BuildCube(seda.CubeOptions{}); err != nil {
		fatal(err)
	}
	fmt.Printf("engine build: index=%v graph=%v dataguide=%v\n",
		eng.BuildTimings["index"].Round(time.Millisecond),
		eng.BuildTimings["graph"].Round(time.Millisecond),
		eng.BuildTimings["dataguide"].Round(time.Millisecond))
	for _, phase := range []string{"topk", "contexts", "connections", "complete", "cube"} {
		fmt.Printf("%-12s %v\n", phase, s.Timings[phase].Round(time.Microsecond))
	}
}

// ablations prints the A1-A4 design-choice comparisons.
func ablations(scale float64) {
	eng := wfbEngineWithCatalog(scale)

	// A1: ranking.
	q, err := seda.ParseQuery(`(trade_country, *) AND (percentage, *)`)
	if err != nil {
		fatal(err)
	}
	searcher := topk.New(eng.Index(), eng.Graph())
	for _, contentOnly := range []bool{false, true} {
		start := time.Now()
		rs, err := searcher.Search(q, topk.Options{K: 10, ContentOnly: contentOnly, Parallelism: parallelism})
		if err != nil {
			fatal(err)
		}
		sib := 0
		for _, r := range rs {
			a, b := r.Nodes[0], r.Nodes[1]
			if a.Doc == b.Doc && len(a.Dewey) == len(b.Dewey) &&
				a.Dewey.Prefix(len(a.Dewey)-1).String() == b.Dewey.Prefix(len(b.Dewey)-1).String() {
				sib++
			}
		}
		mode := "content x compactness"
		if contentOnly {
			mode = "content only        "
		}
		fmt.Printf("A1 ranking  %s  sibling-paired in top-10: %2d/%2d   (%v)\n",
			mode, sib, len(rs), time.Since(start).Round(time.Microsecond))
	}

	// A3: connection cache.
	s := refinedQuery1Session(eng)
	rs, err := s.TopK(10)
	if err != nil {
		fatal(err)
	}
	for _, noCache := range []bool{false, true} {
		sz := summary.NewSummarizer(eng.Dataguides(), eng.Graph())
		sz.NoCache = noCache
		start := time.Now()
		for i := 0; i < 50; i++ {
			sz.Connections(rs)
		}
		mode := "cache on "
		if noCache {
			mode = "cache off"
		}
		hits, misses := sz.CacheStats()
		fmt.Printf("A3 conn-summary x50  %s  %v  (hits=%d misses=%d)\n",
			mode, time.Since(start).Round(time.Microsecond), hits, misses)
	}

	fmt.Println("A2 join and A4 probe ablations: go test -bench 'BenchmarkAblationJoin|BenchmarkAblationContextProbe'")
}

// coldstart compares the two cold-start strategies per builtin corpus:
// parse the XML and rebuild every derived layer (what a process restart
// cost before engine snapshots) versus load one snapshot from disk. Both
// paths start from bytes — rendered XML documents, or the snapshot file —
// and end with a serving-ready engine.
func coldstart(scale float64) *coldstartResult {
	res := &coldstartResult{Name: "coldstart", Scale: scale, Env: currentEnv()}
	tmp, err := os.MkdirTemp("", "seda-coldstart-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	fmt.Printf("%-16s %14s %14s %10s %14s\n", "corpus", "build-from-XML", "load-snapshot", "speedup", "snapshot bytes")
	for _, c := range []struct {
		name string
		gen  func(float64) *seda.Collection
		cfg  seda.Config
	}{
		{"worldfactbook", seda.WorldFactbook, seda.Config{}},
		{"mondial", seda.Mondial, seda.MondialConfig()},
		{"googlebase", seda.GoogleBase, seda.Config{}},
		{"recipeml", seda.RecipeML, seda.Config{}},
	} {
		cfg := c.cfg
		cfg.Parallelism = parallelism
		cfg.Shards = shardCount

		// Setup (untimed): render the corpus to XML bytes and write the
		// snapshot the load path will read.
		source := c.gen(scale)
		type rawDoc struct {
			name string
			xml  []byte
		}
		raw := make([]rawDoc, 0, source.NumDocs())
		for _, doc := range source.Docs() {
			var b bytes.Buffer
			if err := doc.WriteXML(&b); err != nil {
				fatal(err)
			}
			raw = append(raw, rawDoc{name: doc.Name, xml: b.Bytes()})
		}
		eng, err := seda.NewEngine(source, cfg)
		if err != nil {
			fatal(err)
		}
		snap := filepath.Join(tmp, c.name+".snap")
		if err := seda.SaveEngineFile(snap, eng); err != nil {
			fatal(err)
		}
		fi, err := os.Stat(snap)
		if err != nil {
			fatal(err)
		}

		// Path 1: cold start from XML — parse plus full engine build.
		start := time.Now()
		col := seda.NewCollection()
		for _, d := range raw {
			if _, err := col.AddXML(d.name, d.xml); err != nil {
				fatal(err)
			}
		}
		built, err := seda.NewEngine(col, cfg)
		if err != nil {
			fatal(err)
		}
		buildNs := time.Since(start).Nanoseconds()

		// Path 2: cold start from the snapshot.
		start = time.Now()
		loaded, err := seda.LoadEngineAuto(snap, cfg)
		if err != nil {
			fatal(err)
		}
		loadNs := time.Since(start).Nanoseconds()
		if loaded.Engine.Index().NumTerms() != built.Index().NumTerms() {
			fatal(fmt.Errorf("coldstart: %s loaded engine differs from built engine", c.name))
		}

		speedup := float64(buildNs) / float64(loadNs)
		fmt.Printf("%-16s %14v %14v %9.1fx %14d\n", c.name,
			time.Duration(buildNs).Round(time.Microsecond),
			time.Duration(loadNs).Round(time.Microsecond),
			speedup, fi.Size())
		res.Corpora = append(res.Corpora, coldstartCorpus{
			Name: c.name, BuildNs: buildNs, LoadNs: loadNs,
			Speedup: speedup, SnapshotBytes: fi.Size(),
		})
	}
	return res
}

// ingest compares appending a single document to a live engine
// (core.Engine.AddDocuments, the incremental path the serving tier's
// POST /collections/{name}/documents takes) against rebuilding the whole
// engine from an in-memory collection — what an append cost before
// incremental ingest. Both paths start from the same parsed base corpus;
// the incremental side additionally pays the XML parse of the new
// document, which is the serving tier's real workload.
func ingest(scale float64) *ingestResult {
	res := &ingestResult{Name: "ingest", Scale: scale, Env: currentEnv()}
	fmt.Printf("%-16s %8s %14s %14s %10s\n", "corpus", "docs", "add-one-doc", "full-rebuild", "speedup")
	for _, c := range []struct {
		name string
		gen  func(float64) *seda.Collection
		cfg  seda.Config
	}{
		{"worldfactbook", seda.WorldFactbook, seda.Config{}},
		{"mondial", seda.Mondial, seda.MondialConfig()},
		{"googlebase", seda.GoogleBase, seda.Config{}},
		{"recipeml", seda.RecipeML, seda.Config{}},
	} {
		cfg := c.cfg
		cfg.Parallelism = parallelism
		cfg.Shards = shardCount

		// Setup (untimed): render the corpus to XML and build the base
		// engine over all but the last document, plus the full collection
		// the rebuild path starts from.
		source := c.gen(scale)
		docs := source.Docs()
		if len(docs) < 2 {
			fatal(fmt.Errorf("ingest: corpus %s too small at scale %g", c.name, scale))
		}
		raw := make([][]byte, 0, len(docs))
		names := make([]string, 0, len(docs))
		for _, doc := range docs {
			var b bytes.Buffer
			if err := doc.WriteXML(&b); err != nil {
				fatal(err)
			}
			raw = append(raw, b.Bytes())
			names = append(names, doc.Name)
		}
		parse := func(n int) *seda.Collection {
			col := seda.NewCollection()
			for i := 0; i < n; i++ {
				if _, err := col.AddXML(names[i], raw[i]); err != nil {
					fatal(err)
				}
			}
			return col
		}
		base, err := seda.NewEngine(parse(len(raw)-1), cfg)
		if err != nil {
			fatal(err)
		}
		fullCol := parse(len(raw))

		// Path 1: incremental — parse and append the one new document.
		start := time.Now()
		extended, err := base.AddDocumentsXML([]seda.IngestDoc{{Name: names[len(raw)-1], XML: raw[len(raw)-1]}})
		if err != nil {
			fatal(err)
		}
		ingestNs := time.Since(start).Nanoseconds()

		// Path 2: full rebuild over the extended corpus.
		start = time.Now()
		rebuilt, err := seda.NewEngine(fullCol, cfg)
		if err != nil {
			fatal(err)
		}
		rebuildNs := time.Since(start).Nanoseconds()

		if extended.Index().NumTerms() != rebuilt.Index().NumTerms() ||
			extended.Collection().NumNodes() != rebuilt.Collection().NumNodes() {
			fatal(fmt.Errorf("ingest: %s incremental engine differs from rebuilt engine", c.name))
		}

		speedup := float64(rebuildNs) / float64(ingestNs)
		fmt.Printf("%-16s %8d %14v %14v %9.1fx\n", c.name, len(raw),
			time.Duration(ingestNs).Round(time.Microsecond),
			time.Duration(rebuildNs).Round(time.Microsecond), speedup)
		res.Corpora = append(res.Corpora, ingestCorpus{
			Name: c.name, Docs: len(raw), IngestNs: ingestNs,
			RebuildNs: rebuildNs, Speedup: speedup,
		})
	}
	return res
}

// shardsExp compares the 1-shard and multi-shard execution planes per
// builtin corpus: full engine build and snapshot load wall-clock at each
// layout. Sharding parallelizes the index scan, the top-k scatter, and
// snapshot encode/decode, so the multi-shard columns improve with
// GOMAXPROCS; on a single-core box they track the 1-shard columns (the
// layout costs nothing, it just cannot pay out without cores). The
// 1-shard numbers are the same workload the coldstart experiment records,
// so they double as a baseline cross-check.
func shardsExp(scale float64) *shardsResult {
	multi := shardCount
	if multi <= 1 {
		multi = 4
	}
	res := &shardsResult{Name: "shards", Scale: scale, Shards: multi, Env: currentEnv()}
	tmp, err := os.MkdirTemp("", "seda-shards-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	fmt.Printf("%-16s %14s %14s %14s %14s\n", "corpus", "build 1-shard", fmt.Sprintf("build %d-shard", multi), "load 1-shard", fmt.Sprintf("load %d-shard", multi))
	for _, c := range []struct {
		name string
		gen  func(float64) *seda.Collection
		cfg  seda.Config
	}{
		{"worldfactbook", seda.WorldFactbook, seda.Config{}},
		{"mondial", seda.Mondial, seda.MondialConfig()},
		{"googlebase", seda.GoogleBase, seda.Config{}},
		{"recipeml", seda.RecipeML, seda.Config{}},
	} {
		col := c.gen(scale)
		row := shardsCorpus{Name: c.name, Docs: col.NumDocs()}

		measure := func(shards int) (buildNs, loadNs int64) {
			cfg := c.cfg
			cfg.Parallelism = parallelism
			cfg.Shards = shards

			start := time.Now()
			eng, err := seda.NewEngine(col, cfg)
			if err != nil {
				fatal(err)
			}
			buildNs = time.Since(start).Nanoseconds()

			snap := filepath.Join(tmp, fmt.Sprintf("%s-%d.snap", c.name, shards))
			if err := seda.SaveEngineFile(snap, eng); err != nil {
				fatal(err)
			}
			start = time.Now()
			loaded, err := seda.LoadEngineFile(snap, cfg)
			if err != nil {
				fatal(err)
			}
			loadNs = time.Since(start).Nanoseconds()
			if loaded.NumShards() != eng.NumShards() {
				fatal(fmt.Errorf("shards: %s loaded with %d shards, saved %d", c.name, loaded.NumShards(), eng.NumShards()))
			}
			if loaded.Index().NumTerms() != eng.Index().NumTerms() {
				fatal(fmt.Errorf("shards: %s loaded engine differs from built engine", c.name))
			}
			return buildNs, loadNs
		}

		row.Build1Ns, row.Load1Ns = measure(1)
		row.BuildNNs, row.LoadNNs = measure(multi)
		row.BuildSpeedup = float64(row.Build1Ns) / float64(row.BuildNNs)
		row.LoadSpeedup = float64(row.Load1Ns) / float64(row.LoadNNs)
		fmt.Printf("%-16s %14v %14v %14v %14v\n", c.name,
			time.Duration(row.Build1Ns).Round(time.Microsecond),
			time.Duration(row.BuildNNs).Round(time.Microsecond),
			time.Duration(row.Load1Ns).Round(time.Microsecond),
			time.Duration(row.LoadNNs).Round(time.Microsecond))
		res.Corpora = append(res.Corpora, row)
	}
	return res
}

// shardsCorpus is one corpus row of BENCH_shards.json.
type shardsCorpus struct {
	Name         string  `json:"name"`
	Docs         int     `json:"docs"`
	Build1Ns     int64   `json:"build_1shard_ns"`
	BuildNNs     int64   `json:"build_nshard_ns"`
	Load1Ns      int64   `json:"load_1shard_ns"`
	LoadNNs      int64   `json:"load_nshard_ns"`
	BuildSpeedup float64 `json:"build_speedup"` // build_1shard_ns / build_nshard_ns
	LoadSpeedup  float64 `json:"load_speedup"`  // load_1shard_ns / load_nshard_ns
}

// shardsResult extends the benchResult shape with per-corpus
// 1-shard-vs-multi-shard numbers.
type shardsResult struct {
	Name    string         `json:"name"`
	Scale   float64        `json:"scale"`
	Shards  int            `json:"shards"` // the multi-shard layout measured
	NsPerOp int64          `json:"ns_per_op"`
	Env     benchEnv       `json:"env"`
	Corpora []shardsCorpus `json:"corpora"`
}

func writeShardsResult(dir string, r *shardsResult) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, "BENCH_shards.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "sedabench: writing %s: %v\n", path, err)
		return
	}
	fmt.Printf("wrote %s\n\n", path)
}

// benchEnv records the execution environment in every BENCH_*.json so a
// perf trajectory is only ever compared across like machines: wall-clock
// from a 1-core container says nothing about an 8-core box.
type benchEnv struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	GoVersion   string `json:"go_version"`
	Parallelism int    `json:"parallelism"` // the -parallelism flag (0 = all cores)
	ShardsFlag  int    `json:"shards_flag"` // the -shards flag (0 = single shard)
}

func currentEnv() benchEnv {
	return benchEnv{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Parallelism: parallelism,
		ShardsFlag:  shardCount,
	}
}

// ingestCorpus is one corpus row of BENCH_ingest.json.
type ingestCorpus struct {
	Name      string  `json:"name"`
	Docs      int     `json:"docs"`
	IngestNs  int64   `json:"ingest_ns"`  // parse + incremental add of one document
	RebuildNs int64   `json:"rebuild_ns"` // full engine rebuild over the same corpus
	Speedup   float64 `json:"speedup"`    // rebuild_ns / ingest_ns
}

// ingestResult extends the benchResult shape with per-corpus
// incremental-vs-rebuild numbers.
type ingestResult struct {
	Name    string         `json:"name"`
	Scale   float64        `json:"scale"`
	NsPerOp int64          `json:"ns_per_op"` // whole-experiment wall time
	Env     benchEnv       `json:"env"`
	Corpora []ingestCorpus `json:"corpora"`
}

func writeIngestResult(dir string, r *ingestResult) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, "BENCH_ingest.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "sedabench: writing %s: %v\n", path, err)
		return
	}
	fmt.Printf("wrote %s\n\n", path)
}

// coldstartCorpus is one corpus row of BENCH_coldstart.json.
type coldstartCorpus struct {
	Name          string  `json:"name"`
	BuildNs       int64   `json:"build_ns"` // XML parse + full engine build
	LoadNs        int64   `json:"load_ns"`  // snapshot load
	Speedup       float64 `json:"speedup"`  // build_ns / load_ns
	SnapshotBytes int64   `json:"snapshot_bytes"`
}

// coldstartResult extends the benchResult shape with per-corpus
// build-vs-load numbers.
type coldstartResult struct {
	Name    string            `json:"name"`
	Scale   float64           `json:"scale"`
	NsPerOp int64             `json:"ns_per_op"` // whole-experiment wall time
	Env     benchEnv          `json:"env"`
	Corpora []coldstartCorpus `json:"corpora"`
}

func writeColdstartResult(dir string, r *coldstartResult) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, "BENCH_coldstart.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "sedabench: writing %s: %v\n", path, err)
		return
	}
	fmt.Printf("wrote %s\n\n", path)
}

// benchResult is the machine-readable record one experiment run leaves
// behind for perf-trajectory comparisons across revisions. Each experiment
// runs once, so ns_per_op is its wall time.
type benchResult struct {
	Name       string   `json:"name"`
	Scale      float64  `json:"scale"`
	NsPerOp    int64    `json:"ns_per_op"`
	Allocs     uint64   `json:"allocs"`
	AllocBytes uint64   `json:"alloc_bytes"`
	Env        benchEnv `json:"env"`
}

func writeBenchResult(dir string, r benchResult) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, "BENCH_"+r.Name+".json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "sedabench: writing %s: %v\n", path, err)
		return
	}
	fmt.Printf("wrote %s\n\n", path)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sedabench: %v\n", err)
	os.Exit(1)
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

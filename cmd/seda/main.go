// Command seda is the command-line counterpart of the paper's GUI (Figures
// 5 and 7): an interactive REPL over one collection that walks the Figure 6
// control flow — query, top-k results, context and connection summaries,
// refinement, complete results, and cube construction.
//
// Usage:
//
//	seda -gen worldfactbook -scale 0.1          # explore a generated corpus
//	seda -data ./corpus                          # explore a directory of XML
//	echo 'query (*, "United States")' | seda -gen worldfactbook -scale 0.05
//
// REPL commands:
//
//	query <seda query>     start a session, run top-k, show results
//	topk [k]               re-run top-k
//	contexts               show the context summary panel
//	refine <term> <path>   restrict a term to one context path
//	connections            show the connection summary panel
//	choose <i> [j ...]     pick connections by number
//	complete               materialize the complete result set R(q)
//	deffact <name> <col> <key>   define a fact from a result column
//	defdim  <name> <col> <key>   define a dimension from a result column
//	cube [fact...]         build the star schema (optionally adding facts)
//	analyze <measure> <dim> [agg]  aggregate the cube (default SUM)
//	stats                  collection and dataguide statistics
//	\save <file>           write the engine as a snapshot (all indexes included)
//	\load <file>           replace the engine from a snapshot
//	help, quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"seda"
	"seda/internal/rel"
)

func main() {
	gen := flag.String("gen", "", "generate corpus: worldfactbook|mondial|googlebase|recipeml")
	scale := flag.Float64("scale", 0.1, "generator scale")
	data := flag.String("data", "", "directory of .xml files to load")
	k := flag.Int("k", 10, "default top-k")
	shards := flag.Int("shards", 0, "horizontal index shards (0 = single shard; answers are identical at any setting)")
	flag.Parse()

	var col *seda.Collection
	cfg := seda.Config{}
	switch {
	case *data != "":
		var err error
		col, err = seda.LoadXMLDir(*data)
		if err != nil {
			fail(err)
		}
	case *gen == "worldfactbook":
		col = seda.WorldFactbook(*scale)
	case *gen == "mondial":
		col = seda.Mondial(*scale)
		cfg = seda.MondialConfig()
	case *gen == "googlebase":
		col = seda.GoogleBase(*scale)
	case *gen == "recipeml":
		col = seda.RecipeML(*scale)
	default:
		fmt.Fprintln(os.Stderr, "seda: give -data DIR or -gen DATASET (see -h)")
		os.Exit(2)
	}

	if *shards < 0 {
		fail(fmt.Errorf("-shards must be >= 0"))
	}
	cfg.Shards = *shards
	eng, err := seda.NewEngine(col, cfg)
	if err != nil {
		fail(err)
	}
	st := col.Stats()
	fmt.Printf("loaded %d documents, %d nodes, %d distinct paths; %d dataguides, %d link edges\n",
		st.NumDocs, st.NumNodes, st.NumPaths, len(eng.Dataguides().Guides), eng.Graph().NumEdges())
	fmt.Println(`type "help" for commands`)

	repl := &repl{eng: eng, k: *k, out: os.Stdout}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("seda> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "quit" || line == "exit" {
			break
		}
		if line != "" {
			if err := repl.dispatch(line); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		}
		fmt.Print("seda> ")
	}
	fmt.Println()
}

type repl struct {
	eng     *seda.Engine
	session *seda.Session
	conns   []seda.Connection
	k       int
	out     io.Writer
}

func (r *repl) dispatch(line string) error {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "help":
		fmt.Fprintln(r.out, "commands: query topk contexts refine connections choose dot complete deffact defdim cube analyze guides stats \\save \\load quit")
		return nil
	case "\\save":
		if rest == "" {
			return fmt.Errorf(`usage: \save <file>`)
		}
		if err := seda.SaveEngineFile(rest, r.eng); err != nil {
			return err
		}
		fi, err := os.Stat(rest)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.out, "saved engine snapshot to %s (%d bytes)\n", rest, fi.Size())
		return nil
	case "\\load":
		if rest == "" {
			return fmt.Errorf(`usage: \load <file>`)
		}
		le, err := seda.LoadEngineAuto(rest, seda.Config{})
		if err != nil {
			return err
		}
		r.eng = le.Engine
		r.session = nil
		r.conns = nil
		st := r.eng.Collection().Stats()
		fmt.Fprintf(r.out, "%s: %d documents, %d nodes, %d distinct paths (loaded from snapshot)\n",
			rest, st.NumDocs, st.NumNodes, st.NumPaths)
		return nil
	case "query":
		s, err := r.eng.NewSession(rest)
		if err != nil {
			return err
		}
		r.session = s
		r.conns = nil
		return r.topk(r.k)
	case "topk":
		k := r.k
		if rest != "" {
			var err error
			if k, err = strconv.Atoi(rest); err != nil {
				return err
			}
		}
		return r.topk(k)
	case "contexts":
		return r.contexts()
	case "refine":
		parts := strings.Fields(rest)
		if len(parts) < 2 {
			return fmt.Errorf("usage: refine <term#> <path> [path...]")
		}
		term, err := strconv.Atoi(parts[0])
		if err != nil {
			return err
		}
		if err := r.need(); err != nil {
			return err
		}
		if err := r.session.RefineContexts(term, parts[1:]...); err != nil {
			return err
		}
		fmt.Fprintf(r.out, "term %d restricted; query is now %s\n", term, r.session.Query())
		return r.topk(r.k)
	case "connections":
		return r.connections()
	case "choose":
		if err := r.need(); err != nil {
			return err
		}
		var idx []int
		for _, f := range strings.Fields(rest) {
			i, err := strconv.Atoi(f)
			if err != nil {
				return err
			}
			idx = append(idx, i)
		}
		if err := r.session.ChooseConnections(idx...); err != nil {
			return err
		}
		fmt.Fprintf(r.out, "chose %d connection(s)\n", len(idx))
		return nil
	case "complete":
		if err := r.need(); err != nil {
			return err
		}
		tab, err := r.session.ResultTable()
		if err != nil {
			return err
		}
		if tab.NumRows() > 12 {
			head := *tab
			head.Rows = tab.Rows[:12]
			head.Name = fmt.Sprintf("R(q) first 12 of %d", tab.NumRows())
			tab = &head
		}
		fmt.Fprint(r.out, tab.String())
		return nil
	case "dot":
		if err := r.need(); err != nil {
			return err
		}
		dot, err := r.session.ConnectionsDOT()
		if err != nil {
			return err
		}
		fmt.Fprint(r.out, dot)
		return nil
	case "deffact", "defdim":
		parts := strings.Fields(rest)
		if len(parts) < 3 {
			return fmt.Errorf("usage: %s <name> <column#> <key-spec>", cmd)
		}
		colIdx, err := strconv.Atoi(parts[1])
		if err != nil {
			return err
		}
		if err := r.need(); err != nil {
			return err
		}
		_, err = r.session.BuildCube(seda.CubeOptions{Define: []seda.NewDef{{
			Name: parts[0], Column: colIdx, IsFact: cmd == "deffact",
			Key: strings.Join(parts[2:], " "),
		}}})
		if err != nil {
			return err
		}
		fmt.Fprintf(r.out, "defined %s %q\n", map[bool]string{true: "fact", false: "dimension"}[cmd == "deffact"], parts[0])
		return nil
	case "cube":
		if err := r.need(); err != nil {
			return err
		}
		star, err := r.session.BuildCube(seda.CubeOptions{AddFacts: strings.Fields(rest)})
		if err != nil {
			return err
		}
		r.printStar(star)
		return nil
	case "analyze":
		parts := strings.Fields(rest)
		if len(parts) < 2 {
			return fmt.Errorf("usage: analyze <measure> <dim> [SUM|COUNT|AVG|MIN|MAX]")
		}
		if err := r.need(); err != nil {
			return err
		}
		star, err := r.session.BuildCube(seda.CubeOptions{})
		if err != nil {
			return err
		}
		fn := rel.Sum
		if len(parts) > 2 {
			fn = rel.AggFn(strings.ToUpper(parts[2]))
		}
		tab, err := r.eng.Aggregate(star, parts[0], []string{parts[1]}, fn)
		if err != nil {
			return err
		}
		fmt.Fprint(r.out, tab.String())
		return nil
	case "guides":
		dg := r.eng.Dataguides()
		if rest == "" {
			out := dg.Summary()
			if len(dg.Guides) > 20 {
				lines := strings.SplitN(out, "\n", 22)
				out = strings.Join(lines[:21], "\n") + fmt.Sprintf("\n  ... %d more (guides <id> to inspect)\n", len(dg.Guides)-20)
			}
			fmt.Fprint(r.out, out)
			return nil
		}
		id, err := strconv.Atoi(rest)
		if err != nil {
			return err
		}
		if id < 0 || id >= len(dg.Guides) {
			return fmt.Errorf("guide %d out of range (0..%d)", id, len(dg.Guides)-1)
		}
		fmt.Fprint(r.out, dg.Guides[id].TreeString(r.eng.Collection().Dict()))
		return nil
	case "stats":
		st := r.eng.Collection().Stats()
		dg := r.eng.Dataguides()
		fmt.Fprintf(r.out, "documents: %d  nodes: %d  distinct paths: %d  tags: %d\n", st.NumDocs, st.NumNodes, st.NumPaths, st.NumTags)
		fmt.Fprintf(r.out, "dataguides: %d (threshold %.2f, reduction %.1fx)  link edges: %d\n",
			len(dg.Guides), dg.Threshold, dg.Stats().Reduction, r.eng.Graph().NumEdges())
		return nil
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

func (r *repl) need() error {
	if r.session == nil {
		return fmt.Errorf("no active session; start with: query (context, search) ...")
	}
	return nil
}

func (r *repl) topk(k int) error {
	if err := r.need(); err != nil {
		return err
	}
	rs, err := r.session.TopK(k)
	if err != nil {
		return err
	}
	dict := r.eng.Collection().Dict()
	fmt.Fprintf(r.out, "top-%d results for %s\n", k, r.session.Query())
	for i, res := range rs {
		fmt.Fprintf(r.out, "%2d. score=%.3f compact=%.2f\n", i+1, res.Score, res.Compactness)
		for j, n := range res.Nodes {
			content := r.eng.Collection().Content(n)
			if len(content) > 48 {
				content = content[:48] + "…"
			}
			fmt.Fprintf(r.out, "      t%d %-58s %q\n", j, dict.Path(res.Paths[j]), content)
		}
	}
	if len(rs) == 0 {
		fmt.Fprintln(r.out, "(no results)")
	}
	return nil
}

func (r *repl) contexts() error {
	if err := r.need(); err != nil {
		return err
	}
	buckets := r.session.ContextSummary()
	for ti, b := range buckets {
		fmt.Fprintf(r.out, "term %d %s — %d context(s):\n", ti, b.Term, len(b.Entries))
		for i, e := range b.Entries {
			if i == 8 {
				fmt.Fprintf(r.out, "    ... %d more\n", len(b.Entries)-8)
				break
			}
			entity := ""
			if e.Entity != "" {
				entity = "  <" + e.Entity + ">"
			}
			fmt.Fprintf(r.out, "    %-62s in %d docs (%d nodes)%s\n", e.PathString, e.DocFreq, e.Occurrences, entity)
		}
	}
	return nil
}

func (r *repl) connections() error {
	if err := r.need(); err != nil {
		return err
	}
	conns, err := r.session.ConnectionSummary()
	if err != nil {
		return err
	}
	r.conns = conns
	dict := r.eng.Collection().Dict()
	fmt.Fprintf(r.out, "%d candidate connection(s):\n", len(conns))
	for i, cn := range conns {
		fp := ""
		if cn.FalsePositive {
			fp = "  [no instance in top-k]"
		}
		fmt.Fprintf(r.out, "%2d. t%d~t%d  %s  (len %d, support %d)%s\n",
			i, cn.TermA, cn.TermB, cn.Describe(dict), cn.Length, cn.Support, fp)
	}
	return nil
}

func (r *repl) printStar(star *seda.Star) {
	for _, w := range star.Warnings {
		fmt.Fprintln(r.out, "note:", w)
	}
	for _, ft := range star.FactTables {
		fmt.Fprint(r.out, ft.String())
	}
	for _, dt := range star.DimTables {
		fmt.Fprintf(r.out, "dimension %s: %d members\n", dt.Name, dt.NumRows())
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "seda: %v\n", err)
	os.Exit(1)
}

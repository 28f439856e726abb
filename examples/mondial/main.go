// Mondial: exploring linked XML (the paper's Figure 1 data graph). The
// corpus interlinks countries, cities, provinces, seas and organizations
// with IDREF attributes; this example discovers those edges, runs a
// cross-document search ("which countries border the Pacific Ocean?"), and
// shows link-backed connections in the connection summary.
package main

import (
	"fmt"
	"log"

	"seda"
)

func main() {
	col := seda.Mondial(0.05)
	// MondialConfig tells link discovery which attributes carry ids and
	// references (bordering, country, members, insea).
	eng, err := seda.NewEngine(col, seda.MondialConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d docs, %d link edges, %d dataguides\n\n",
		col.NumDocs(), eng.Graph().NumEdges(), len(eng.Dataguides().Guides))

	// Cross-document question: pair the Pacific Ocean with country names.
	// The tuples connect through sea->country bordering edges (Definition
	// 4: results must be connected in the data graph).
	s, err := eng.NewSession(`(/sea/name, "Pacific Ocean") AND (/country/name, *)`)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := s.TopK(5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-%d cross-document tuples:\n", len(rs))
	for _, r := range rs {
		fmt.Printf("  %-20q ~ %-20q (docs %d ~ %d, compactness %.2f)\n",
			col.Content(r.Nodes[0]), col.Content(r.Nodes[1]),
			r.Nodes[0].Doc, r.Nodes[1].Doc, r.Compactness)
	}

	// The connection summary names the relationship: a "sea" IDREF edge.
	conns, err := s.ConnectionSummary()
	if err != nil {
		log.Fatal(err)
	}
	dict := col.Dict()
	fmt.Println("\nproposed connections:")
	for _, cn := range conns {
		fmt.Printf("  t%d~t%d %s (support %d)\n", cn.TermA, cn.TermB, cn.Describe(dict), cn.Support)
	}

	// Dataguide view: every entity kind collapses to a few structural
	// variants.
	dg := eng.Dataguides()
	fmt.Printf("\ndataguides: %d for %d documents (reduction %.0fx)\n",
		len(dg.Guides), col.NumDocs(), dg.Stats().Reduction)
	for _, g := range dg.Guides[:min(5, len(dg.Guides))] {
		first := dict.Path(g.Paths()[0])
		fmt.Printf("  guide %2d: %3d paths, %4d docs (root %s)\n", g.ID, g.Size(), g.NumDocs(), first)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Command sedagen generates the paper's evaluation corpora as XML files on
// disk, so they can be inspected, loaded with seda.LoadXMLDir, or fed to
// other tools.
//
// Usage:
//
//	sedagen -dataset worldfactbook -scale 0.1 -out ./corpus
//	sedagen -dataset all -scale 1 -out ./corpora
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"seda"
)

var generators = map[string]func(float64) *seda.Collection{
	"worldfactbook": seda.WorldFactbook,
	"mondial":       seda.Mondial,
	"googlebase":    seda.GoogleBase,
	"recipeml":      seda.RecipeML,
}

func main() {
	dataset := flag.String("dataset", "worldfactbook", "corpus to generate: worldfactbook|mondial|googlebase|recipeml|all")
	scale := flag.Float64("scale", 0.1, "corpus scale (1.0 = paper size)")
	out := flag.String("out", "corpus", "output directory")
	snapshot := flag.Bool("snapshot", false, "also write engine.snap, the full engine snapshot (loadable with seda.LoadEngineFile — no rebuild on load)")
	shards := flag.Int("shards", 0, "horizontal index shards of the engine.snap engine (0 = single shard; the snapshot stores one section group per shard)")
	flag.Parse()
	if *shards < 0 {
		fmt.Fprintln(os.Stderr, "sedagen: -shards must be >= 0")
		os.Exit(2)
	}

	names := []string{*dataset}
	if *dataset == "all" {
		names = []string{"worldfactbook", "mondial", "googlebase", "recipeml"}
	}
	for _, name := range names {
		gen, ok := generators[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "sedagen: unknown dataset %q\n", name)
			os.Exit(2)
		}
		dir := *out
		if *dataset == "all" {
			dir = filepath.Join(*out, name)
		}
		if err := write(name, gen(*scale), dir, *snapshot, *shards); err != nil {
			fmt.Fprintf(os.Stderr, "sedagen: %v\n", err)
			os.Exit(1)
		}
	}
}

func write(name string, col *seda.Collection, dir string, snapshot bool, shards int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, doc := range col.Docs() {
		path := filepath.Join(dir, fmt.Sprintf("%s.xml", doc.Name))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := doc.WriteXML(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if snapshot {
		// The engine snapshot persists every derived layer (indexes, data
		// graph, dataguide summary), so loading it skips the rebuild.
		cfg := seda.Config{}
		if name == "mondial" {
			cfg = seda.MondialConfig()
		}
		cfg.Shards = shards
		eng, err := seda.NewEngine(col, cfg)
		if err != nil {
			return err
		}
		if err := seda.SaveEngineFile(filepath.Join(dir, "engine.snap"), eng); err != nil {
			return err
		}
	}
	st := col.Stats()
	fmt.Printf("%s: wrote %d documents (%d nodes, %d distinct paths) to %s\n",
		name, st.NumDocs, st.NumNodes, st.NumPaths, dir)
	return nil
}

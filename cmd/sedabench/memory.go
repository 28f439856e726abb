// The memory experiment: what paged residency buys a larger-than-RAM
// engine. Per builtin corpus it measures the encoded shard sections, then
// loads the snapshot paged at resident budgets of 100%, 50%, and 25% of
// the index's encoded size — once per paging backstore (heap-held encoded
// payloads vs disk-backed page-ins vs an mmap of the snapshot) — and
// records the resident heap and query latency percentiles at each point:
// the memory/latency trade the `sedad -resident-budget` and `-mmap` flags
// expose.
//
// Queries are derived from each corpus's own vocabulary (mid-frequency
// terms, one- and two-term conjunctions), so every corpus exercises the
// scatter-gather path without hand-picked keywords.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"seda"
	"seda/internal/snapcodec"
)

// memoryQueryRounds repeats the derived query set this many times per
// budget; with ~5 queries per corpus that is enough samples for a stable
// p95 while keeping `sedabench -exp all` fast.
const memoryQueryRounds = 30

func memoryExp(scale float64) *memoryResult {
	multi := shardCount
	if multi <= 1 {
		multi = 4
	}
	res := &memoryResult{Name: "memory", Scale: scale, Shards: multi, Env: currentEnv()}
	tmp, err := os.MkdirTemp("", "seda-memory-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	fmt.Printf("%-16s %12s   %s\n", "corpus", "index bytes", "per-budget heap / p95")
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
		cfg.Shards = multi

		source := c.gen(scale)
		eng, err := seda.NewEngine(source, cfg)
		if err != nil {
			fatal(err)
		}
		row := memoryCorpus{Name: c.name, Docs: source.NumDocs()}

		// Section sizes: the shard sections the snapshot below carries.
		for s := 0; s < eng.NumShards(); s++ {
			var cw snapcodec.Writer
			if err := eng.Index().EncodeShard(&cw, s); err != nil {
				fatal(err)
			}
			row.IndexBytes += int64(cw.Len())
		}
		if row.IndexBytes == 0 {
			fatal(fmt.Errorf("memory: corpus %s produced an empty index", c.name))
		}

		snap := filepath.Join(tmp, c.name+".snap")
		if err := seda.SaveEngineFile(snap, eng); err != nil {
			fatal(err)
		}
		fi, err := os.Stat(snap)
		if err != nil {
			fatal(err)
		}
		row.SnapshotBytes = fi.Size()

		queries := memoryQueries(eng)
		if len(queries) == 0 {
			fatal(fmt.Errorf("memory: no queries derivable from %s vocabulary", c.name))
		}
		wantTerms := eng.Index().NumTerms()
		eng = nil // the paged loads below must not sit on top of the build

		fmt.Printf("%-16s %12d\n", c.name, row.IndexBytes)
		for _, b := range []struct {
			label string
			div   int64
		}{
			{"100%", 1}, {"50%", 2}, {"25%", 4},
		} {
			budget := row.IndexBytes / b.div
			fmt.Printf("  %4s ", b.label)
			for _, bk := range []struct {
				label string
				mode  seda.BackingMode
			}{
				{"heap", seda.BackingHeap},
				{"disk", seda.BackingDisk},
				{"mmap", seda.BackingMmap},
			} {
				pcfg := cfg
				pcfg.ResidentBudget = budget
				pcfg.Backing = bk.mode

				runtime.GC()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				paged, err := seda.LoadEngineFile(snap, pcfg)
				if err != nil {
					fatal(err)
				}
				if paged.Index().NumTerms() != wantTerms {
					fatal(fmt.Errorf("memory: %s paged load differs from built engine", c.name))
				}

				lat := make([]time.Duration, 0, memoryQueryRounds*len(queries))
				for round := 0; round < memoryQueryRounds; round++ {
					for _, q := range queries {
						start := time.Now()
						s, err := paged.NewSession(q)
						if err != nil {
							fatal(err)
						}
						if _, err := s.TopK(10); err != nil {
							fatal(err)
						}
						lat = append(lat, time.Since(start))
					}
				}
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })

				// Resident heap at this budget and backing: heap growth
				// attributable to the loaded engine once queries have paged
				// its working set in. GC first so the previous combination's
				// engine does not inflate it. Disk backings should sit
				// materially below heap at tight budgets — evicted shards
				// keep no encoded payload on the heap.
				runtime.GC()
				runtime.ReadMemStats(&m1)
				heap := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
				if heap < 0 {
					heap = 0
				}

				st, ok := paged.PagerStats()
				if !ok {
					fatal(fmt.Errorf("memory: %s budgeted load attached no pager", c.name))
				}
				row.Budgets = append(row.Budgets, memoryBudget{
					Label:            b.label,
					Backing:          bk.label,
					BudgetBytes:      budget,
					HeapBytes:        heap,
					P50Ns:            lat[len(lat)/2].Nanoseconds(),
					P95Ns:            lat[len(lat)*95/100].Nanoseconds(),
					Queries:          len(lat),
					PageIns:          st.PageIns,
					Evictions:        st.Evictions,
					ResidentShards:   st.Resident,
					ResidentBytes:    st.ResidentBytes,
					EncodedHeapBytes: st.EncodedHeapBytes,
					DiskReads:        st.DiskReads,
				})
				fmt.Printf(" %s %s/%v", bk.label, memoryHumanBytes(heap),
					lat[len(lat)*95/100].Round(time.Microsecond))
			}
			fmt.Println()
		}
		res.Corpora = append(res.Corpora, row)
	}
	return res
}

// memoryQueries mirrors the corpus-agnostic query derivation the engine
// equivalence tests use: a few mid-frequency vocabulary terms combined
// into one- and two-term queries.
func memoryQueries(eng *seda.Engine) []string {
	var terms []string
	numDocs := eng.Collection().NumDocs()
	for _, term := range eng.Index().Terms() {
		df := eng.Index().DocFreq(term)
		if df >= 2 && df <= numDocs/2+1 && len(term) >= 3 {
			terms = append(terms, term)
			if len(terms) == 3 {
				break
			}
		}
	}
	var qs []string
	for _, term := range terms {
		qs = append(qs, fmt.Sprintf("(*, %s)", term))
	}
	if len(terms) >= 2 {
		qs = append(qs, fmt.Sprintf("(*, %s) AND (*, %s)", terms[0], terms[1]))
	}
	if len(terms) >= 3 {
		qs = append(qs, fmt.Sprintf("(*, %s) AND (*, %s)", terms[1], terms[2]))
	}
	return qs
}

func memoryHumanBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// memoryBudget is one resident-budget measurement within a corpus row.
type memoryBudget struct {
	Label       string `json:"label"`        // fraction of the encoded index size
	Backing     string `json:"backing"`      // paging backstore: heap, disk, or mmap
	BudgetBytes int64  `json:"budget_bytes"` // core.Config.ResidentBudget used
	HeapBytes   int64  `json:"heap_bytes"`   // post-GC heap growth of the loaded engine
	P50Ns       int64  `json:"p50_ns"`       // query latency percentiles over Queries samples
	P95Ns       int64  `json:"p95_ns"`
	Queries     int    `json:"queries"`

	// Pager accounting at the end of the query run.
	PageIns          uint64 `json:"pageins"`
	Evictions        uint64 `json:"evictions"`
	ResidentShards   int    `json:"resident_shards"`
	ResidentBytes    int64  `json:"resident_bytes"`
	EncodedHeapBytes int64  `json:"encoded_heap_bytes"` // evicted payloads still on the Go heap
	DiskReads        uint64 `json:"disk_reads"`         // sections re-read from the snapshot file
}

// memoryCorpus is one corpus row of BENCH_memory.json.
type memoryCorpus struct {
	Name          string         `json:"name"`
	Docs          int            `json:"docs"`
	IndexBytes    int64          `json:"index_bytes"` // encoded shard sections
	SnapshotBytes int64          `json:"snapshot_bytes"`
	Budgets       []memoryBudget `json:"budgets"`
}

// memoryResult extends the benchResult shape with per-corpus index size
// and paged-residency numbers.
type memoryResult struct {
	Name    string         `json:"name"`
	Scale   float64        `json:"scale"`
	Shards  int            `json:"shards"` // shard layout measured
	NsPerOp int64          `json:"ns_per_op"`
	Env     benchEnv       `json:"env"`
	Corpora []memoryCorpus `json:"corpora"`
}

func writeMemoryResult(dir string, r *memoryResult) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, "BENCH_memory.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "sedabench: writing %s: %v\n", path, err)
		return
	}
	fmt.Printf("wrote %s\n\n", path)
}

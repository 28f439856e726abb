package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"seda/internal/index"
	"seda/internal/obs"
)

// The tentpole invariant of lazy residency: a paged engine — each term's
// postings and each path's node list read from the snapshot section one
// run at a time, cached under a byte budget — answers top-k, context
// summaries, and connection summaries byte-identically to a
// fully-resident engine, at any budget, including after evict→fetch
// cycles and incremental ingest. Run under -race (CI does) to also
// exercise the run cache against concurrent fetches.

// TestPagedEquivalence is the acceptance criterion, across all four
// corpora.
func TestPagedEquivalence(t *testing.T) {
	for _, c := range corpusConfigs() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			raw := renderXML(t, c.gen(c.scale))
			cfg := c.cfg
			cfg.Shards = 4
			full := scratchEngine(t, raw, cfg)
			queries := pickQueries(full)
			if len(queries) == 0 {
				t.Fatal("no queries derived from vocabulary")
			}
			want := mustCanonical(t, full, queries)
			var total int64
			for _, st := range full.ShardStats() {
				total += st.Bytes
			}

			path := filepath.Join(t.TempDir(), "paged.snap")
			if err := SaveEngineFile(path, full, ""); err != nil {
				t.Fatal(err)
			}

			// A 1-byte budget is the pathological floor: every page-in
			// immediately overflows the budget, so the pager thrashes and
			// every query wave crosses evict→page-in cycles.
			for _, budget := range []int64{1, total / 2} {
				budget := budget
				t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
					t.Parallel()
					pcfg := cfg
					pcfg.ResidentBudget = budget
					paged, err := LoadEngineFile(path, pcfg, "")
					if err != nil {
						t.Fatal(err)
					}
					if got := paged.NumShards(); got != 4 {
						t.Fatalf("paged NumShards = %d, want 4", got)
					}
					st, ok := paged.PagerStats()
					if !ok {
						t.Fatal("paged engine reports no pager")
					}
					if st.Budget != budget {
						t.Fatalf("pager budget = %d, want %d", st.Budget, budget)
					}
					// Render twice: the second pass re-reads runs the first
					// pass may have evicted.
					if got := mustCanonical(t, paged, queries); got != want {
						t.Errorf("paged engine diverges from resident\n--- resident ---\n%s\n--- paged ---\n%s", want, got)
					}
					if got := mustCanonical(t, paged, queries); got != want {
						t.Errorf("paged engine diverges on re-query after eviction")
					}
					st, _ = paged.PagerStats()
					if st.PageIns == 0 {
						t.Error("paged engine answered without a single page-in")
					}
					// The budget holds at run granularity: the resident runs'
					// decoded bytes stay within it, unless one run alone
					// exceeds it — at a 1-byte budget, every fetch evicts
					// the run before it.
					if st.ResidentBytes > budget && st.Resident > 1 {
						t.Errorf("%d runs of %d decoded bytes resident under a %d-byte budget", st.Resident, st.ResidentBytes, budget)
					}
					if budget == 1 && st.Evictions == 0 {
						t.Error("1-byte budget but no evictions")
					}
					for s, ss := range paged.ShardStats() {
						if ss.Resident {
							t.Errorf("shard %d of a snapshot-backed paged engine holds its whole decoded state", s)
						}
					}
				})
			}
		})
	}
}

// TestPagedIngestEquivalence: incremental ingest on a paged engine — the
// tail shard extension decodes the section it extends, the inherited
// pager keeps evicting runs — still answers byte-identically to a
// fully-resident build of the final document set.
func TestPagedIngestEquivalence(t *testing.T) {
	c := corpusConfigs()[0]
	raw := renderXML(t, c.gen(c.scale))
	cfg := c.cfg
	cfg.Shards = 4
	full := scratchEngine(t, raw, cfg)
	queries := pickQueries(full)
	want := mustCanonical(t, full, queries)

	cut := len(raw) * 3 / 5
	base := scratchEngine(t, raw[:cut], cfg)
	path := filepath.Join(t.TempDir(), "base.snap")
	if err := SaveEngineFile(path, base, ""); err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.ResidentBudget = 1
	paged, err := LoadEngineFile(path, pcfg, "")
	if err != nil {
		t.Fatal(err)
	}
	next, err := paged.AddDocumentsXML(raw[cut:])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := next.PagerStats(); !ok {
		t.Fatal("ingest generation dropped the pager")
	}
	if got := mustCanonical(t, next, queries); got != want {
		t.Errorf("paged engine after ingest diverges\n--- resident ---\n%s\n--- paged+ingest ---\n%s", want, got)
	}
}

// TestPagingMetrics: page-ins and evictions reach an installed
// PagingMetrics set and render in Prometheus exposition.
func TestPagingMetrics(t *testing.T) {
	c := corpusConfigs()[0]
	raw := renderXML(t, c.gen(c.scale))
	cfg := c.cfg
	cfg.Shards = 4
	full := scratchEngine(t, raw, cfg)
	queries := pickQueries(full)

	path := filepath.Join(t.TempDir(), "m.snap")
	if err := SaveEngineFile(path, full, ""); err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.ResidentBudget = 1
	paged, err := LoadEngineFile(path, pcfg, "")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	paged.SetPagingMetrics(index.NewPagingMetrics(reg))
	mustCanonical(t, paged, queries)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, metric := range []string{
		"seda_paging_pageins_total",
		"seda_paging_evictions_total",
		"seda_paging_resident_bytes",
		"seda_paging_pagein_seconds",
		"seda_paging_disk_reads_total",
		"seda_paging_disk_read_seconds",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("exposition missing %s", metric)
		}
	}
	if strings.Contains(text, "seda_paging_pageins_total 0\n") {
		t.Error("page-ins never reached the metric set")
	}
	// A file-loaded budgeted engine defaults to disk-backed paging, so the
	// disk-read family must be moving too.
	if strings.Contains(text, "seda_paging_disk_reads_total 0\n") {
		t.Error("disk reads never reached the metric set")
	}

	// A metric set attached to an engine with shards already resident
	// (the serving tier adopts built engines that never paged anything
	// in) must still report their bytes: SetMetrics reconciles the gauge
	// with the pager's accounting, and a replaced set gives them back.
	st, _ := paged.PagerStats()
	reg2 := obs.NewRegistry()
	paged.SetPagingMetrics(index.NewPagingMetrics(reg2))
	buf.Reset()
	if err := reg2.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("seda_paging_resident_bytes %d\n", st.ResidentBytes)
	if !strings.Contains(buf.String(), want) {
		t.Errorf("re-attached metric set does not report the resident bytes: want %q in exposition", want)
	}
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "seda_paging_resident_bytes 0\n") {
		t.Error("replaced metric set kept the engine's resident bytes")
	}
}

package topk

import "seda/internal/obs"

// Metrics is the search-side metric family set. A single instance is
// shared across engine generations (the serving tier owns it) so counters
// stay monotonic across ingest swaps. All fields are pre-registered; a nil
// *Metrics disables instrumentation entirely and the search path performs
// no metric work at all — sedalint's nilgate analyzer enforces the
// dominating nil check on every use in a hot package.
//
//seda:nilgated
type Metrics struct {
	// Searches counts completed top-k searches.
	Searches *obs.Counter
	// Duration is end-to-end Search latency.
	Duration *obs.Histogram
	// Waves counts TA waves executed across all searches.
	Waves *obs.Counter
	// UnitsCandidates / UnitsScanned / TuplesScored accumulate the Stats
	// counters; scanned < candidates across scrapes shows early
	// termination paying off fleet-wide.
	UnitsCandidates *obs.Counter
	UnitsScanned    *obs.Counter
	TuplesScored    *obs.Counter
	// FetchTasks counts (term × shard) index scatter tasks issued.
	FetchTasks *obs.Counter
	// EarlyTerminations counts searches that stopped on the TA threshold
	// before draining every candidate unit.
	EarlyTerminations *obs.Counter
	// Fanout is the per-search scatter width (terms × shards), a
	// distribution rather than a counter so shard-count changes show up.
	Fanout *obs.Histogram
}

// fanoutBuckets cover scatter widths from a single (term, shard) task up
// to wide queries on max-sharded engines.
var fanoutBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// NewMetrics registers the topk family set on reg under the seda_topk_*
// prefix.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Searches: reg.NewCounter("seda_topk_searches_total",
			"Completed top-k searches."),
		Duration: reg.NewHistogram("seda_topk_search_duration_seconds",
			"End-to-end top-k search latency.", nil),
		Waves: reg.NewCounter("seda_topk_waves_total",
			"TA waves executed across all searches."),
		UnitsCandidates: reg.NewCounter("seda_topk_units_candidates_total",
			"Candidate units (docs or doc pairs) with full term coverage."),
		UnitsScanned: reg.NewCounter("seda_topk_units_scanned_total",
			"Candidate units materialized before the TA threshold stopped the scan."),
		TuplesScored: reg.NewCounter("seda_topk_tuples_scored_total",
			"Scored (connected) result tuples."),
		FetchTasks: reg.NewCounter("seda_topk_fetch_tasks_total",
			"Index scatter tasks issued (terms x shards)."),
		EarlyTerminations: reg.NewCounter("seda_topk_early_terminations_total",
			"Searches stopped by the TA threshold before draining all units."),
		Fanout: reg.NewHistogram("seda_topk_scatter_fanout",
			"Per-search index scatter width (terms x shards).", fanoutBuckets),
	}
}

// observe folds one finished search into the family set.
func (m *Metrics) observe(st Stats, fetchTasks int, seconds float64) {
	m.Searches.Inc()
	m.Duration.Observe(seconds)
	m.Waves.Add(uint64(st.Waves))
	m.UnitsCandidates.Add(uint64(st.UnitsCandidates))
	m.UnitsScanned.Add(uint64(st.UnitsScanned))
	m.TuplesScored.Add(uint64(st.TuplesScored))
	m.FetchTasks.Add(uint64(fetchTasks))
	if st.EarlyTerminated {
		m.EarlyTerminations.Inc()
	}
	m.Fanout.Observe(float64(fetchTasks))
}

// Trace is the opt-in per-search execution trace behind "explain": true.
// Point Options.Trace at a zero Trace before Search and it is filled in
// place; the search allocates only into the caller's Trace (the disabled
// nil path stays allocation-free; nil-gating enforced by sedalint's
// nilgate analyzer).
//
//seda:nilgated
type Trace struct {
	// Terms and Shards give the scatter dimensions; FetchTasks = Terms*Shards.
	Terms      int `json:"terms"`
	Shards     int `json:"shards"`
	FetchTasks int `json:"fetch_tasks"`
	// PerTermMatches is the gathered match count per query term.
	PerTermMatches []int `json:"per_term_matches"`
	// FetchNs and RankNs split search time into the index scatter-gather
	// phase and the TA rank loop.
	FetchNs int64 `json:"fetch_ns"`
	RankNs  int64 `json:"rank_ns"`
	// Stats counters for this one search.
	UnitsCandidates int  `json:"units_candidates"`
	UnitsScanned    int  `json:"units_scanned"`
	TuplesScored    int  `json:"tuples_scored"`
	EarlyTerminated bool `json:"early_terminated"`
	// KthScore is the final k-th (threshold) score; 0 if fewer than k
	// results exist.
	KthScore float64 `json:"kth_score"`
	// Waves records the threshold evolution wave by wave.
	Waves []WaveTrace `json:"waves"`
}

// WaveTrace is one TA wave: how many units it scanned, the cumulative
// scan position after it, the k-th score after it, and the bound of the
// next unscanned unit (the value the threshold is tested against; 0 when
// the wave drained the candidate list).
type WaveTrace struct {
	Units     int     `json:"units"`
	CumUnits  int     `json:"cum_units"`
	KthScore  float64 `json:"kth_score"`
	NextBound float64 `json:"next_bound"`
}

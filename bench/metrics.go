package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The two lists below are the
// benchmark's contract with BENCHMARK.json: the smoke test fails when they
// drift apart.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the serving tier sees; every workload reports
// all of them from the run with tracing off.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"ops_per_s", "op/s"},
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
}

// perLayer is reported by the traced run. A metric named <span>_ms is the
// median, over ops, of the self time of the spans with that name in one op
// (server.self_ms is the self time of the root span server.request); the
// others are counts and ratios read from instruments the program exposes.
var perLayer = []metricDef{
	{"server.self_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"query.parse_ms", "ms"},
	{"index.fetch_ms", "ms"},
	{"index.fetch_tasks", "count"},
	{"index.matches_per_result", "ratio"},
	{"index.pageins_per_op", "count"},
	{"index.evictions", "count"},
	{"index.disk_reads", "count"},
	{"index.resident_bytes", "bytes"},
	{"topk.rank_ms", "ms"},
	{"topk.waves", "count"},
	{"topk.scanned_per_candidate", "ratio"},
	{"summary.context_ms", "ms"},
	{"summary.connection_ms", "ms"},
	{"twig.complete_ms", "ms"},
	{"twig.tuples", "count"},
	{"cube.build_ms", "ms"},
	{"cube.fact_rows", "count"},
	{"olap.analyze_ms", "ms"},
	{"build.index_s", "s"},
	{"build.graph_s", "s"},
	{"build.dataguide_s", "s"},
	{"snapshot.load_s", "s"},
	{"snapshot.save_s", "s"},
	{"snapshot.bytes", "bytes"},
	{"xmldoc.parse_ms", "ms"},
	{"ingest.index_ms", "ms"},
	{"ingest.graph_ms", "ms"},
	{"ingest.dataguide_ms", "ms"},
	{"update.index_ms", "ms"},
	{"update.graph_ms", "ms"},
	{"update.dataguide_ms", "ms"},
	{"delete.index_ms", "ms"},
	{"delete.graph_ms", "ms"},
	{"delete.dataguide_ms", "ms"},
	{"compact.count", "count"},
	{"compact.total_ms", "ms"},
	{"trace_overhead_ratio", "ratio"},
}

// quantile returns the q-quantile of xs by nearest rank (the smallest value
// with at least q of the sample at or below it); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the mean of the two middle values for an even sample, so a
// median of few values (set-up repetitions, runs) uses all of them.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is how the
// benchmark's spread is judged; both are the single value for len(xs) < 2.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

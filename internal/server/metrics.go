// Serving-tier observability: the daemon's metric registry, the HTTP
// middleware state behind it, and the build metadata surfaced on /stats.
//
// Ownership of metric families follows the layering: the topk package owns
// the seda_topk_* search counters (installed on every engine the registry
// adopts), the registry reports engine lifecycle phase timings through the
// observer installed here, and everything HTTP-shaped — request counters,
// latency histograms, the in-flight gauge, session gauges — is
// owned by this file. One scrape of GET /metrics renders all of it from a
// single obs.Registry.

package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"seda/internal/index"
	"seda/internal/obs"
	"seda/internal/topk"
)

// engineOpBuckets spread over engine lifecycle phase times: single-layer
// decodes land in milliseconds, full builds of scaled corpora take
// seconds.
var engineOpBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// serverMetrics owns the daemon's metric registry. Counter and histogram
// handles the request path updates directly live here; gauges derived
// from existing server state (sessions, registry) are func-backed
// and read that state only at scrape time.
type serverMetrics struct {
	reg *obs.Registry

	// search is the shared topk metric set; the registry installs it on
	// every engine it adopts and ingest generations inherit it, so search
	// counters stay monotonic across builds, loads, and generation swaps.
	search *topk.Metrics

	// paging is the shared shard-paging metric set (seda_paging_*); the
	// registry installs it on every adopted engine's pager. Fully
	// resident engines have no pager and never touch it.
	paging *index.PagingMetrics

	// terms is the shared term-cache metric set (seda_term_cache_*); the
	// registry installs it on every adopted engine and derived generations
	// inherit it.
	terms *index.TermCacheMetrics

	requests *obs.CounterVec   // seda_http_requests_total{endpoint,code}
	duration *obs.HistogramVec // seda_http_request_duration_seconds{endpoint}
	inflight *obs.Gauge        // seda_http_inflight_requests
	slow     *obs.Counter      // seda_http_slow_queries_total
	served   *obs.CounterVec   // seda_topk_served_total{source}

	engineOps    *obs.CounterVec   // seda_engine_ops_total{op}
	enginePhases *obs.HistogramVec // seda_engine_phase_seconds{op,phase}
	compactions  *obs.Counter      // seda_compactions_total
}

func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:    reg,
		search: topk.NewMetrics(reg),
		paging: index.NewPagingMetrics(reg),
		terms:  index.NewTermCacheMetrics(reg),
	}

	m.requests = reg.NewCounterVec("seda_http_requests_total",
		"HTTP requests completed, by route pattern and status code.",
		"endpoint", "code")
	m.duration = reg.NewHistogramVec("seda_http_request_duration_seconds",
		"End-to-end HTTP request latency, by route pattern.",
		nil, "endpoint")
	m.inflight = reg.NewGauge("seda_http_inflight_requests",
		"Requests currently being handled.")
	m.slow = reg.NewCounter("seda_http_slow_queries_total",
		"Top-k searches at or above the slow-query threshold.")
	m.served = reg.NewCounterVec("seda_topk_served_total",
		"Top-k answers by source: a fresh search, or results the session already held.",
		"source")

	reg.NewGaugeFunc("seda_sessions_active",
		"Live exploration sessions.",
		func() float64 { return float64(s.sessions.stats().Active) })
	reg.NewCounterFunc("seda_sessions_evicted_ttl_total",
		"Sessions evicted after sitting idle past the TTL.",
		func() uint64 { return s.sessions.stats().EvictedTTL })
	reg.NewCounterFunc("seda_sessions_evicted_lru_total",
		"Sessions evicted by table-capacity LRU pressure.",
		func() uint64 { return s.sessions.stats().EvictedLRU })

	reg.NewGaugeVecFunc("seda_collections",
		"Registered collections by build state.",
		"state", s.registry.StateCounts)
	reg.NewGaugeVecFunc("seda_tombstone_ratio",
		"Fraction of each built collection's document-id space masked by tombstones (0 when compacted or never deleted from).",
		"collection", s.registry.TombstoneRatios)

	m.engineOps = reg.NewCounterVec("seda_engine_ops_total",
		"Engine lifecycle operations completed (build, load, ingest, delete, update, compact, save).",
		"op")
	m.enginePhases = reg.NewHistogramVec("seda_engine_phase_seconds",
		"Per-layer wall time of engine lifecycle operations.",
		engineOpBuckets, "op", "phase")
	m.compactions = reg.NewCounter("seda_compactions_total",
		"Shard compactions completed (explicit POST /compact plus threshold-triggered background runs).")

	reg.NewGaugeFunc("seda_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return s.now().Sub(s.started).Seconds() })
	reg.NewGaugeFunc("seda_goroutines",
		"Goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.NewGaugeFunc("seda_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.NewInfo("seda_build_info",
		"Build metadata of the running binary; the value is always 1.",
		obs.Label{Name: "go_version", Value: s.build.GoVersion},
		obs.Label{Name: "vcs_revision", Value: s.build.VCSRevision},
		obs.Label{Name: "vcs_modified", Value: fmt.Sprintf("%t", s.build.VCSModified)})
	return m
}

// observeEngineOp is the registry's lifecycle observer (Registry.SetObservers).
func (m *serverMetrics) observeEngineOp(op string, phases map[string]time.Duration) {
	m.engineOps.With(op).Inc()
	if op == "compact" {
		m.compactions.Inc()
	}
	for phase, d := range phases {
		m.enginePhases.With(op, phase).Observe(d.Seconds())
	}
}

// buildMeta is the binary's build identity: the Go toolchain version and,
// when the binary was built inside a VCS checkout, the revision stamped by
// the toolchain. Surfaced on /stats, /debug/stats, and as seda_build_info.
type buildMeta struct {
	GoVersion   string
	VCSRevision string
	VCSTime     string
	VCSModified bool
}

func readBuildMeta() buildMeta {
	m := buildMeta{GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return m
	}
	if bi.GoVersion != "" {
		m.GoVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			m.VCSRevision = s.Value
		case "vcs.time":
			m.VCSTime = s.Value
		case "vcs.modified":
			m.VCSModified = s.Value == "true"
		}
	}
	return m
}

// newRequestPrefix returns the boot-unique request-id prefix, e.g.
// "r-9f86d081". Request ids are prefix plus a process-local sequence
// number — unique across restarts (for log correlation) without paying
// for randomness per request.
func newRequestPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: crypto/rand failed: %v", err))
	}
	return "r-" + hex.EncodeToString(b[:])
}

package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seda"
	"seda/internal/core"
	"seda/internal/obs"
	"seda/internal/store"
)

// clients is the number of closed-loop analysts: the cores of the box this
// benchmark is sized for, never more clients than cores.
const clients = 2

// spec is the fixed part of a workload.
type spec struct {
	name, why string
	// collection is the name the corpus is registered under.
	collection string
	// warmup ops run before the window: they finish the lazy build or load
	// and touch every shard. The measured sequence starts after them.
	warmup int
	// verifyEvery makes every n-th measured op an oracle sample, replayed
	// through the library after the window; 0 for ops that verify
	// themselves. A full replay costs as much as the window it checks,
	// which the time cap on a run does not leave; the traced run replays
	// every op.
	verifyEvery int
	// setups is how often a measured run boots the serving tier: setup_s
	// is the median, and the last boot serves the window. Quick set-ups are
	// repeated more often, because their time varies more.
	setups int
}

// workload is one traffic mix: a corpus, a server configuration, and a
// seed-determined op sequence that can be run over HTTP and replayed through
// the library.
type workload interface {
	spec() spec
	// corpus generates the inputs of one set-up (nil when the set-up reads
	// them from disk); plan derives the op sequence from the first.
	corpus() (*store.Collection, error)
	plan(col *store.Collection)
	// serve returns a new server with the inputs registered, nothing built.
	serve(col *store.Collection) (*seda.Server, error)
	// prime runs once per set-up after the engine exists (catalog upload).
	prime(c *client) error
	// describe renders op i's inputs; the op-sequence digest hashes it.
	describe(i int) string
	// do runs op i over HTTP and returns its answer digest.
	do(c *client, i int) (string, error)
	// replay runs op i through the library on eng, recording spans into o
	// (nil = tracing off), and returns its answer digest.
	replay(eng *core.Engine, i int, o *opTrace) (string, error)
	// oracle returns the engine sampled ops are replayed on, given the
	// engine the server serves.
	oracle(served *core.Engine) (*core.Engine, error)
	// finish runs the end-of-run checks and returns one line per failure.
	finish(c *client) (checks int, failures []string)
	// layerExtras adds the per-layer metrics only this workload knows.
	layerExtras(into map[string]float64)
}

// defaults are the workload methods most workloads leave alone: nothing to
// prime, the served engine as oracle, no end-of-run checks, no extras.
type defaults struct{}

func (defaults) prime(*client) error { return nil }

func (defaults) oracle(served *core.Engine) (*core.Engine, error) { return served, nil }

func (defaults) finish(*client) (int, []string) { return 0, nil }

func (defaults) layerExtras(map[string]float64) {}

// instance is one booted serving tier.
type instance struct {
	w      workload
	srv    *seda.Server
	hs     *http.Server
	served chan struct{}
	base   string
	eng    *core.Engine // as built or loaded by boot; lifecycle ops swap the registry's own
	setup  time.Duration
}

// boot is the timed set-up: server, registration, listener, the engine
// build or snapshot load through the registry, and the warm-up ops.
func boot(w workload, col *store.Collection) (*instance, error) {
	t0 := time.Now()
	srv, err := w.serve(col)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &instance{w: w, srv: srv, hs: &http.Server{Handler: srv}, served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(in.served)
		_ = in.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	if in.eng, err = srv.Registry().Engine(w.spec().collection); err != nil {
		in.close()
		return nil, err
	}
	c := newClient(in.base)
	defer c.close()
	if err := w.prime(c); err != nil {
		in.close()
		return nil, err
	}
	for i := 0; i < w.spec().warmup; i++ {
		if _, err := w.do(c, i); err != nil {
			in.close()
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	in.setup = time.Since(t0)
	return in, nil
}

func (in *instance) close() {
	_ = in.hs.Close()
	<-in.served
}

// opRecord is one op of a window.
type opRecord struct {
	idx     int
	latency time.Duration
	digest  string
	err     error
}

// window drives the instance closed-loop with `clients` keep-alive clients
// until the deadline passes or maxOps ops have started (0 = no cap). Client
// c runs ops first+c, first+c+clients, ... With a tracer, each client
// replays every op through the library right after its HTTP run, under the
// op's root span, and the replay's digest is checked on the spot.
func (in *instance) window(first int, seconds float64, maxOps int, tr *tracer) (recs []opRecord, wall time.Duration) {
	var started atomic.Int64
	perClient := make([][]opRecord, clients)
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(in.base)
			defer cl.close()
			for k := 0; ; k++ {
				if time.Now().After(deadline) || (maxOps > 0 && started.Add(1) > int64(maxOps)) {
					return
				}
				rec := opRecord{idx: first + k*clients + c}
				t0 := time.Now()
				rec.digest, rec.err = in.w.do(cl, rec.idx)
				t1 := time.Now()
				rec.latency = t1.Sub(t0)
				if tr != nil && rec.err == nil {
					rec.err = in.traceOp(tr.root(rec.idx, t0, t1), rec)
				}
				perClient[c] = append(perClient[c], rec)
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(begin)
	for _, rs := range perClient {
		recs = append(recs, rs...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].idx < recs[j].idx })
	return recs, wall
}

func (in *instance) traceOp(o *opTrace, rec opRecord) error {
	eng, err := in.srv.Registry().Engine(in.w.spec().collection)
	if err != nil {
		return err
	}
	want, err := in.w.replay(eng, rec.idx, o)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if want != rec.digest {
		return fmt.Errorf("answer digest %s, library replay %s", rec.digest, want)
	}
	return nil
}

// verify replays every verifyEvery-th successful op on the oracle engine
// and marks the ops whose HTTP answer differs.
func verify(w workload, served *core.Engine, recs []opRecord) (verified int, err error) {
	every := w.spec().verifyEvery
	if every == 0 {
		return 0, nil
	}
	eng, err := w.oracle(served)
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := c * every; n < len(recs); n += clients * every {
				rec := &recs[n]
				if rec.err != nil {
					continue
				}
				want, err := w.replay(eng, rec.idx, nil)
				switch {
				case err != nil:
					rec.err = fmt.Errorf("oracle replay: %w", err)
				case want != rec.digest:
					rec.err = fmt.Errorf("answer digest %s, oracle %s", rec.digest, want)
				}
			}
		}(c)
	}
	wg.Wait()
	return (len(recs) + every - 1) / every, nil
}

// runResult is one run of one workload: a measured run (trace off,
// end-to-end metrics) or a traced run (per-layer metrics).
type runResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	// Samples is the size of the latency sample behind op_p50_ms and
	// op_p95_ms; Verified how many ops the oracle replayed.
	Samples    int      `json:"samples"`
	Verified   int      `json:"verified"`
	WarmupOps  int      `json:"warmup_ops"`
	GenerateS  float64  `json:"generate_s"`
	WindowS    float64  `json:"window_s"`
	NumGC      uint32   `json:"window_num_gc"`
	PauseNs    uint64   `json:"window_gc_pause_ns"`
	OpsDigest  string   `json:"ops_digest"`
	Answers    string   `json:"answers_digest"`
	Failures   []string `json:"failures,omitempty"`
	tracer     *tracer
	answerByOp map[int]string
}

// opsDigestLen is how many ops of the sequence the op-sequence digest
// covers: enough to tell seeds apart, independent of how many ops a window
// had time for.
const opsDigestLen = 64

func opsDigest(w workload) string {
	d := newDigest()
	for i := 0; i < opsDigestLen; i++ {
		d.add(w.describe(i))
	}
	return d.sum()
}

// bootAll boots the serving tier n times, closing all but the last,
// and returns the last with every set-up and the first generation time.
func bootAll(w workload, n int) (*instance, []float64, time.Duration, error) {
	var in *instance
	var setupS []float64
	var generate time.Duration
	for r := 0; r < n; r++ {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		col, err := w.corpus()
		if err != nil {
			return nil, nil, 0, err
		}
		if r == 0 {
			generate = time.Since(t0)
			w.plan(col)
		}
		if in, err = boot(w, col); err != nil {
			return nil, nil, 0, err
		}
		setupS = append(setupS, in.setup.Seconds())
	}
	return in, setupS, generate, nil
}

// tally turns a window's records and the end-of-run checks into the
// attempted/failed counts and the list of failures to print.
func (r *runResult) tally(recs []opRecord, checks int, checkFailures []string) (ok []opRecord) {
	d := newDigest()
	r.answerByOp = make(map[int]string, len(recs))
	for _, rec := range recs {
		if rec.err != nil {
			r.Failures = append(r.Failures, fmt.Sprintf("op %d: %v", rec.idx, rec.err))
			continue
		}
		ok = append(ok, rec)
		d.add(rec.digest)
		r.answerByOp[rec.idx] = rec.digest
	}
	r.Failures = append(r.Failures, checkFailures...)
	r.Attempted = len(recs) + checks
	r.Failed = len(r.Failures)
	r.Answers = d.sum()
	return ok
}

func latenciesMs(recs []opRecord) []float64 {
	xs := make([]float64, len(recs))
	for i, rec := range recs {
		xs[i] = float64(rec.latency) / 1e6
	}
	return xs
}

// measure is the run with tracing off: set-ups, one window, then the heap
// reading, the oracle and the end-of-run checks.
func measure(w workload, cfg *config) (*runResult, error) {
	in, setupS, generate, err := bootAll(w, w.spec().setups)
	if err != nil {
		return nil, err
	}
	defer in.close()
	sp := w.spec()
	res := &runResult{Workload: sp.name, WarmupOps: sp.warmup, GenerateS: generate.Seconds(), OpsDigest: opsDigest(w)}

	var before, end, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	recs, wall := in.window(sp.warmup, cfg.seconds, cfg.ops, nil)
	runtime.ReadMemStats(&end)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.WindowS = wall.Seconds()
	res.NumGC = end.NumGC - before.NumGC
	res.PauseNs = end.PauseTotalNs - before.PauseTotalNs

	if res.Verified, err = verify(w, in.eng, recs); err != nil {
		return nil, err
	}
	c := newClient(in.base)
	checks, failures := w.finish(c)
	c.close()
	ok := res.tally(recs, checks, failures)
	res.Samples = len(ok)
	lat := latenciesMs(ok)
	res.Metrics = map[string]float64{
		"op_p50_ms": quantile(lat, 0.50),
		"op_p95_ms": quantile(lat, 0.95),
		"ops_per_s": float64(len(ok)) / wall.Seconds(),
		"setup_s":   median(setupS),
		"heap_mb":   float64(after.HeapAlloc) / (1 << 20),
	}
	return res, nil
}

// traced is the run that produces the per-layer metrics. A first instance
// serves the op sequence with tracing off for a third of the time: the
// program's own counters (pager, result cache, compactor) are read over
// that window, where nothing but the HTTP ops moves them. A second,
// identically built instance serves the same sequence with every op
// replayed through the library under spans. trace_overhead_ratio compares
// the HTTP latency of the two over the ops both windows reached.
func traced(w workload, cfg *config) (*runResult, error) {
	sp := w.spec()
	plain, _, generate, err := bootAll(w, 1)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: sp.name, Traced: true, WarmupOps: sp.warmup, GenerateS: generate.Seconds(),
		OpsDigest: opsDigest(w), Metrics: make(map[string]float64)}
	pagerBefore, _ := plain.eng.PagerStats()
	famBefore, err := scrape(plain.base)
	if err != nil {
		plain.close()
		return nil, err
	}
	plainRecs, _ := plain.window(sp.warmup, cfg.seconds/3, cfg.ops, nil)
	famAfter, err := scrape(plain.base)
	pagerAfter, _ := plain.eng.PagerStats()
	plain.close()
	if err != nil {
		return nil, err
	}
	m := res.Metrics
	nPlain := float64(len(plainRecs))
	m["index.pageins_per_op"] = ratio(float64(pagerAfter.PageIns-pagerBefore.PageIns), nPlain)
	m["index.evictions"] = float64(pagerAfter.Evictions - pagerBefore.Evictions)
	m["index.disk_reads"] = float64(pagerAfter.DiskReads - pagerBefore.DiskReads)
	m["index.resident_bytes"] = float64(pagerAfter.ResidentBytes)
	hits := famAfter.value("seda_topk_cache_hits_total") - famBefore.value("seda_topk_cache_hits_total")
	misses := famAfter.value("seda_topk_cache_misses_total") - famBefore.value("seda_topk_cache_misses_total")
	m["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["compact.count"] = famAfter.value("seda_compactions_total") - famBefore.value("seda_compactions_total")
	m["compact.total_ms"] = 1e3 * (famAfter.value("seda_engine_phase_seconds_sum", "op", "compact", "phase", "total") -
		famBefore.value("seda_engine_phase_seconds_sum", "op", "compact", "phase", "total"))

	col, err := w.corpus()
	if err != nil {
		return nil, err
	}
	in, err := boot(w, col)
	if err != nil {
		return nil, err
	}
	defer in.close()
	tr := newTracer()
	res.tracer = tr
	recs, wall := in.window(sp.warmup, cfg.seconds-cfg.seconds/3, cfg.ops, tr)
	res.WindowS = wall.Seconds()
	c := newClient(in.base)
	checks, failures := w.finish(c)
	c.close()
	ok := res.tally(append(recs, failedOnly(plainRecs)...), checks, failures)
	res.Samples, res.Verified = len(ok), len(ok)

	tr.layerTimes(m)
	m["index.fetch_tasks"] = tr.perOp("fetch_tasks")
	m["index.matches_per_result"] = ratio(tr.counts["useful"], tr.counts["fetched"])
	m["topk.waves"] = tr.perOp("waves")
	m["topk.scanned_per_candidate"] = ratio(tr.counts["scanned"], tr.counts["candidates"])
	m["twig.tuples"] = tr.perOp("tuples")
	m["cube.fact_rows"] = tr.perOp("fact_rows")
	for _, layer := range []string{"index", "graph", "dataguide"} {
		m["build."+layer+"_s"] = in.eng.BuildTimings[layer].Seconds()
	}
	m["snapshot.load_s"] = in.eng.BuildTimings["load"].Seconds()
	w.layerExtras(m)
	m["trace_overhead_ratio"] = ratio(matchedP50(recs, plainRecs))
	for _, def := range perLayer {
		if _, ok := m[def.name]; !ok {
			m[def.name] = 0
		}
	}
	return res, nil
}

// failedOnly keeps the failed ops of the untraced prefix so they count.
func failedOnly(recs []opRecord) []opRecord {
	var out []opRecord
	for _, rec := range recs {
		if rec.err != nil {
			out = append(out, rec)
		}
	}
	return out
}

// matchedP50 returns the median HTTP latency of both windows over the ops
// both ran.
func matchedP50(a, b []opRecord) (float64, float64) {
	inB := make(map[int]time.Duration, len(b))
	for _, rec := range b {
		if rec.err == nil {
			inB[rec.idx] = rec.latency
		}
	}
	var xa, xb []float64
	for _, rec := range a {
		if lb, ok := inB[rec.idx]; ok && rec.err == nil {
			xa = append(xa, float64(rec.latency))
			xb = append(xb, float64(lb))
		}
	}
	return quantile(xa, 0.5), quantile(xb, 0.5)
}

// families is one scrape of GET /metrics, the program's own exposition.
type families []obs.Family

func scrape(base string) (families, error) {
	hc := &http.Client{Timeout: requestTimeout}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return fams, nil
}

// value returns the sample named name whose labels include the given
// name/value pairs, or 0 when the exposition has none.
func (fs families) value(name string, labels ...string) float64 {
	for _, f := range fs {
	samples:
		for _, s := range f.Samples {
			if s.Name != name {
				continue
			}
			for i := 0; i+1 < len(labels); i += 2 {
				if !hasLabel(s.Labels, labels[i], labels[i+1]) {
					continue samples
				}
			}
			return s.Value
		}
	}
	return 0
}

func hasLabel(ls []obs.Label, name, value string) bool {
	for _, l := range ls {
		if l.Name == name && l.Value == value {
			return true
		}
	}
	return false
}

// writeTrace writes the traced run's spans to dir/trace-<workload>.json.
func (r *runResult) writeTrace(dir string) error {
	if r.tracer == nil || dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return r.tracer.writeFile(filepath.Join(dir, "trace-"+r.Workload+".json"))
}

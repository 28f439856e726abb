package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"

	"seda/internal/core"
	"seda/internal/topk"
)

// span is one timed interval of the traced run. Spans of one op share OpID;
// Parent is the ID of the span that caused this one (0 for the root span,
// server.request). Times are nanoseconds since the traced window began.
//
// The root span is timed around the op's HTTP requests; its children are
// timed around the library calls that replay the same op, or synthesized
// from durations the program's own instruments report (topk.Trace,
// Engine.BuildTimings), so a child's interval lies after its root's. A
// span's self time is its duration minus its children's durations.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans and per-op counts in memory until the
// run ends.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64 // summed over ops
	ops    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: make(map[string]float64)} }

// opTrace records the spans of one op. A nil *opTrace records nothing, so
// the oracle replays ops through the same code with tracing off.
type opTrace struct {
	t    *tracer
	op   int
	root int
}

// root opens an op with its server.request span.
func (t *tracer) root(op int, start, end time.Time) *opTrace {
	o := &opTrace{t: t, op: op}
	o.root = o.record(0, "server.request", start, end)
	t.mu.Lock()
	t.ops++
	t.mu.Unlock()
	return o
}

func (o *opTrace) record(parent int, name string, start, end time.Time) int {
	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, OpID: o.op, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	return id
}

// time runs fn as a child span of the op's root and returns the span's id
// and start, for synthesized grandchildren.
func (o *opTrace) time(name string, fn func()) (id int, start time.Time) {
	start = time.Now()
	fn()
	if o == nil {
		return 0, start
	}
	return o.record(o.root, name, start, time.Now()), start
}

// phases lays the given instrument-reported durations out back to back as
// children of parent, starting at start.
func (o *opTrace) phases(parent int, start time.Time, names []string, durs []time.Duration) {
	if o == nil {
		return
	}
	for i, name := range names {
		end := start.Add(durs[i])
		o.record(parent, name, start, end)
		start = end
	}
}

func (o *opTrace) count(name string, v float64) {
	if o == nil {
		return
	}
	o.t.mu.Lock()
	o.t.counts[name] += v
	o.t.mu.Unlock()
}

// search runs one traced top-k search as a topk.search span whose children
// index.fetch and topk.rank come from the search's own trace.
func (o *opTrace) search(s *core.Session, k int) ([]topk.Result, error) {
	if o == nil {
		return s.TopK(k)
	}
	var tr topk.Trace
	var rs []topk.Result
	var err error
	id, start := o.time("topk.search", func() { rs, err = s.TopKTraced(k, &tr) })
	if err != nil {
		return nil, err
	}
	o.phases(id, start, []string{"index.fetch", "topk.rank"},
		[]time.Duration{time.Duration(tr.FetchNs), time.Duration(tr.RankNs)})
	o.count("fetch_tasks", float64(tr.FetchTasks))
	o.count("waves", float64(len(tr.Waves)))
	o.count("scanned", float64(tr.UnitsScanned))
	o.count("candidates", float64(tr.UnitsCandidates))
	for _, n := range tr.PerTermMatches {
		o.count("fetched", float64(n))
	}
	for _, r := range rs {
		o.count("useful", float64(len(r.Nodes)))
	}
	return rs, nil
}

// lifecycle records a derived generation's per-layer BuildTimings
// ("<op>-index", "<op>-graph", "<op>-dataguide") as children of the span
// that timed the deriving call.
func (o *opTrace) lifecycle(id int, start time.Time, op string, next *core.Engine) {
	if o == nil || next == nil {
		return
	}
	var names []string
	var durs []time.Duration
	for _, layer := range []string{"index", "graph", "dataguide"} {
		names = append(names, op+"."+layer)
		durs = append(durs, next.BuildTimings[op+"-"+layer])
	}
	o.phases(id, start, names, durs)
}

// selfTimes returns, per op, the self time in milliseconds of the spans
// with each name.
func (t *tracer) selfTimes() map[int]map[string]float64 {
	children := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		children[s.Parent] += s.EndNs - s.StartNs
	}
	out := make(map[int]map[string]float64)
	for _, s := range t.spans {
		m := out[s.OpID]
		if m == nil {
			m = make(map[string]float64)
			out[s.OpID] = m
		}
		m[s.Name] += float64(s.EndNs-s.StartNs-children[s.ID]) / 1e6
	}
	return out
}

// layerTimes fills every "<span>_ms" per-layer metric with the median over
// ops of that span name's self time in one op; an op without the span
// counts as 0.
func (t *tracer) layerTimes(into map[string]float64) {
	self := t.selfTimes()
	for _, m := range perLayer {
		name, ok := strings.CutSuffix(m.name, "_ms")
		if !ok || name == "compact.total" {
			continue
		}
		if name == "server.self" {
			name = "server.request"
		}
		xs := make([]float64, 0, len(self))
		for _, byName := range self {
			xs = append(xs, byName[name])
		}
		into[m.name] = median(xs)
	}
}

func (t *tracer) perOp(name string) float64 {
	if t.ops == 0 {
		return 0
	}
	return t.counts[name] / float64(t.ops)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (t *tracer) writeFile(path string) error {
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

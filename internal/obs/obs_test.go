package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("seda_test_total", "test counter")
	g := r.NewGauge("seda_test_gauge", "test gauge")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 7, 20} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if got, want := h.Sum(), 39.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestObserveDuration(t *testing.T) {
	h := newHistogram(DefBuckets)
	h.ObserveDuration(3 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if got := h.Sum(); math.Abs(got-0.003) > 1e-9 {
		t.Fatalf("sum = %v, want 0.003", got)
	}
}

func TestVecChildrenAndLabels(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("seda_req_total", "requests", "endpoint", "code")
	cv.With("/topk", "200").Add(3)
	cv.With("/topk", "500").Inc()
	if cv.With("/topk", "200") != cv.With("/topk", "200") {
		t.Fatal("With must return the cached child")
	}
	hv := r.NewHistogramVec("seda_req_seconds", "latency", []float64{0.1, 1}, "endpoint")
	hv.With("/topk").Observe(0.05)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`seda_req_total{endpoint="/topk",code="200"} 3`,
		`seda_req_total{endpoint="/topk",code="500"} 1`,
		`seda_req_seconds_bucket{endpoint="/topk",le="0.1"} 1`,
		`seda_req_seconds_bucket{endpoint="/topk",le="+Inf"} 1`,
		`seda_req_seconds_count{endpoint="/topk"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestFuncBackedAndInfo(t *testing.T) {
	r := NewRegistry()
	n := uint64(7)
	r.NewCounterFunc("seda_evictions_total", "evictions", func() uint64 { return n })
	r.NewGaugeFunc("seda_heap_bytes", "heap", func() float64 { return 123.5 })
	r.NewGaugeVecFunc("seda_collections", "by state", "state", func() map[string]float64 {
		return map[string]float64{"ready": 2, "building": 1}
	})
	r.NewInfo("seda_build_info", "build info", Label{"go_version", "go1.x"}, Label{"revision", "abc"})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"seda_evictions_total 7",
		"seda_heap_bytes 123.5",
		`seda_collections{state="building"} 1`,
		`seda_collections{state="ready"} 2`,
		`seda_build_info{go_version="go1.x",revision="abc"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestFuncBackedVecEmptyStillExposed: a func-backed vec family with no
// series this scrape must still emit its HELP/TYPE header — scrape
// validators assert family presence (the metrics smoke requires
// seda_tombstone_ratio before any collection has been deleted from),
// and a family that vanishes when idle breaks them.
func TestFuncBackedVecEmptyStillExposed(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeVecFunc("seda_tombstone_ratio", "masked fraction", "collection",
		func() map[string]float64 { return nil })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP seda_tombstone_ratio masked fraction\n",
		"# TYPE seda_tombstone_ratio gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "seda_tombstone_ratio{") {
		t.Errorf("empty vec emitted a sample:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("seda_esc_total", "escapes", "q")
	cv.With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `seda_esc_total{q="a\"b\\c\nd"} 1`) {
		t.Fatalf("bad escaping:\n%s", out)
	}
	fams, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if got := fams[0].Samples[0].Labels[0].Value; got != "a\"b\\c\nd" {
		t.Fatalf("round-trip label = %q", got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("seda_dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	r.NewCounter("seda_dup_total", "x")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, fn := range []func(){
		func() { r.NewCounter("9bad", "x") },
		func() { r.NewCounterVec("seda_ok_total", "x", "le") },
		func() { r.NewCounterVec("seda_ok2_total", "x", "bad-name") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestConcurrentUpdates exercises counters, gauges, vec children, and
// histograms from many goroutines while scraping concurrently; run with
// -race this is the data-race gate the ISSUE asks for.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("seda_conc_total", "c")
	g := r.NewGauge("seda_conc_gauge", "g")
	h := r.NewHistogram("seda_conc_seconds", "h", nil)
	cv := r.NewCounterVec("seda_conc_vec_total", "cv", "w")
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%4))
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%10) / 1000)
				cv.With(lbl).Inc()
			}
		}(w)
	}
	// Concurrent scrapes must parse and show monotone counters. Monotonicity
	// is per observer: two scrapers' reads are unordered, so each tracks
	// its own last value.
	var scrapeWG sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			var last uint64
			for i := 0; i < 20; i++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
				fams, err := ParseText(strings.NewReader(b.String()))
				if err != nil {
					t.Errorf("mid-update scrape unparseable: %v", err)
					return
				}
				for _, f := range fams {
					if f.Name == "seda_conc_total" {
						v := uint64(f.Samples[0].Value)
						if v < last {
							t.Errorf("counter went backwards: %d < %d", v, last)
						}
						last = v
					}
				}
			}
		}()
	}
	wg.Wait()
	scrapeWG.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %v, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("hist count = %d, want %d", h.Count(), workers*per)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":  "foo 1\n",
		"bad value":            "# TYPE foo counter\nfoo abc\n",
		"unterminated labels":  "# TYPE foo counter\nfoo{a=\"b\" 1\n",
		"bad label name":       "# TYPE foo counter\nfoo{9x=\"b\"} 1\n",
		"duplicate TYPE":       "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n",
		"histogram no +Inf":    "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"bucket count decline": "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"count mismatch":       "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"trailing timestamp":   "# TYPE foo counter\nfoo 1 1234567890\n",
	}
	for name, in := range cases {
		if _, err := ParseText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestParseTextAcceptsOwnOutput(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("seda_a_total", "a").Add(3)
	r.NewHistogram("seda_b_seconds", "b", nil).Observe(0.01)
	hv := r.NewHistogramVec("seda_c_seconds", "c", []float64{0.5, 1}, "ep")
	hv.With("x").Observe(0.7)
	hv.With("y").Observe(2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("own output unparseable: %v\n%s", err, b.String())
	}
	if len(fams) != 3 {
		t.Fatalf("parsed %d families, want 3", len(fams))
	}
	if fams[1].Type != "histogram" || len(fams[1].Samples) == 0 {
		t.Fatalf("histogram family not parsed: %+v", fams[1])
	}
}

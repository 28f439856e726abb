package main

import (
	"testing"
)

// smokeConfig is a run small enough for `go test`: a twentieth of the
// corpora and windows of twenty ops.
func smokeConfig(t *testing.T, seed int64) *config {
	return &config{seed: seed, seconds: 5, scale: 0.05, ops: 20, tmp: t.TempDir()}
}

// TestNamesMatchBenchmarkFile pins the emitted workload and metric names,
// units included, to BENCHMARK.json.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	var bf benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadNames))
	}
	for i, name := range workloadNames {
		sp := newWorkload(name, smokeConfig(t, 1)).spec()
		if bf.Workloads[i].Name != name || sp.name != name || bf.Workloads[i].Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, sp.name, sp.why)
		}
	}
	for _, list := range []struct {
		file []benchmarkMetric
		prog []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(list.file) != len(list.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(list.file), len(list.prog))
		}
		for i, d := range list.prog {
			if list.file[i].Name != d.name || list.file[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, list.file[i].Name, list.file[i].Unit, d.name, d.unit)
			}
		}
	}
}

func plannedDigest(t *testing.T, name string, seed int64) string {
	w := newWorkload(name, smokeConfig(t, seed))
	col, err := w.corpus()
	if err != nil {
		t.Fatal(err)
	}
	w.plan(col)
	return opsDigest(w)
}

func TestSeedDeterminesOpSequence(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := plannedDigest(t, name, 1), plannedDigest(t, name, 1), plannedDigest(t, name, 2)
		if a != b {
			t.Errorf("%s: seed 1 planned %s, then %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 plan the same op sequence %s", name, a)
		}
	}
}

func TestSmoke(t *testing.T) {
	var fresh *runResult
	for _, name := range workloadNames {
		cfg := smokeConfig(t, 1)
		res, err := measure(newWorkload(name, cfg), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		switch name {
		case "search.fresh":
			fresh = res
		case "search.paged":
			res.mustAnswerLike(fresh)
			if len(res.answerByOp) != cfg.ops || len(fresh.answerByOp) != cfg.ops {
				t.Errorf("paged answered %d ops, fresh %d, want %d each", len(res.answerByOp), len(fresh.answerByOp), cfg.ops)
			}
		}
		if res.Failed != 0 || res.Attempted < cfg.ops {
			t.Errorf("%s: %d of %d ops failed: %v", name, res.Failed, res.Attempted, res.Failures)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", name, d.name, v)
			}
		}

		tr, err := traced(newWorkload(name, cfg), cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if tr.Failed != 0 {
			t.Errorf("%s traced: %d ops failed: %v", name, tr.Failed, tr.Failures)
		}
		if len(tr.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, want %d", name, len(tr.Metrics), len(perLayer))
		}
		for _, counter := range []string{"index.pageins_per_op", "index.evictions", "index.disk_reads", "index.resident_bytes"} {
			if v := tr.Metrics[counter]; (v != 0) != (name == "search.paged") {
				t.Errorf("%s: %s = %v; the pager works on search.paged and nowhere else", name, counter, v)
			}
		}
		checkSpans(t, name, tr.tracer)
	}
}

// checkSpans asserts the span file's shape: one server.request root per op,
// every other span under a span of the same op, and self times that add up
// to the root's duration.
func checkSpans(t *testing.T, name string, tr *tracer) {
	byID := make(map[int]span, len(tr.spans))
	for _, s := range tr.spans {
		byID[s.ID] = s
	}
	rootDur := make(map[int]int64)
	for _, s := range tr.spans {
		if s.Parent == 0 {
			if s.Name != "server.request" || rootDur[s.OpID] != 0 {
				t.Fatalf("%s: op %d has root %q (second root?)", name, s.OpID, s.Name)
			}
			rootDur[s.OpID] = s.EndNs - s.StartNs
			continue
		}
		if p, ok := byID[s.Parent]; !ok || p.OpID != s.OpID {
			t.Fatalf("%s: span %d (%s) of op %d has parent %d outside its op", name, s.ID, s.Name, s.OpID, s.Parent)
		}
	}
	if len(rootDur) == 0 {
		t.Fatalf("%s: no spans", name)
	}
	for op, byName := range tr.selfTimes() {
		var sum float64
		for _, ms := range byName {
			sum += ms
		}
		if want := float64(rootDur[op]) / 1e6; sum < want-1e-6 || sum > want+1e-6 {
			t.Errorf("%s: op %d self times sum to %v ms, its root lasts %v ms", name, op, sum, want)
		}
	}
}

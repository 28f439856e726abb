package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -compare and the smoke test
// read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, into any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// spreadOf is the distance between a metric's quartiles as a share of its
// median over a result's runs.
func (w *workloadResult) spreadOf(metric string) float64 {
	return ratio(w.Q3[metric]-w.Q1[metric], w.Median[metric])
}

func (w *workloadResult) failed() (failed, attempted int) {
	for _, r := range w.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

// verdict judges new against old for one metric of one workload. worse is
// how far the new median is on the wrong side of the old, as a share of the
// old. A difference within the bound is "unchanged" only when both sets of
// runs repeat within the bound themselves; otherwise it is "unresolved".
func verdict(m benchmarkMetric, oldMed, newMed, spread float64) (worse float64, v string) {
	worse = ratio(newMed-oldMed, oldMed)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return worse, "regressed"
	case worse < -m.Bound:
		return worse, "improved"
	case spread > m.Bound:
		return worse, "unresolved"
	}
	return worse, "unchanged"
}

// compareFiles prints one row per end-to-end metric and workload and
// returns the exit code: 1 when a metric regressed or more ops failed. The
// bounds come from BENCHMARK.json in the working directory, the root of the
// checkout.
func compareFiles(oldPath, newPath string) int {
	var bf benchmarkFile
	var olds, news suiteResult
	for _, f := range []struct {
		path string
		into any
	}{{"BENCHMARK.json", &bf}, {oldPath, &olds}, {newPath, &news}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(os.Stderr, "bench -compare:", err)
			return 2
		}
	}
	return compareSuites(&bf, &olds, &news)
}

func compareSuites(bf *benchmarkFile, olds, news *suiteResult) int {
	code := 0
	fmt.Printf("old: commit %s, %d runs of %g s, seed %d    new: commit %s, %d runs of %g s, seed %d\n",
		olds.Env.Commit, olds.Env.Runs, olds.Env.Seconds, olds.Env.Seed, news.Env.Commit, news.Env.Runs, news.Env.Seconds, news.Env.Seed)
	fmt.Printf("%-16s %-10s %13s %13s  %-28s %7s %7s  %s\n", "workload", "metric", "old median", "new median", "new/old (base: old median)", "spread", "bound", "verdict")
	for _, nw := range news.Workloads {
		var ow *workloadResult
		for _, w := range olds.Workloads {
			if w.Name == nw.Name {
				ow = w
			}
		}
		if ow == nil {
			fmt.Printf("%-16s only in the new file\n", nw.Name)
			continue
		}
		for _, m := range bf.EndToEnd {
			o, n := ow.Median[m.Name], nw.Median[m.Name]
			spread := max(ow.spreadOf(m.Name), nw.spreadOf(m.Name))
			_, v := verdict(m, o, n, spread)
			if v == "regressed" {
				code = 1
			}
			fmt.Printf("%-16s %-10s %13.6g %13.6g  %-28s %6.1f%% %6.1f%%  %s\n", nw.Name, m.Name, o, n,
				fmt.Sprintf("%.3f of %.6g %s", ratio(n, o), o, m.Unit), 100*spread, 100*m.Bound, v)
		}
		of, oa := ow.failed()
		nf, na := nw.failed()
		fr := "same or lower"
		if ratio(float64(nf), float64(na)) > ratio(float64(of), float64(oa)) {
			fr, code = "HIGHER", 1
		}
		fmt.Printf("%-16s %-10s %13s %13s  %s\n", nw.Name, "failed", fmt.Sprintf("%d/%d", of, oa), fmt.Sprintf("%d/%d", nf, na), fr)
	}
	return code
}

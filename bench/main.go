// Command bench is the repository's benchmark: it boots the real serving
// tier in-process behind a loopback TCP listener and drives it closed-loop
// with two keep-alive HTTP clients, on four workloads that stress different
// layers. See README.md in this directory for the metric and workload
// definitions.
//
//	bash bench/run.sh --workload explore.wf --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -seed 1 -runs 5 -out bench/out     # all four, plus traced runs
//	bash bench/run.sh -compare old/result.json new/result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	// scale multiplies every workload's corpus size; the benchmark is
	// defined at 1, the smoke test runs at 0.05.
	scale float64
	// ops ends a window after this many ops if -seconds has not ended it
	// first (0 = no cap); the smoke test uses it for windows of a known size.
	ops  int
	runs int
	out  string
	// tmp is this invocation's scratch directory, removed on exit.
	tmp string
}

// scratchRoot is where an invocation makes its scratch directory: inside
// the checkout, next to the build output, ignored by git.
const scratchRoot = ".bench_build"

var workloadNames = []string{"explore.wf", "search.fresh", "search.paged", "lifecycle.churn"}

func newWorkload(name string, cfg *config) workload {
	switch name {
	case "explore.wf":
		return &explore{cfg: cfg}
	case "search.fresh":
		return &search{cfg: cfg}
	case "search.paged":
		return &search{cfg: cfg, paged: true}
	case "lifecycle.churn":
		return &churn{cfg: cfg}
	}
	return nil
}

func main() { os.Exit(run()) }

func run() int {
	cfg := &config{}
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload and print the result as one JSON line (default: all four)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the op sequences: countries drawn, query pools, document payloads")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&cfg.trace, "trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = the traced run's per-layer metrics")
	flag.Float64Var(&cfg.scale, "scale", 1, "corpus size multiplier; results are only comparable at 1")
	flag.IntVar(&cfg.runs, "runs", 1, "without -workload: measured runs per workload, each on freshly booted servers")
	flag.StringVar(&cfg.out, "out", "", "directory for result.json and the span files trace-<workload>.json")
	compare := flag.Bool("compare", false, "compare two result.json files: -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 || cfg.runs < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -scale must be positive, -runs at least 1, and no arguments may follow the flags")
		return 2
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(scratchRoot, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	if cfg.workload != "" {
		err = one(cfg)
	} else {
		err = suite(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// one is the benchmark contract's entry point: one workload, one run, and
// the result as the last line of standard output.
func one(cfg *config) error {
	w := newWorkload(cfg.workload, cfg)
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	var res *runResult
	var err error
	defs := endToEnd
	if cfg.trace != 0 {
		defs = perLayer
		res, err = traced(w, cfg)
	} else {
		res, err = measure(w, cfg)
	}
	if err != nil {
		return err
	}
	if err := res.writeTrace(cfg.out); err != nil {
		return err
	}
	res.print(cfg, defs)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, make(map[string]value)}
	for _, d := range defs {
		line.Metrics[d.name] = value{res.Metrics[d.name], d.unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// maxFailuresPrinted keeps a broken run's output readable.
const maxFailuresPrinted = 10

// print writes a run's record and every metric by name and unit.
func (r *runResult) print(cfg *config, defs []metricDef) {
	mode := "tracing off"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("%s  seed %d  %s  window %.2f s  ops %d (latency sample %d, oracle replays %d, failed %d)  warm-up ops %d\n",
		r.Workload, cfg.seed, mode, r.WindowS, r.Attempted, r.Samples, r.Verified, r.Failed, r.WarmupOps)
	fmt.Printf("  generate %.3f s  window GCs %d (pause %.2f ms)  ops digest %s  answers digest %s\n",
		r.GenerateS, r.NumGC, float64(r.PauseNs)/1e6, r.OpsDigest, r.Answers)
	for _, d := range defs {
		fmt.Printf("  %-28s %14.6g %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	for i, f := range r.Failures {
		if i == maxFailuresPrinted {
			fmt.Printf("  ... and %d more failures\n", len(r.Failures)-i)
			break
		}
		fmt.Println("  FAILED", f)
	}
}

// environment is recorded with every result file so a number can be traced
// to the box and the commit that produced it.
type environment struct {
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Runs       int     `json:"runs"`
}

func currentEnvironment(cfg *config) environment {
	env := environment{
		Seed: cfg.seed, Commit: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Clients: clients,
		Seconds: cfg.seconds, Scale: cfg.scale, Runs: cfg.runs,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// workloadResult is one workload's part of result.json: its measured runs
// with the median and quartiles of every end-to-end metric, and its traced
// run.
type workloadResult struct {
	Name   string             `json:"name"`
	Why    string             `json:"why"`
	Runs   []*runResult       `json:"runs"`
	Median map[string]float64 `json:"median"`
	Q1     map[string]float64 `json:"q1"`
	Q3     map[string]float64 `json:"q3"`
	Traced *runResult         `json:"traced"`
}

type suiteResult struct {
	Env       environment       `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

// suite runs all four workloads: -runs measured runs and one traced run
// each, printed as they finish and written to -out.
func suite(cfg *config) error {
	out := &suiteResult{Env: currentEnvironment(cfg)}
	fmt.Printf("seed %d  commit %s  %s  nproc %d  GOMAXPROCS %d  clients %d  window %g s  scale %g\n",
		out.Env.Seed, out.Env.Commit, out.Env.GoVersion, out.Env.NProc, out.Env.GOMAXPROCS, clients, cfg.seconds, cfg.scale)
	var fresh *runResult
	for _, name := range workloadNames {
		wr := &workloadResult{Name: name, Median: map[string]float64{}, Q1: map[string]float64{}, Q3: map[string]float64{}}
		for r := 0; r < cfg.runs; r++ {
			w := newWorkload(name, cfg)
			wr.Why = w.spec().why
			res, err := measure(w, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if name == "search.fresh" && fresh == nil {
				fresh = res
			}
			if name == "search.paged" && fresh != nil {
				res.mustAnswerLike(fresh)
			}
			res.print(cfg, endToEnd)
			wr.Runs = append(wr.Runs, res)
		}
		for _, d := range endToEnd {
			xs := make([]float64, len(wr.Runs))
			for i, res := range wr.Runs {
				xs[i] = res.Metrics[d.name]
			}
			wr.Median[d.name] = median(xs)
			wr.Q1[d.name], wr.Q3[d.name] = quartiles(xs)
			if cfg.runs > 1 {
				fmt.Printf("  %-28s median %12.6g  quartiles %12.6g .. %-12.6g %s\n", d.name, wr.Median[d.name], wr.Q1[d.name], wr.Q3[d.name], d.unit)
			}
		}
		res, err := traced(newWorkload(name, cfg), cfg)
		if err != nil {
			return fmt.Errorf("%s traced: %w", name, err)
		}
		res.print(cfg, perLayer)
		if err := res.writeTrace(cfg.out); err != nil {
			return err
		}
		wr.Traced = res
		out.Workloads = append(out.Workloads, wr)
	}
	if cfg.out == "" {
		return nil
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, "result.json")
	fmt.Println("wrote", path)
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// mustAnswerLike fails every op whose answer differs from the same op's
// answer in other: search.paged against search.fresh for the same seed.
func (r *runResult) mustAnswerLike(other *runResult) {
	for idx, got := range r.answerByOp {
		if want, ok := other.answerByOp[idx]; ok && want != got {
			r.Failures = append(r.Failures, fmt.Sprintf("op %d: answer digest %s, %s has %s", idx, got, other.Workload, want))
			r.Failed++
		}
	}
}

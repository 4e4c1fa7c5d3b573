// Command e2ebench is the repository's benchmark: it starts the vectordb
// server in-process, wired as cmd/vectordbd wires it, drives it over
// loopback TCP through the Go SDK with seeded workloads, checks every
// answer, and reports end-to-end and per-layer metrics. README.md has the
// tables; BENCHMARK.json at the repository root names the metrics.
//
// Usage:
//
//	e2ebench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-quick] [-o results.jsonl] [-trace-out spans.jsonl]
//	e2ebench -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"vectordb/e2ebench/benchkit"
	"vectordb/internal/vec"
)

const (
	defaultSeconds = 8 // BENCHMARK.json run_seconds
	setupsPerRun   = 3 // setup_s is the median of this many set-ups
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all six)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", defaultSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	quick := flag.Bool("quick", false, "tiny sizes and short windows: a smoke run of every workload")
	out := flag.String("o", "", "append each run's result to this file, one JSON object per line")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans here (default: .bench_build/spans-WORKLOAD.jsonl)")
	compare := flag.Bool("compare", false, "compare two results files: e2ebench -compare a.jsonl b.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: e2ebench -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	ok, err := runAll(*workload, *seed, *seconds, *trace == 1, *quick, *out, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// runAll runs the selected workloads and reports whether all were correct.
func runAll(name string, seed int64, seconds int, trace, quick bool, out, traceOut string) (bool, error) {
	selected := workloads
	if name != "" && name != "all" {
		w, ok := findWorkload(name)
		if !ok {
			return false, fmt.Errorf("unknown workload %q", name)
		}
		selected = []Workload{w}
	}
	tmp, err := scratchDir()
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	env := benchkit.CaptureEnv()
	env.SIMD = vec.CurrentLevel().String()
	env.Clients = min(runtime.NumCPU(), 4)
	cfg := runConfig{
		seed: seed, window: time.Duration(seconds) * time.Second, warm: 1500 * time.Millisecond,
		setups: setupsPerRun, trace: trace, traced: tracedReqs,
		clients: env.Clients, tmp: tmp, traceOut: traceOut, env: env,
	}
	if trace {
		cfg.setups = 1 // per-layer runs do not report setup_s
	}
	if quick {
		cfg.window, cfg.warm, cfg.setups, cfg.traced = time.Second, 200*time.Millisecond, 1, 50
	}
	fmt.Printf("env: %s | nproc=%d GOMAXPROCS=%d %s simd=%s commit=%s N=%d\n",
		env.CPU, env.NProc, env.GOMAXPROCS, env.Go, env.SIMD, env.Commit, env.Clients)

	allOK := true
	for _, w := range selected {
		if quick {
			w = quickSized(w)
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.Name, err)
		}
		report(res)
		if out != "" {
			if err := appendResult(out, res); err != nil {
				return false, err
			}
		}
		if err := resultLine(os.Stdout, res, trace); err != nil {
			return false, err
		}
		allOK = allOK && res.Correct
	}
	return allOK, nil
}

// report prints every metric of one run by name with its unit.
func report(res *Result) {
	fmt.Printf("\n== %s  seed=%d stream=%s window=%gs attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Seed, res.Hash, res.Window, res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	for _, m := range endToEndMetrics {
		if v, ok := res.EndToEnd[m.Name]; ok {
			fmt.Printf("  %-32s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
	for _, m := range perLayerMetrics {
		if v, ok := res.PerLayer[m.Name]; ok {
			fmt.Printf("  %-32s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-32s %s\n", k, res.Info[k])
	}
}

// resultLine prints the one-line JSON object the driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one — exactly the names BENCHMARK.json lists.
func resultLine(out io.Writer, res *Result, trace bool) error {
	specs, from := endToEndMetrics, res.EndToEnd
	if trace {
		specs, from = perLayerMetrics, res.PerLayer
	}
	metrics := map[string]Metric{}
	for _, s := range specs {
		m, ok := from[s.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, s.Name)
		}
		metrics[s.Name] = m
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func appendResult(path string, res *Result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

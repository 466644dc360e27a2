// Command perfbench is the end-to-end benchmark of the scanraw serving
// stack. It assembles the real stack in one process — dbstore over a
// simulated (vdisk) or durable (store.FileDisk) disk and server.Handler
// behind a loopback listener — generates seeded inputs with internal/gen, drives one workload with at
// most two client goroutines, checks every answer against an independent
// computation, and prints one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 the run is split into an untraced and a traced half and
// the metrics are the per-layer ones, preceded by a human-readable
// per-layer table, an attribution line and the tracing overhead.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload cold_converge --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --steady 10 --seconds 15      # spread of every metric
//
// See perfbench/README.md for the workloads, inputs and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool // tiny inputs, for the smoke tests
	policy   string
	steady   int
}

// workload is one traffic mix: run measures it for the runner's duration
// and records every query and per-round figure in the runner.
type workload struct {
	name string
	run  func(r *runner) error
}

var workloads = []workload{
	{"cold_converge", runColdConverge},
	{"serve_mix", runServeMix},
	{"durable_cycle", runDurableCycle},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: cold_converge, serve_mix, durable_cycle")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed (the same seed gives the same inputs)")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured duration of the run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from a traced half of the run")
	flag.StringVar(&o.policy, "policy", "speculative", "cold_converge write policy: speculative, external or fullload")
	flag.IntVar(&o.steady, "steady", 0, "run each workload (or --workload) this many times with seeds 1..N and print the spread of every metric")
	flag.Parse()
	o.trace = traceFlag == 1

	if o.steady > 0 {
		if err := runSteady(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runWorkload executes one run. Untraced runs measure for the whole
// duration; traced runs measure an untraced half, then a traced half, and
// report the per-layer metrics of the traced half with the overhead
// between the two.
func runWorkload(w workload, o options) (*result, error) {
	if o.policy != "speculative" && w.name != "cold_converge" {
		return nil, fmt.Errorf("--policy applies to cold_converge only")
	}
	if !o.trace {
		r, err := newRunner(o, nil, time.Duration(o.seconds*float64(time.Second)))
		if err != nil {
			return nil, err
		}
		if err := w.run(r); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		return r.result(r.endToEnd()), nil
	}
	half := time.Duration(o.seconds * float64(time.Second) / 2)
	plain, err := newRunner(o, nil, half)
	if err != nil {
		return nil, err
	}
	if err := w.run(plain); err != nil {
		return nil, fmt.Errorf("%s (untraced half): %w", w.name, err)
	}
	traced, err := newRunner(o, newTracer(), half)
	if err != nil {
		return nil, err
	}
	if err := w.run(traced); err != nil {
		return nil, fmt.Errorf("%s (traced half): %w", w.name, err)
	}
	layers := traced.perLayer(plain)
	printLayerTable(os.Stdout, w.name, layers, traced, plain)
	res := traced.result(layers)
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	res.Correct = res.Correct && plain.failed == 0
	return res, nil
}

// result assembles the output line from a set of metrics.
func (r *runner) result(ms map[string]metric) *result {
	return &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   ms,
	}
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

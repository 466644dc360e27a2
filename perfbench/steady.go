package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runSteady is the steadiness check behind the bounds in BENCHMARK.json:
// it runs each workload (or the one named by --workload) o.steady times
// as separate processes with seeds 1..N and prints, for every metric, the
// median, the quartiles and the relative spread (q3-q1)/median.
func runSteady(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		attempted, failed := 0, 0
		for seed := 1; seed <= o.steady; seed++ {
			args := []string{"--workload", name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "--trace", traceArg(o.trace)}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: decoding result: %w", name, seed, err)
			}
			attempted += res.Attempted
			failed += res.Failed
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		fmt.Printf("workload %s: %d runs, %d operations attempted, %d failed\n", name, o.steady, attempted, failed)
		fmt.Printf("  %-36s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "spread")
		for _, k := range sortedKeys(values) {
			q1, q3 := quartiles(values[k])
			med := median(values[k])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("  %-36s %12.4f %12.4f %12.4f %8.4f %s %v\n", k, q1, med, q3, spread, units[k], values[k])
		}
	}
	return nil
}

func traceArg(on bool) string {
	if on {
		return "1"
	}
	return "0"
}

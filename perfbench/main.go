// Command perfbench is the repository's campaign benchmark. It runs one
// workload for a fixed time, one closed-loop run at a time, each run in
// a process of its own, checks every run's output, and prints every
// metric named in BENCHMARK.json by name with its unit. The last line
// of its output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are BENCHMARK.json's end_to_end metrics;
// with -trace 1 they are its per_layer metrics, the medians of three
// traced runs made among the timed runs. See README.md for the
// workloads and what each metric measures.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload distributed --seed 1 --seconds 30 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "distributed", "workload to run: distributed, greedy or replay")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("campaign seed, passed in only as Spec.Seed (held-out seed: %d)", heldOutSeed))
	seconds := flag.Int("seconds", 30, "how long to keep starting timed runs")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from traced runs")
	flag.Parse()
	if err := bench(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

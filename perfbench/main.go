// Command perfbench is the repository's benchmark: three closed-loop
// workloads over loopback TCP (steady-batch, session-churn, similarity),
// each checked against a plaintext oracle. It prints one JSON object as
// its last line of output: the end-to-end metrics with --trace 0, the
// per-layer metrics of a separate traced run with --trace 1.
//
//	go run . --workload steady-batch --seed 1 --seconds 10 --trace 0
//
// See README.md for the metric table and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	measure  time.Duration
	trace    bool
	traceDir string
	// setupReps is how many times the whole stack is built; setup_s is
	// the median and the last build serves the measured phase.
	setupReps int
	// fault serves a model the oracle does not use (the self-test's
	// proof that the oracle can fail).
	fault bool
}

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed (dataset, sample order, model B)")
	flag.Float64Var(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "directory for the span dump of a traced run (empty: no dump)")
	flag.Parse()
	cfg.measure = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.setupReps = 9

	res, err := run(cfg)
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
	if !res.Correct {
		os.Exit(1)
	}
}

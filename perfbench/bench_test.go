package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

// shortRun is a minimal run of one workload: one set-up, one window.
func shortRun(t *testing.T, workload string, trace, fault bool) *result {
	t.Helper()
	res, err := run(config{workload: workload, seed: 7, measure: window, trace: trace, setupReps: 1, fault: fault})
	if err != nil {
		t.Fatalf("%s (trace %v, fault %v): %v", workload, trace, fault, err)
	}
	return res
}

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONNamesEveryMetric checks that BENCHMARK.json lists the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	var e2e, layers []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range doc.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", layers, perLayer)
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly in both
// passes and checks every named metric is there with its unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res := shortRun(t, w, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w, trace, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w, trace, d.name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
		}
	}
}

// TestOracleCatchesAWrongModel serves a model the oracle does not use —
// inverted labels for classification, a shifted boundary for similarity —
// and checks that every workload's run fails its check.
func TestOracleCatchesAWrongModel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames() {
		res := shortRun(t, w, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a wrong model: correct=%v failed=%d of %d", w, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestSummaryCountsWorkByWindow(t *testing.T) {
	// Two windows; one op of 4 units straddles the boundary evenly.
	p := &phase{cpuMarks: []time.Duration{0, window, 2 * window}}
	p.add(0, window/2, opResult{latency: window / 2, units: 2})
	p.add(window*3/4, window*5/4, opResult{latency: window / 2, units: 4})
	p.add(window*3/2, 2*window-1, opResult{latency: window / 2, units: 2})
	s := p.summary()
	// Window 0 holds 2+2 units, window 1 holds 2+2.
	if want := 4 / window.Seconds(); math.Abs(s.throughput-want) > 1e-9 {
		t.Errorf("throughput %v, want %v", s.throughput, want)
	}
	if s.p50 != window/2 {
		t.Errorf("p50 %v, want %v", s.p50, window/2)
	}
}

package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// opResult is the outcome of one closed-loop operation.
type opResult struct {
	latency time.Duration
	// units is the work completed: labels, sessions or evaluations.
	units int
	// wrong counts results the oracle rejected.
	wrong int
	// kind splits session-churn sessions into "full" and "resumed".
	kind string
	// offered marks a session that presented a resumption ticket.
	offered bool
}

// rig is a built serving stack and its client side, for one workload.
type rig interface {
	// op runs operation seq of client connection c. Each connection is
	// driven by one goroutine, so op may keep per-connection state.
	op(ctx context.Context, c, seq int, tr *tracer) (opResult, error)
	// layers fills the workload's per-layer metrics from the traced
	// pass and from an in-memory replay of its layer calls that runs
	// for about budget, recorded in tr.
	layers(ctx context.Context, tp *tracedPass, tr *tracer, budget time.Duration, m map[string]float64) (replay, error)
	close()
}

// replay counts the in-memory replay's operations and oracle failures.
type replay struct {
	attempted, failed int64
}

// workload builds a rig on freshly generated inputs; root is the set-up
// span the build's steps are traced under.
type workload func(ctx context.Context, cfg config, in *inputs, root open) (rig, error)

var workloads = map[string]workload{
	"steady-batch":  buildSteady,
	"session-churn": buildChurn,
	"similarity":    buildSimilarity,
}

func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// window is the length of the stretches a phase is cut into. The
// end-to-end figures are medians over windows, so a burst of load from
// outside the benchmark moves one window, not the figure.
const window = 2 * time.Second

// phase is one measured stretch of closed-loop operations.
type phase struct {
	attempted, failed int64
	units             int64
	ops               []done
	// cpuMarks is the process CPU time at the start of each window and
	// at the end of the last whole one.
	cpuMarks         []time.Duration
	offered, resumed int64
}

// done is one completed operation: when it began and ended, relative to
// the phase's start, and what it did.
type done struct {
	began, end time.Duration
	opResult
}

func (p *phase) add(began, end time.Duration, r opResult) {
	p.units += int64(r.units)
	p.ops = append(p.ops, done{began, end, r})
	if r.offered {
		p.offered++
		if r.kind == kindResumed {
			p.resumed++
		}
	}
}

// latencies returns the latencies of the operations of kind ("" for all).
func (p *phase) latencies(kind string) []time.Duration {
	var out []time.Duration
	for _, o := range p.ops {
		if kind == "" || o.kind == kind {
			out = append(out, o.latency)
		}
	}
	return out
}

// summary is a phase's end-to-end figures, each the median over windows.
type summary struct {
	throughput float64 // units per second
	p50, p90   time.Duration
	cpuPerUnit float64 // µs
}

func (p *phase) summary() summary {
	var tput, cpu []float64
	var p50, p90 []time.Duration
	for k := 0; k+1 < len(p.cpuMarks); k++ {
		lo, hi := time.Duration(k)*window, time.Duration(k+1)*window
		// An operation's units count in each window in proportion to
		// the share of its run that falls there.
		var units float64
		var lat []time.Duration
		for _, o := range p.ops {
			from, to := max(o.began, lo), min(o.end, hi)
			if to > from {
				units += float64(o.units) * float64(to-from) / float64(o.end-o.began)
			}
			if o.end >= lo && o.end < hi {
				lat = append(lat, o.latency)
			}
		}
		if units == 0 || len(lat) == 0 {
			continue
		}
		tput = append(tput, units/window.Seconds())
		cpu = append(cpu, us(p.cpuMarks[k+1]-p.cpuMarks[k])/units)
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
	}
	return summary{throughput: median(tput), p50: median(p50), p90: median(p90), cpuPerUnit: median(cpu)}
}

// runSlack is how long set-up, replay and shutdown may take on top of the
// measured time before every remaining operation is cancelled.
const runSlack = 2 * time.Minute

// conns is the number of closed-loop client connections, one per core of
// the two-core host the workloads were sized on.
const conns = 2

// maxConsecutiveErrors stops a connection whose operations keep failing,
// so a broken stack ends the run instead of spinning.
const maxConsecutiveErrors = 20

// measure drives the closed-loop connections for d (a whole number of
// windows, at least one) and collects every operation's outcome.
func measure(ctx context.Context, r rig, d time.Duration, tr *tracer) *phase {
	windows := max(1, int(d/window))
	start := time.Now()
	deadline := start.Add(time.Duration(windows) * window)
	total := &phase{cpuMarks: []time.Duration{processCPU()}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			streak := 0
			for seq := 0; time.Now().Before(deadline) && streak < maxConsecutiveErrors; seq++ {
				began := time.Since(start)
				res, err := r.op(ctx, c, seq, tr)
				end := time.Since(start)
				mu.Lock()
				total.attempted++
				switch {
				case err != nil:
					total.failed++
					streak++
					if total.failed <= 3 {
						fmt.Fprintf(os.Stderr, "perfbench: connection %d op %d: %v\n", c, seq, err)
					}
				default:
					streak = 0
					if res.wrong > 0 {
						total.failed++
					}
					total.add(began, end, res)
				}
				mu.Unlock()
			}
		}(c)
	}
	for k := 1; k <= windows; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * window)))
		total.cpuMarks = append(total.cpuMarks, processCPU())
	}
	wg.Wait()
	return total
}

// layerSpans are the in-memory replay spans reported as per-layer
// metrics (median duration, in µs) by whichever workload records them.
// They have no child spans, so a duration is the layer's self time.
var layerSpans = []string{
	"classify.new_batch", "classify.handle_batch", "classify.finish_batch", "classify.encode_sample",
	"wire.batch_request_encode", "wire.batch_request_decode", "wire.batch_response_encode", "wire.batch_response_decode",
}

// tracedPass is the traced stretch of a --trace 1 run together with the
// program's own counters and phase timers recorded during it.
type tracedPass struct {
	*phase
	snap obs.Snapshot
}

// run builds the workload cfg.setupReps times, then measures it.
func run(cfg config) (*result, error) {
	build, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	if cfg.measure <= 0 || cfg.setupReps < 1 {
		return nil, fmt.Errorf("need positive --seconds")
	}
	// Bound the whole run, so a stalled session fails its operations
	// instead of hanging the benchmark.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.measure+runSlack)
	defer cancel()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var setups []time.Duration
	var r rig
	for i := 0; i < cfg.setupReps; i++ {
		if r != nil {
			r.close()
			r = nil
		}
		start := time.Now()
		root := tr.begin("setup", tr.request())
		in, err := makeInputs(cfg.seed, cfg.fault, root)
		if err == nil {
			r, err = build(ctx, cfg, in, root)
		}
		root.end()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
	}
	defer r.close()

	if !cfg.trace {
		p := measure(ctx, r, cfg.measure, nil)
		sum := p.summary()
		return &result{
			Correct:   p.failed == 0,
			Attempted: p.attempted,
			Failed:    p.failed,
			Metrics: map[string]metric{
				"setup_s":          {median(setups).Seconds(), "s"},
				"throughput_per_s": {sum.throughput, "1/s"},
				"latency_p50_ms":   {ms(sum.p50), "ms"},
				"latency_p90_ms":   {ms(sum.p90), "ms"},
				"cpu_us_per_unit":  {sum.cpuPerUnit, "us"},
				"max_rss_mb":       {maxRSSMB(), "MiB"},
			},
		}, nil
	}
	return runTraced(ctx, cfg, r, tr)
}

// runTraced splits the measured time: an untraced stretch (the overhead
// baseline), a traced stretch with spans and the program's own metrics
// registry, and the in-memory layer replay.
func runTraced(ctx context.Context, cfg config, r rig, tr *tracer) (*result, error) {
	plain := measure(ctx, r, cfg.measure*2/5, nil)

	reg := obs.NewRegistry()
	prev := obs.SwapDefault(reg)
	rt0 := readRuntime()
	traced := measure(ctx, r, cfg.measure*2/5, tr)
	rt1 := readRuntime()
	obs.SetDefault(prev)
	tp := &tracedPass{phase: traced, snap: reg.Snapshot()}

	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	rep, err := r.layers(ctx, tp, tr, cfg.measure/5, m)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}

	// Set-up steps, median over the repetitions.
	for _, name := range []string{"dataset.generate", "svm.train", "registry.publish", "transport.session_open"} {
		m[name+"_ms"] = ms(median(tr.durations(name)))
	}
	// The runtime's view of the traced pass, per unit of work.
	units := float64(traced.units)
	m["go.alloc_bytes_per_op"] = ratio(float64(rt1.allocBytes-rt0.allocBytes), units)
	m["go.allocs_per_op"] = ratio(float64(rt1.allocObjects-rt0.allocObjects), units)
	m["go.gc_cpu_share"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	for _, name := range layerSpans {
		if d := tr.durations(name); len(d) > 0 {
			m[name+"_us"] = us(median(d))
		}
	}
	// Attribution: the traced operation's p50 against the sum of its
	// layers replayed in memory. A rig whose operation is not one
	// replayed op has set the sum itself.
	plainSum, tracedSum := plain.summary(), traced.summary()
	opP50 := us(tracedSum.p50)
	if m["trace.layer_sum_us"] == 0 {
		m["trace.layer_sum_us"] = us(median(tr.durations("replay.op")))
	}
	m["trace.op_p50_us"] = opP50
	m["trace.unattributed_us"] = opP50 - m["trace.layer_sum_us"]
	m["transport.unattributed_ratio"] = ratio(m["trace.unattributed_us"], opP50)
	// Tracing overhead: traced against untraced, positive when tracing
	// made the figure worse.
	m["trace.overhead_throughput_ratio"] = ratio(plainSum.throughput-tracedSum.throughput, plainSum.throughput)
	m["trace.overhead_latency_p50_ratio"] = ratio(float64(tracedSum.p50-plainSum.p50), float64(plainSum.p50))
	m["trace.overhead_cpu_ratio"] = ratio(tracedSum.cpuPerUnit-plainSum.cpuPerUnit, plainSum.cpuPerUnit)
	// Session split, from the untraced stretch.
	for _, k := range []string{kindFull, kindResumed} {
		if lat := plain.latencies(k); len(lat) > 0 {
			m["session.first_label_"+k+"_p50_ms"] = ms(quantile(lat, 0.5))
			m["session.first_label_"+k+"_p90_ms"] = ms(quantile(lat, 0.9))
		}
	}

	attempted := plain.attempted + traced.attempted + rep.attempted
	failed := plain.failed + traced.failed + rep.failed
	m["run.failed_ratio"] = ratio(float64(failed), float64(attempted))

	if cfg.traceDir != "" {
		if err := tr.dump(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)); err != nil {
			return nil, err
		}
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(perLayer))}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	return res, nil
}

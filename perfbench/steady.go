package main

import (
	"context"
	crand "crypto/rand"
	"fmt"
	"io"
	"time"

	"repro/internal/classify"
	"repro/internal/entropy"
	"repro/internal/obs"
	"repro/internal/ompe"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The steady-batch operation: one pipelined call of four 64-sample
// batches with two in flight. A call several batches long keeps the
// pipeline full for most of it, and a few milliseconds of lost CPU are a
// small share of it, so its tail latency reflects the program more than
// the host's scheduling.
const (
	steadyBatch    = 64
	steadyInflight = 2
	steadyBatches  = 4
	steadyCall     = steadyBatch * steadyBatches
)

// steadyRig is one trainer and one long-lived fast session per client
// connection, opened during set-up.
type steadyRig struct {
	in       *inputs
	rep      *replica
	trainer  *classify.Trainer
	sessions []*transport.FastClassifyClient
}

func buildSteady(ctx context.Context, cfg config, in *inputs, root open) (rig, error) {
	// Each session computes serially: the two long-lived sessions already
	// keep both cores busy, and fanning one batch out over the cores as
	// well only adds scheduling noise.
	params := fastParams
	params.Parallelism = 1
	reg, err := publish(in, params, root)
	if err != nil {
		return nil, err
	}
	rep, err := startReplica(reg, nil)
	if err != nil {
		return nil, err
	}
	r := &steadyRig{in: in, rep: rep, trainer: reg.CurrentTrainer(), sessions: make([]*transport.FastClassifyClient, conns)}
	for c := range r.sessions {
		s := root.child("transport.session_open")
		fc, err := dialFast(ctx, rep.addr, fastOptions())
		s.end()
		if err != nil {
			r.close()
			return nil, err
		}
		r.sessions[c] = fc
		// One call per session lets lazy state settle before timing.
		if _, err := r.op(ctx, c, 0, nil); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return r, nil
}

func (r *steadyRig) op(ctx context.Context, c, seq int, tr *tracer) (opResult, error) {
	samples, want := r.in.window((seq*conns+c)*steadyCall, steadyCall)
	if r.sessions[c] == nil {
		fc, err := dialFast(ctx, r.rep.addr, fastOptions())
		if err != nil {
			return opResult{}, err
		}
		r.sessions[c] = fc
	}
	root := tr.begin("op", tr.request())
	call := root.child("transport.classify_pipelined")
	start := time.Now()
	labels, err := r.sessions[c].ClassifyPipelined(ctx, samples, steadyBatch, steadyInflight)
	lat := time.Since(start)
	call.end()
	root.end()
	if err != nil {
		_ = r.sessions[c].Close()
		r.sessions[c] = nil
		return opResult{}, err
	}
	return opResult{latency: lat, units: len(samples), wrong: mismatches(labels, want)}, nil
}

// layers replays the batch path in memory, one public call per span:
// request build, wire encode/decode both ways, the trainer's answer and
// the client's finish. The networked pass supplies the OMPE and IKNP
// phase timers and the wire byte counts.
func (r *steadyRig) layers(ctx context.Context, tp *tracedPass, tr *tracer, budget time.Duration, m map[string]float64) (replay, error) {
	spec := r.sessions[0].Spec()
	rng := entropy.Buffered(crand.Reader)
	ft, fc, err := fastPair(r.trainer, spec, rng, open{})
	if err != nil {
		return replay{}, err
	}
	client, err := classify.NewClient(spec)
	if err != nil {
		return replay{}, err
	}
	var rep replay
	deadline := time.Now().Add(budget)
	for i := 0; i < 20 || time.Now().Before(deadline); i++ {
		samples, want := r.in.window(i*steadyBatch, steadyBatch)
		rep.attempted++
		// NewBatch encodes the samples itself; encoding is timed apart
		// so its span is a share of classify.new_batch, not an addition.
		req := tr.request()
		enc := tr.begin("classify.encode_sample", req)
		for _, x := range samples {
			if _, err := client.EncodeSample(x); err != nil {
				return rep, err
			}
		}
		enc.end()
		root := tr.begin("replay.op", req)
		labels, err := replayBatch(root, ft, fc, samples, rng)
		root.end()
		if err != nil {
			return rep, err
		}
		if mismatches(labels, want) > 0 {
			rep.failed++
		}
	}

	batches := float64(tp.snap.Counters[obs.CtrClassifyBatches])
	queries := float64(tp.snap.Counters[obs.CtrClassifyQueries])
	perBatch := func(phase string) float64 {
		return ratio(float64(tp.snap.Histograms[phase].Sum)/1e3, batches)
	}
	m["ompe.sender.mask_us"] = perBatch(obs.PhaseSenderMask)
	m["ompe.receiver.interpolate_us"] = perBatch(obs.PhaseReceiverInterpolate)
	m["ot.extend_us"] = perBatch(obs.PhaseOTExtend)
	m["ot.transpose_us"] = perBatch(obs.PhaseOTTranspose)
	m["ot.pad_us"] = perBatch(obs.PhaseOTPad)
	m["wire.client_bytes_out_per_query"] = ratio(float64(tp.snap.Counters[obs.CtrClientBytesOut]), queries)
	m["wire.client_bytes_in_per_query"] = ratio(float64(tp.snap.Counters[obs.CtrClientBytesIn]), queries)
	m["transport.msgs_per_batch"] = ratio(float64(tp.snap.Counters[obs.CtrMsgsIn]+tp.snap.Counters[obs.CtrMsgsOut]), batches)
	// A call carries steadyBatches batches; the residual is what the
	// networked call spends per batch beyond the in-memory layers.
	layerSum := steadyBatches * median(tr.durations("replay.op"))
	m["trace.layer_sum_us"] = us(layerSum)
	m["transport.batch_residual_us"] = us(tp.summary().p50-layerSum) / steadyBatches
	return rep, nil
}

// fastPair runs the four base-OT steps of a fast session in memory, each
// under its own span, and returns both endpoints.
func fastPair(trainer *classify.Trainer, spec classify.Spec, rng io.Reader, root open) (*classify.FastTrainer, *classify.FastClient, error) {
	s := root.child("ot.base.receiver_setup")
	fc, setup, err := classify.NewFastClient(spec, rng)
	s.end()
	if err != nil {
		return nil, nil, err
	}
	s = root.child("ot.base.sender_choice")
	ft, choice, err := trainer.NewFastSessionFor(spec, setup, rng)
	s.end()
	if err != nil {
		return nil, nil, err
	}
	s = root.child("ot.base.receiver_transfer")
	baseTr, err := fc.FinishBase(choice, rng)
	s.end()
	if err != nil {
		return nil, nil, err
	}
	s = root.child("ot.base.sender_finish")
	err = ft.FinishBase(baseTr)
	s.end()
	if err != nil {
		return nil, nil, err
	}
	return ft, fc, nil
}

// replayBatch runs one batch through the in-memory layers, one child
// span of root per public call, as the networked path makes them.
func replayBatch(root open, ft *classify.FastTrainer, fc *classify.FastClient, samples [][]float64, rng io.Reader) ([]int, error) {
	s := root.child("classify.new_batch")
	batch, query, err := fc.NewBatch(samples, rng)
	s.end()
	if err != nil {
		return nil, err
	}
	s = root.child("wire.batch_request_encode")
	buf, err := wire.Marshal(query)
	s.end()
	if err != nil {
		return nil, err
	}
	var gotQuery ompe.FastBatchRequest
	s = root.child("wire.batch_request_decode")
	err = wire.Unmarshal(buf, &gotQuery)
	s.end()
	if err != nil {
		return nil, err
	}
	s = root.child("classify.handle_batch")
	answer, err := ft.HandleBatch(&gotQuery, rng)
	s.end()
	if err != nil {
		return nil, err
	}
	s = root.child("wire.batch_response_encode")
	buf, err = wire.Marshal(answer)
	s.end()
	if err != nil {
		return nil, err
	}
	var gotAnswer ompe.FastBatchResponse
	s = root.child("wire.batch_response_decode")
	err = wire.Unmarshal(buf, &gotAnswer)
	s.end()
	if err != nil {
		return nil, err
	}
	s = root.child("classify.finish_batch")
	labels, err := batch.Finish(&gotAnswer)
	s.end()
	return labels, err
}

func (r *steadyRig) close() {
	for _, s := range r.sessions {
		if s != nil {
			_ = s.Close()
		}
	}
	r.rep.close()
}

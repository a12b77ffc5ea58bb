package main

import (
	"context"
	crand "crypto/rand"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/entropy"
	"repro/internal/obs"
	"repro/internal/ot"
	"repro/internal/similarity"
	"repro/internal/svm"
	"repro/internal/transport"
)

// Model B comes from diabetes subsets with shifted feature means, the
// Table II construction: each subset trains a different boundary.
var simShifts = []float64{1.4, 0.2, 0.85, 0.0}

const (
	simSubsize = 192
	// simTolerance is the relative T² tolerance of the similarity
	// package's own private-versus-plaintext tests.
	simTolerance = 1e-4
)

// modelB is one of Bob's linear models and the plaintext result the
// oracle expects for it against model A.
type modelB struct {
	w    []float64
	b    float64
	want *similarity.Result
}

// simRig is a trainer serving private similarity for model A.
type simRig struct {
	rep    *replica
	params similarity.Params
	wA     []float64
	bA     float64
	bs     []modelB
}

func buildSimilarity(ctx context.Context, cfg config, in *inputs, root open) (rig, error) {
	wA, err := in.model.LinearWeights()
	if err != nil {
		return nil, err
	}
	r := &simRig{params: similarity.Params{Group: ot.X25519()}, wA: wA, bA: in.model.Bias}
	if err := r.trainModelsB(in.spec, cfg.seed, root); err != nil {
		return nil, err
	}
	reg, err := publish(in, fastParams, root)
	if err != nil {
		return nil, err
	}
	served := r.bA
	if cfg.fault {
		served += 0.5 // a shifted boundary: every T² moves
	}
	r.rep, err = startReplica(reg, func(s *transport.Server) { s.EnableSimilarity(wA, served, r.params) })
	if err != nil {
		return nil, err
	}
	for c := 0; c < conns; c++ {
		s := root.child("transport.session_open")
		_, err := r.op(ctx, c, 0, nil)
		s.end()
		if err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return r, nil
}

// trainModelsB trains Bob's models on seeded shifted subsets and computes
// the oracle's expected result for each.
func (r *simRig) trainModelsB(spec dataset.Spec, seed uint64, root open) error {
	// As in Table II: less label noise and a wider margin, so each
	// subset's boundary follows its shift rather than sampling noise.
	spec.Noise = 0.05
	spec.Margin = 0.15
	s := root.child("dataset.generate_subsets")
	subsets, err := dataset.GenerateShiftedSubsets(spec, len(simShifts), simSubsize, simShifts, dataset.Options{Seed: seed})
	s.end()
	if err != nil {
		return fmt.Errorf("generate subsets: %w", err)
	}
	s = root.child("svm.train_models_b")
	defer s.end()
	metric := similarity.DefaultMetric()
	for i, sub := range subsets {
		model, err := svm.Train(sub.X, sub.Y, svm.Config{Kernel: svm.Linear(), C: 1})
		if err != nil {
			return fmt.Errorf("train model B %d: %w", i, err)
		}
		w, err := model.LinearWeights()
		if err != nil {
			return err
		}
		want, err := similarity.EvaluateLinear(r.wA, r.bA, w, model.Bias, metric)
		if err != nil {
			return fmt.Errorf("oracle for model B %d: %w", i, err)
		}
		r.bs = append(r.bs, modelB{w: w, b: model.Bias, want: want})
	}
	return nil
}

// agrees reports whether a private result matches the plaintext one.
func agrees(got, want *similarity.Result) bool {
	return math.Abs(got.TSquared-want.TSquared) <= simTolerance*(1+math.Abs(want.TSquared))
}

func (r *simRig) op(ctx context.Context, c, seq int, tr *tracer) (opResult, error) {
	b := r.bs[(seq*conns+c)%len(r.bs)]
	root := tr.begin("op", tr.request())
	s := root.child("transport.dial_similarity")
	start := time.Now()
	got, err := transport.DialSimilarityContext(ctx, r.rep.addr, b.w, b.b, transport.Options{MaxAttempts: 1}, crand.Reader)
	lat := time.Since(start)
	s.end()
	root.end()
	if err != nil {
		return opResult{}, err
	}
	res := opResult{latency: lat, units: 1}
	if !agrees(got, b.want) {
		res.wrong = 1
	}
	return res, nil
}

// layers replays evaluations in memory, one span per public call of the
// two parties; the Naor–Pinkas and per-round figures come from the
// program's own phase timers in the networked pass, per evaluation.
func (r *simRig) layers(ctx context.Context, tp *tracedPass, tr *tracer, budget time.Duration, m map[string]float64) (replay, error) {
	var rep replay
	rng := entropy.Buffered(crand.Reader)
	deadline := time.Now().Add(budget)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		b := r.bs[i%len(r.bs)]
		root := tr.begin("replay.op", tr.request())
		got, err := r.replayEvaluation(root, b, rng)
		root.end()
		if err != nil {
			return rep, err
		}
		rep.attempted++
		if !agrees(got, b.want) {
			rep.failed++
		}
	}

	evals := float64(tp.units)
	perEval := func(phase string, unit time.Duration) float64 {
		return ratio(float64(tp.snap.Histograms[phase].Sum)/float64(unit), evals)
	}
	m["ot.np.sender_setup_ms"] = perEval(obs.PhaseOTSenderSetup, time.Millisecond)
	m["ot.np.sender_respond_ms"] = perEval(obs.PhaseOTSenderRespond, time.Millisecond)
	m["ot.np.receiver_choice_ms"] = perEval(obs.PhaseOTReceiverChoice, time.Millisecond)
	m["ot.np.receiver_recover_ms"] = perEval(obs.PhaseOTReceiverRecover, time.Millisecond)
	m["ot.group_exp_per_similarity"] = ratio(float64(tp.snap.Counters[obs.CtrGroupExp]), evals)
	m["similarity.boundary_us"] = perEval(obs.PhaseSimBoundary, time.Microsecond)
	m["similarity.round.centroid_ms"] = perEval(obs.PhaseSimCentroid, time.Millisecond)
	m["similarity.round.normal_ms"] = perEval(obs.PhaseSimNormal, time.Millisecond)
	m["similarity.round.area_ms"] = perEval(obs.PhaseSimArea, time.Millisecond)
	return rep, nil
}

// replayEvaluation runs Alice's and Bob's calls of one evaluation in
// memory, in the order the networked protocol makes them.
func (r *simRig) replayEvaluation(root open, b modelB, rng io.Reader) (*similarity.Result, error) {
	s := root.child("similarity.new_alice")
	alice, err := similarity.NewAlice(r.wA, r.bA, r.params, rng)
	s.end()
	if err != nil {
		return nil, err
	}
	s = root.child("similarity.new_bob")
	bob, err := similarity.NewBob(alice.Spec(), b.w, b.b)
	s.end()
	if err != nil {
		return nil, err
	}
	s = root.child("similarity.clear_share")
	err = alice.HandleClearShare(bob.ClearShare())
	s.end()
	if err != nil {
		return nil, err
	}
	for _, round := range []similarity.Round{similarity.RoundCentroid, similarity.RoundNormal, similarity.RoundArea} {
		s = root.child("similarity.bob.start_round")
		req, err := bob.StartRound(round, rng)
		s.end()
		if err != nil {
			return nil, err
		}
		s = root.child("similarity.alice.handle_request")
		setup, err := alice.HandleRequest(round, req, rng)
		s.end()
		if err != nil {
			return nil, err
		}
		s = root.child("similarity.bob.handle_setup")
		choice, err := bob.HandleSetup(round, setup, rng)
		s.end()
		if err != nil {
			return nil, err
		}
		s = root.child("similarity.alice.handle_choice")
		transfer, err := alice.HandleChoice(round, choice, rng)
		s.end()
		if err != nil {
			return nil, err
		}
		s = root.child("similarity.bob.finish_round")
		res, err := bob.FinishRound(round, transfer)
		s.end()
		if err != nil {
			return nil, err
		}
		if round == similarity.RoundArea {
			return res, nil
		}
	}
	return nil, fmt.Errorf("similarity replay did not complete")
}

func (r *simRig) close() {
	if r.rep != nil {
		r.rep.close()
	}
}

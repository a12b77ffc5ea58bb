package main

import (
	"context"
	crand "crypto/rand"
	"fmt"
	"net"
	"time"

	"repro/internal/classify"
	"repro/internal/entropy"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/transport"
)

// The session-churn operation: one session through the gateway that runs
// a single small batch and closes. Every churnFullEvery-th session of a
// connection is a first contact without a ticket.
const (
	churnBatch     = 4
	churnFullEvery = 8
	churnReplicas  = 2

	kindFull    = "full"
	kindResumed = "resumed"
)

// churnRig is two trainer replicas sharing one registry behind a gateway.
type churnRig struct {
	in      *inputs
	reps    []*replica
	trainer *classify.Trainer
	gw      *gateway.Gateway
	gwLn    net.Listener
	gwAddr  string
	gwDone  chan struct{}
	// tickets holds each connection's state from its last clean close.
	tickets []*transport.ResumeState
}

func buildChurn(ctx context.Context, cfg config, in *inputs, root open) (rig, error) {
	reg, err := publish(in, fastParams, root)
	if err != nil {
		return nil, err
	}
	r := &churnRig{in: in, trainer: reg.CurrentTrainer(), tickets: make([]*transport.ResumeState, conns), gwDone: make(chan struct{})}
	var addrs []string
	for i := 0; i < churnReplicas; i++ {
		rep, err := startReplica(reg, nil)
		if err != nil {
			r.close()
			return nil, err
		}
		r.reps = append(r.reps, rep)
		addrs = append(addrs, rep.addr)
	}
	r.gwLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.gwAddr = r.gwLn.Addr().String()
	r.gw, err = gateway.New(addrs, gateway.Options{HealthInterval: time.Second, Logf: func(string, ...any) {}})
	if err != nil {
		r.close()
		return nil, err
	}
	go func() {
		defer close(r.gwDone)
		_ = r.gw.Serve(r.gwLn)
	}()
	// Each connection opens a first-contact session and one resumed
	// session, so the replicas' ticket keys exist before timing.
	for c := 0; c < conns; c++ {
		for seq := 0; seq < 2; seq++ {
			var s open
			if seq == 0 {
				s = root.child("transport.session_open")
			}
			_, err := r.op(ctx, c, seq, nil)
			s.end()
			if err != nil {
				r.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return r, nil
}

func (r *churnRig) op(ctx context.Context, c, seq int, tr *tracer) (opResult, error) {
	samples, want := r.in.window((seq*conns+c)*churnBatch, churnBatch)
	opts := fastOptions()
	opts.OfferResume = true
	if seq%churnFullEvery != 0 {
		opts.Resume = r.tickets[c]
	}
	r.tickets[c] = nil

	root := tr.begin("op", tr.request())
	defer root.end()
	start := time.Now()
	s := root.child("transport.dial")
	nc, err := transport.DialContext(ctx, r.gwAddr, opts)
	s.end()
	if err != nil {
		return opResult{}, err
	}
	s = root.child("transport.handshake")
	fc, err := transport.NewFastClassifyClientContext(ctx, nc, opts, crand.Reader)
	s.end()
	if err != nil {
		_ = nc.Close()
		return opResult{}, fmt.Errorf("handshake: %w", err)
	}
	s = root.child("transport.classify_batch")
	labels, err := fc.ClassifyBatchContext(ctx, samples)
	s.end()
	lat := time.Since(start)
	if err != nil {
		_ = fc.Close()
		return opResult{}, err
	}
	s = root.child("transport.close")
	err = fc.Close()
	s.end()
	if err != nil {
		return opResult{}, fmt.Errorf("close: %w", err)
	}
	r.tickets[c] = fc.ResumeState()
	kind := kindFull
	if fc.Resumed() {
		kind = kindResumed
	}
	return opResult{latency: lat, units: 1, wrong: mismatches(labels, want), kind: kind, offered: opts.Resume != nil}, nil
}

// layers times, in memory, the four base-OT steps of a first contact and
// the state restore of a resumed one (with one small batch behind it, the
// replayed session); then the handshakes over TCP, direct to a replica
// and through the gateway.
func (r *churnRig) layers(ctx context.Context, tp *tracedPass, tr *tracer, budget time.Duration, m map[string]float64) (replay, error) {
	var rep replay
	direct := r.reps[0].addr
	opts := fastOptions()
	opts.OfferResume = true
	probe, err := dialFast(ctx, direct, opts)
	if err != nil {
		return rep, err
	}
	spec := probe.Spec()
	if err := probe.Close(); err != nil {
		return rep, err
	}

	reg := obs.NewRegistry()
	fulls, err := r.replaySessions(tr, spec, reg, budget/2, &rep)
	if err != nil {
		return rep, err
	}
	m["ot.base_full_ms"] = ms(median(tr.durations("ot.base_full")))
	m["ot.group_exp_per_full_handshake"] = ratio(float64(reg.Counter(obs.CtrGroupExp)), float64(fulls))
	m["ot.restore_us"] = us(median(tr.durations("ot.restore")))

	// Handshakes over TCP: a full one direct, a resumed one direct, and a
	// resumed one through the gateway (which steers the ticket back to
	// the replica that minted it).
	deadline := time.Now().Add(budget / 2)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		var state *transport.ResumeState
		for _, hop := range []struct{ span, addr string }{
			{"transport.handshake_full", direct},
			{"transport.handshake_resumed", direct},
			{"gateway.handshake_resumed", r.gwAddr},
		} {
			o := opts
			o.Resume = state
			s := tr.begin(hop.span, tr.request())
			fc, err := dialFast(ctx, hop.addr, o)
			s.end()
			if err != nil {
				return rep, err
			}
			samples, want := r.in.window(i*churnBatch, churnBatch)
			labels, err := fc.ClassifyBatchContext(ctx, samples)
			if err != nil {
				_ = fc.Close()
				return rep, err
			}
			if err := fc.Close(); err != nil {
				return rep, err
			}
			rep.attempted++
			if mismatches(labels, want) > 0 || (state != nil) != fc.Resumed() {
				rep.failed++
			}
			state = fc.ResumeState()
		}
	}
	m["transport.handshake_full_ms"] = ms(median(tr.durations("transport.handshake_full")))
	resumed := median(tr.durations("transport.handshake_resumed"))
	m["transport.handshake_resumed_us"] = us(resumed)
	m["gateway.connect_overhead_us"] = us(median(tr.durations("gateway.handshake_resumed")) - resumed)

	m["transport.resume_grant_ratio"] = ratio(float64(tp.resumed), float64(tp.offered))
	hits := float64(tp.snap.Counters[obs.CtrGatewayResumeAffinity])
	misses := float64(tp.snap.Counters[obs.CtrGatewayResumeMisses])
	m["gateway.affinity_hit_ratio"] = ratio(hits, hits+misses)
	m["gateway.shed"] = float64(tp.snap.Counters[obs.CtrGatewayShed])
	m["gateway.failovers"] = float64(tp.snap.Counters[obs.CtrGatewayFailovers])
	return rep, nil
}

// replaySessions runs sessions in memory for about budget: the four
// base-OT steps of a first contact ("ot.base_full"), then a resumed
// session restored from their snapshots with its small batch
// ("replay.op"). The program's counters go to reg; it returns the number
// of base phases run.
func (r *churnRig) replaySessions(tr *tracer, spec classify.Spec, reg *obs.Registry, budget time.Duration, rep *replay) (int, error) {
	defer obs.SetDefault(obs.SwapDefault(reg))
	rng := entropy.Buffered(crand.Reader)
	deadline := time.Now().Add(budget)
	i := 0
	for ; i < 3 || time.Now().Before(deadline); i++ {
		req := tr.request()
		base := tr.begin("ot.base_full", req)
		ft, fc, err := fastPair(r.trainer, spec, rng, base)
		base.end()
		if err != nil {
			return i, err
		}
		sst, err := ft.Snapshot()
		if err != nil {
			return i, err
		}
		cst, err := fc.Snapshot()
		if err != nil {
			return i, err
		}
		root := tr.begin("replay.op", req)
		s := root.child("ot.restore")
		ft, err = r.trainer.ResumeFastSessionFor(spec, sst)
		if err == nil {
			fc, err = classify.ResumeFastClient(spec, cst)
		}
		s.end()
		var labels []int
		samples, want := r.in.window(i*churnBatch, churnBatch)
		if err == nil {
			labels, err = replayBatch(root, ft, fc, samples, rng)
		}
		root.end()
		if err != nil {
			return i, err
		}
		rep.attempted++
		if mismatches(labels, want) > 0 {
			rep.failed++
		}
	}
	return i, nil
}

func (r *churnRig) close() {
	if r.gw != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownBudget)
		_ = r.gw.Shutdown(ctx)
		cancel()
	}
	if r.gwLn != nil {
		_ = r.gwLn.Close() // Serve may not have installed the listener yet
	}
	if r.gw != nil {
		<-r.gwDone
	}
	for _, rep := range r.reps {
		rep.close()
	}
}

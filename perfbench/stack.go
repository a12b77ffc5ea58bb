package main

import (
	"context"
	crand "crypto/rand"
	"fmt"
	"net"
	"time"

	"repro/internal/classify"
	"repro/internal/field"
	"repro/internal/ot"
	"repro/internal/registry"
	"repro/internal/transport"
)

// fastParams is the fast serving profile: limb field and x25519 base OT.
// The AES pad and the binary codec are granted per session when the
// client offers them (fastOptions). The trainer's worker pool is the
// default (one worker per core).
var fastParams = classify.Params{Group: ot.X25519(), FieldBackend: field.BackendLimb}

// fastOptions is the client side of the fast profile over loopback TCP.
func fastOptions() transport.Options {
	return transport.Options{
		FieldBackend: string(field.BackendLimb),
		PadFunc:      string(ot.PadAES),
		WireCodec:    transport.CodecBinary,
		MaxAttempts:  1,
	}
}

// shutdownBudget bounds how long a closing server may drain sessions.
const shutdownBudget = 5 * time.Second

// publish builds the registry serving in.served under params.
func publish(in *inputs, params classify.Params, root open) (*registry.Registry, error) {
	s := root.child("registry.publish")
	defer s.end()
	reg := registry.New(params)
	if _, err := reg.Publish(in.served); err != nil {
		return nil, err
	}
	return reg, nil
}

// replica is one trainer server on a loopback listener.
type replica struct {
	srv  *transport.Server
	ln   net.Listener
	addr string
	done chan struct{}
}

// startReplica serves reg on a fresh loopback port; configure adjusts the
// server before it accepts.
func startReplica(reg *registry.Registry, configure func(*transport.Server)) (*replica, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := transport.NewServerSource(reg)
	srv.Logf = nil
	if configure != nil {
		configure(srv)
	}
	r := &replica{srv: srv, ln: ln, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		_ = srv.Serve(ln)
	}()
	return r, nil
}

// close drains the server and waits for its accept loop to return.
func (r *replica) close() {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownBudget)
	defer cancel()
	_ = r.srv.Shutdown(ctx)
	_ = r.ln.Close() // Serve may not have installed the listener yet
	<-r.done
}

// dialFast opens one fast classification session at addr.
func dialFast(ctx context.Context, addr string, opts transport.Options) (*transport.FastClassifyClient, error) {
	nc, err := transport.DialContext(ctx, addr, opts)
	if err != nil {
		return nil, err
	}
	fc, err := transport.NewFastClassifyClientContext(ctx, nc, opts, crand.Reader)
	if err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	return fc, nil
}

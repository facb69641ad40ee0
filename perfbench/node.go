package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/server"
	"repro/lddp/client"
)

// node is one in-process lddpd: internal/server behind an http.Server on
// a loopback listener, the way cmd/lddpd mounts it.
type node struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error // receives Serve's result once it returns
}

// startNode starts a node and waits until it answers /v1/readyz. wrap,
// when non-nil, wraps the node's Handler (the traced run's span seam).
func startNode(cfg server.Config, wrap func(http.Handler) http.Handler) (*node, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	n := &node{
		srv:    srv,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { n.served <- n.hs.Serve(ln) }()
	tr := newTransport()
	probe, err := client.New(n.url, client.WithTransport(tr))
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = probe.Ready(ctx)
		cancel()
	}
	tr.CloseIdleConnections()
	if err != nil {
		n.stop()
		return nil, fmt.Errorf("node %s not ready: %w", n.url, err)
	}
	return n, nil
}

// stop shuts the HTTP server down (waiting for in-flight handlers), then
// drains and closes the solve service.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := n.hs.Shutdown(ctx); err != nil {
		n.hs.Close()
	}
	if err := <-n.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: node %s: serve: %v\n", n.url, err)
	}
	if err := n.srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: node %s: %v\n", n.url, err)
	}
	n.srv.Close()
}

// newTransport is the generator side's HTTP transport: at most two
// connections to a host, no proxy (every peer is on loopback).
func newTransport() *http.Transport {
	return &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:        4,
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2,
		IdleConnTimeout:     90 * time.Second,
	}
}

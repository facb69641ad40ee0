package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/lddp/api"
	"repro/lddp/client"
)

// bootDaemon runs the daemon on an ephemeral port and returns its bound
// address, the shutdown trigger, and the exit channel.
func bootDaemon(t *testing.T, opts options, out *bytes.Buffer) (string, context.CancelFunc, chan error) {
	t.Helper()
	opts.addr = "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, opts, out, addrCh) }()
	select {
	case addr := <-addrCh:
		return addr, cancel, done
	case err := <-done:
		cancel()
		t.Fatalf("daemon exited before serving: %v", err)
		return "", nil, nil
	}
}

// TestRunServeAndDrain boots the real daemon path — flags, listener,
// signal context — solves over the wire, then triggers shutdown and
// checks the drain order and log lines.
func TestRunServeAndDrain(t *testing.T) {
	var out bytes.Buffer
	tracedir := filepath.Join(t.TempDir(), "traces")
	addr, cancel, done := bootDaemon(t, options{
		workers: 2, drain: 5 * time.Second, tracedir: tracedir,
	}, &out)
	defer cancel()

	c, err := client.New("http://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ready(context.Background()); err != nil {
		t.Fatalf("readyz while serving: %v", err)
	}
	resp, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 16, Cols: 16, Mask: "W,N"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "done" || resp.Digest == "" {
		t.Errorf("solve response malformed: %+v", resp)
	}
	// -tracedir was created by run and holds the per-solve file.
	if _, err := os.Stat(filepath.Join(tracedir, "solve-"+strconv.FormatInt(resp.ID, 10)+".json")); err != nil {
		t.Errorf("trace file missing: %v", err)
	}

	// Shutdown: the signal context ends, the daemon drains and exits nil.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit within the drain bound")
	}
	log := out.String()
	for _, want := range []string{"serving on", "draining", "drained"} {
		if !strings.Contains(log, want) {
			t.Errorf("daemon log missing %q:\n%s", want, log)
		}
	}
	// The listener is gone: a new request must fail at the transport.
	if err := c.Health(context.Background()); err == nil {
		t.Error("healthz still answering after drain")
	} else if apiErr := new(client.APIError); errors.As(err, &apiErr) {
		t.Errorf("post-drain healthz returned HTTP %d; want a transport error", apiErr.HTTPStatus)
	}
}

// TestRunListenFailure pins the error path: a bad address must surface
// from run, not hang.
func TestRunListenFailure(t *testing.T) {
	var out bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := run(ctx, options{addr: "256.0.0.1:bad", workers: 1, drain: time.Second}, &out, nil)
	if err == nil {
		t.Fatal("run with an unusable address returned nil")
	}
}

package fleet_test

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/lddp/api"
	"repro/lddp/client"
)

// routeFleet is the POST /v1/fleet/solve stack cmd/lddpd -peers builds:
// two node stacks behind httptest, and a coordinator node whose mux
// mounts the fleet route beside its own node routes.
type routeFleet struct {
	nodes     []*server.Server
	listeners []*httptest.Server // the nodes' listeners
	single    *client.Client     // a plain client of nodes[0]
	coord     *server.Server     // the coordinator node
	url       string             // the coordinator node's base URL
}

// newRouteFleet boots the stack with cfg as the coordinator node's
// config and fcfg as the coordinator's (its nodes and phase width are
// set here).
func newRouteFleet(t *testing.T, cfg server.Config, fcfg fleet.Config) *routeFleet {
	t.Helper()
	f := &routeFleet{}
	for i := 0; i < 2; i++ {
		srv, err := server.New(server.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		c, err := client.New(ts.URL, client.WithCodec(client.CodecBinary))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		f.nodes = append(f.nodes, srv)
		f.listeners = append(f.listeners, ts)
		fcfg.Nodes = append(fcfg.Nodes, c)
		if i == 0 {
			if f.single, err = client.New(ts.URL); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(f.single.Close)
		}
	}
	fcfg.PhaseCols = 16
	coord, err := fleet.New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cfg.ErrorLog = log.New(io.Discard, "", 0)
	if f.coord, err = server.New(cfg); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/fleet/solve", fleet.NewHandler(coord, f.coord, cfg.ErrorLog))
	mux.Handle("/", f.coord.Handler())
	ts := httptest.NewServer(mux)
	t.Cleanup(func() { ts.Close(); f.coord.Close() })
	f.url = ts.URL
	return f
}

// post sends body to the fleet route and returns the status, the
// response headers and the raw response body.
func (f *routeFleet) post(t *testing.T, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(f.url+"/v1/fleet/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// nodeRequests sums the request counters of the coordinator's peers.
func (f *routeFleet) nodeRequests() int64 {
	var n int64
	for _, srv := range f.nodes {
		ws := srv.WireStats()
		n += ws.JSONRequests + ws.BinaryRequests
	}
	return n
}

// TestFleetRouteMatchesNode: POST /v1/fleet/solve answers the digest
// and pattern a single node's /v1/solve computes, for one mask of each
// plan direction (left to right, right to left, single phase) on a
// square and a ragged table, under a fleet solve id above 0 that the
// X-Lddp-Solve-Id header echoes.
func TestFleetRouteMatchesNode(t *testing.T) {
	f := newRouteFleet(t, server.Config{Workers: 1}, fleet.Config{})
	for _, mask := range []string{"W,N", "N,NE", "W,N,NE"} {
		for _, shape := range [][2]int{{64, 64}, {61, 37}} {
			req := api.SolveRequest{Rows: shape[0], Cols: shape[1], Mask: mask,
				Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 7}}
			doc, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			code, hdr, raw := f.post(t, string(doc))
			if code != http.StatusOK {
				t.Fatalf("mask %s %dx%d: status %d: %s", mask, req.Rows, req.Cols, code, raw)
			}
			var got api.SolveResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			want, err := f.single.Solve(context.Background(), &req)
			if err != nil {
				t.Fatal(err)
			}
			if got.Digest != want.Digest {
				t.Errorf("mask %s %dx%d: fleet digest %s, node digest %s", mask, req.Rows, req.Cols, got.Digest, want.Digest)
			}
			if got.Pattern != want.Pattern || got.Mask != want.Mask {
				t.Errorf("mask %s %dx%d: fleet mask %q pattern %q, node mask %q pattern %q",
					mask, req.Rows, req.Cols, got.Mask, got.Pattern, want.Mask, want.Pattern)
			}
			if got.ID <= 0 || hdr.Get(api.SolveIDHeader) != strconv.FormatInt(got.ID, 10) {
				t.Errorf("mask %s %dx%d: body id %d, %s %q; want an id above 0, echoed",
					mask, req.Rows, req.Cols, got.ID, api.SolveIDHeader, hdr.Get(api.SolveIDHeader))
			}
		}
	}
}

// TestFleetRouteRefusals: the fleet route refuses what a node's
// /v1/solve refuses, with the same status, before the coordinator plans
// a block — no table is allocated and no node sees a band request.
func TestFleetRouteRefusals(t *testing.T) {
	f := newRouteFleet(t, server.Config{Workers: 1, MaxBodyBytes: 4096}, fleet.Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"over the cell cap", `{"rows":4096,"cols":4096,"mask":"W,N"}`, http.StatusRequestEntityTooLarge},
		{"two documents", `{"rows":8,"cols":8,"mask":"W,N"}{"rows":8,"cols":8}`, http.StatusBadRequest},
		{"unknown strategy", `{"rows":8,"cols":8,"mask":"W,N","strategy":"bogus"}`, http.StatusBadRequest},
		{"body over the cap", `{"rows":8,"cols":8,"mask":"W,N"` + strings.Repeat(" ", 8192) + `}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			code, _, raw := f.post(t, tc.body)
			runtime.ReadMemStats(&after)
			if code != tc.want {
				t.Fatalf("status %d, want %d: %s", code, tc.want, raw)
			}
			var body api.ErrorBody
			if err := json.Unmarshal(raw, &body); err != nil || body.Error == "" {
				t.Fatalf("error body %q does not decode as an ErrorBody: %v", raw, err)
			}
			// A 4096x4096 table is 128 MiB; the refusal costs kilobytes.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
				t.Errorf("refusal allocated %d bytes", grew)
			}
		})
	}
	if n := f.nodeRequests(); n != 0 {
		t.Errorf("nodes decoded %d band requests for refused fleet solves", n)
	}
}

// TestFleetRouteDrain: once the coordinator node drains, the fleet route
// answers 503 with Retry-After, like its node routes.
func TestFleetRouteDrain(t *testing.T) {
	f := newRouteFleet(t, server.Config{Workers: 1}, fleet.Config{})
	f.coord.BeginDrain()
	code, hdr, raw := f.post(t, `{"rows":8,"cols":8,"mask":"W,N"}`)
	if retryAfter := hdr.Get("Retry-After"); code != http.StatusServiceUnavailable || retryAfter == "" {
		t.Fatalf("status %d, Retry-After %q, want 503 with Retry-After: %s", code, retryAfter, raw)
	}
	if n := f.nodeRequests(); n != 0 {
		t.Errorf("nodes decoded %d band requests during the drain", n)
	}
}

// TestFleetRouteFailureRetryAfter: a fleet solve that fails on its
// nodes — here a band homed on a node whose listener is closed, with
// relocation off — answers 503 carrying the coordinator node's pushback
// in the Retry-After header (whole seconds, rounded up) and in
// retry_after_ms, like every 503 of a node route.
func TestFleetRouteFailureRetryAfter(t *testing.T) {
	f := newRouteFleet(t, server.Config{Workers: 1, RetryAfter: 1500 * time.Millisecond},
		fleet.Config{MaxBlockAttempts: 1})
	f.listeners[1].CloseClientConnections()
	f.listeners[1].Close()
	code, hdr, raw := f.post(t, `{"rows":32,"cols":32,"mask":"W,N"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", code, raw)
	}
	var body api.ErrorBody
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("error body %q: %v", raw, err)
	}
	if got := hdr.Get("Retry-After"); got != "2" || body.RetryAfterMS != 1500 {
		t.Errorf("Retry-After %q, retry_after_ms %d; want \"2\" and 1500 from the node config", got, body.RetryAfterMS)
	}
}

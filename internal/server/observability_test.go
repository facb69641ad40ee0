// Observability surface tests: the Prometheus exposition of
// /v1/metrics (validated by the strict internal/promlint checker),
// concurrent scrapes racing active solves, and the block trace a traced
// node returns in its band response for the fleet coordinator to
// stitch.
package server_test

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/promlint"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/lddp/api"
	"repro/lddp/client"
)

// scrapeProm fetches /v1/metrics?format=prometheus and returns the body.
func scrapeProm(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prometheus scrape: Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// promValue extracts the value of an unlabeled sample line.
func promValue(t *testing.T, doc, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(doc, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("sample %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("sample %s not in exposition", name)
	return 0
}

func TestPrometheusExposition(t *testing.T) {
	_, ts, c := newTestService(t, server.Config{Workers: 2})
	if _, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 16, Cols: 16, Mask: "W,N"}); err != nil {
		t.Fatal(err)
	}
	doc := scrapeProm(t, ts.URL)

	res, err := promlint.Lint(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("exposition fails lint:\n%v", err)
	}
	// Every family is emitted even at zero, so a scraper can difference
	// counters from the first scrape on; spot-check the family set.
	for _, fam := range []string{
		"lddpd_solves_total", "lddpd_solve_errors_total",
		"lddpd_sched_submitted_total", "lddpd_sched_queue_wait_seconds",
		"lddpd_sched_solve_latency_seconds",
		"lddpd_cache_hits_total", "lddpd_cache_bytes",
		"lddpd_wire_requests_total", "lddpd_wire_request_bytes_total",
		"lddpd_halo_values_total",
		"lddpd_inflight_solves", "lddpd_draining",
		"lddpd_trace_dropped_events_total", "lddpd_fleet_solves_total",
	} {
		if _, ok := res.Families[fam]; !ok {
			t.Errorf("family %s missing from exposition", fam)
		}
	}
	if v := promValue(t, doc, "lddpd_solves_total"); v < 1 {
		t.Errorf("lddpd_solves_total = %v after a solve, want >= 1", v)
	}
	if v := promValue(t, doc, "lddpd_sched_solve_latency_seconds_count"); v < 1 {
		t.Errorf("solve latency histogram empty after a solve: count=%v", v)
	}
	if v := promValue(t, doc, "lddpd_sched_queue_wait_seconds_count"); v < 1 {
		t.Errorf("queue wait histogram empty after a solve: count=%v", v)
	}
	// Request/response byte counters ride the HTTP wrappers.
	if v := promValue(t, doc, "lddpd_wire_request_bytes_total"); v <= 0 {
		t.Errorf("lddpd_wire_request_bytes_total = %v, want > 0", v)
	}
	if v := promValue(t, doc, "lddpd_wire_response_bytes_total"); v <= 0 {
		t.Errorf("lddpd_wire_response_bytes_total = %v, want > 0", v)
	}
}

// TestMetricsConcurrentScrapes hammers /v1/metrics in both formats
// while solves are actively running: every scrape must return a
// complete, lint-clean document, and the run must be race-clean under
// -race. This is the scrape-during-load contract a Prometheus server
// exercises in production.
func TestMetricsConcurrentScrapes(t *testing.T) {
	_, ts, c := newTestService(t, server.Config{Workers: 4})
	const solvers, solvesEach, scrapers = 3, 5, 3

	var solveWG, scrapeWG sync.WaitGroup
	done := make(chan struct{})
	errc := make(chan error, solvers+2*scrapers)

	for s := 0; s < solvers; s++ {
		solveWG.Add(1)
		go func(seed int) {
			defer solveWG.Done()
			for i := 0; i < solvesEach; i++ {
				_, err := c.Solve(context.Background(), &api.SolveRequest{
					Rows: 64, Cols: 64, Mask: "W,N",
					Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: int64(seed*100 + i)},
				})
				if err != nil {
					errc <- fmt.Errorf("solver %d: %w", seed, err)
					return
				}
			}
		}(s)
	}
	for s := 0; s < scrapers; s++ {
		scrapeWG.Add(2)
		// JSON scraper: the snapshot must always decode.
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := c.Metrics(context.Background()); err != nil {
					errc <- fmt.Errorf("json scrape: %w", err)
					return
				}
			}
		}()
		// Prometheus scraper: every body must lint clean — a torn or
		// inconsistent exposition under load is a bug.
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/metrics?format=prometheus")
				if err != nil {
					errc <- fmt.Errorf("prom scrape: %w", err)
					return
				}
				res, err := promlint.Lint(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- fmt.Errorf("prom scrape read: %w", err)
					return
				}
				if err := res.Err(); err != nil {
					errc <- fmt.Errorf("prom scrape lint: %w", err)
					return
				}
			}
		}()
	}

	// Scrapers run for exactly as long as the solve workload does.
	solveWG.Wait()
	close(done)
	scrapeWG.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// bandAtOrigin builds the band request for the block at (0,0) that
// spans a whole rows x cols table, so it reads no halo. A non-empty
// fleetID attaches a trace context naming block (band, phase).
func bandAtOrigin(rows, cols int, mask, fleetID string, band, phase int) *api.BandRequest {
	req := &api.BandRequest{
		Rows: rows, Cols: cols,
		Row0: 0, Row1: rows, Col0: 0, Col1: cols,
		Mask:     mask,
		Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 7},
	}
	if fleetID != "" {
		req.Trace = &api.TraceContext{FleetID: fleetID, Band: band, Phase: phase}
	}
	return req
}

// solveBand solves req through c, landing the block in a fresh buffer.
func solveBand(t *testing.T, c *client.Client, req *api.BandRequest) *api.BandResponse {
	t.Helper()
	cols := req.Col1 - req.Col0
	resp, err := c.SolveBand(context.Background(), req, func() ([]int64, int) {
		return make([]int64, (req.Row1-req.Row0)*cols), cols
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// codecClients returns the test service's JSON client c and a binary
// client of the same service.
func codecClients(t *testing.T, ts *httptest.Server, c *client.Client) []*client.Client {
	return []*client.Client{c, newCodecClient(t, ts, client.WithCodec(client.CodecBinary))}
}

// readTraceFile reads solve id's trace file back from a node's TraceDir.
func readTraceFile(t *testing.T, dir string, id int64) (trace.Meta, []trace.Event) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, fmt.Sprintf("solve-%d.json", id)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	meta, events, err := trace.ReadChrome(f)
	if err != nil {
		t.Fatal(err)
	}
	return meta, events
}

// sortedEvents returns events in one total order, so two copies of a
// trace compare equal whatever order their timestamp ties took.
func sortedEvents(events []trace.Event) []trace.Event {
	out := slices.Clone(events)
	slices.SortFunc(out, func(a, b trace.Event) int {
		return cmp.Or(cmp.Compare(a.TS, b.TS), cmp.Compare(a.Worker, b.Worker),
			cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Front, b.Front),
			cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B), cmp.Compare(a.Dur, b.Dur),
			strings.Compare(a.Label, b.Label))
	})
	return out
}

// TestBandResponseCarriesTrace: a node with a TraceDir answers a band
// request that carries a trace context with the block's trace, under
// both codecs. Its meta names the fleet block and the recorder's epoch,
// its task spans cover the block's cells, and its events are the ones
// the node's trace file holds for the same solve.
func TestBandResponseCarriesTrace(t *testing.T) {
	dir := t.TempDir()
	_, ts, c := newTestService(t, server.Config{Workers: 2, TraceDir: dir})
	for i, cl := range codecClients(t, ts, c) {
		t.Run([]string{"json", "binary"}[i], func(t *testing.T) {
			const rows, cols = 24, 40
			resp := solveBand(t, cl, bandAtOrigin(rows, cols, "W,N", "f-push", 1, 2))
			bt := resp.Trace
			if bt == nil {
				t.Fatal("traced band solve answered without a trace")
			}
			if bt.SolveID != resp.ID || bt.Band != 1 || bt.Phase != 2 {
				t.Errorf("trace names solve %d block (%d,%d), want solve %d block (1,2)", bt.SolveID, bt.Band, bt.Phase, resp.ID)
			}
			if m := bt.Meta; m.FleetID != "f-push" || m.Band != 1 || m.Phase != 2 || m.EpochUnixNS == 0 {
				t.Errorf("trace meta fleet_id %q band %d phase %d epoch %d, want f-push, 1, 2 and an epoch",
					m.FleetID, m.Band, m.Phase, m.EpochUnixNS)
			}
			var cells int64
			for _, e := range bt.Events {
				if e.Kind == trace.KindTask {
					cells += e.B
				}
			}
			if cells != rows*cols {
				t.Errorf("task spans cover %d cells, want %d", cells, rows*cols)
			}
			meta, events := readTraceFile(t, dir, resp.ID)
			if meta.FleetID != "f-push" || meta.EpochUnixNS != bt.Meta.EpochUnixNS {
				t.Errorf("trace file meta %+v does not match the response's %+v", meta, bt.Meta)
			}
			if !slices.Equal(sortedEvents(events), sortedEvents(bt.Events)) {
				t.Errorf("response carries %d events, the trace file %d, and they differ", len(bt.Events), len(events))
			}
		})
	}
}

// TestBandResponseWithoutTrace: a band response carries a trace only
// when the node records traces and the request carries a trace context.
func TestBandResponseWithoutTrace(t *testing.T) {
	for _, tc := range []struct {
		name     string
		traceDir bool
		fleetID  string
	}{
		{"no tracedir", false, "f-x"},
		{"no trace context", true, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := server.Config{Workers: 2}
			if tc.traceDir {
				cfg.TraceDir = t.TempDir()
			}
			_, ts, c := newTestService(t, cfg)
			for i, cl := range codecClients(t, ts, c) {
				if resp := solveBand(t, cl, bandAtOrigin(8, 8, "W,N", tc.fleetID, 0, 0)); resp.Trace != nil {
					t.Errorf("%s response carries a trace of %d events", []string{"json", "binary"}[i], len(resp.Trace.Events))
				}
			}
		})
	}
}

// TestBandResponseTraceOverCap: a block whose trace would push a frame
// header past wire.MaxHeaderBytes, the client's cap, still solves. The
// response carries the newest events that fit, and Meta.Dropped counts
// the rest. The node cuts the trace before it picks the codec, so the
// frame codec, the one with a header cap, covers both. A {W} block 4096
// rows tall and 640 columns wide runs as 12288 one-row tiles of at most
// 256 cells on four workers: about 16,000 events, 1.3 MB of JSON.
func TestBandResponseTraceOverCap(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := newTestService(t, server.Config{Workers: 4, TraceDir: dir})
	c := newCodecClient(t, ts, client.WithCodec(client.CodecBinary))
	resp := solveBand(t, c, bandAtOrigin(4096, 640, "W", "f-big", 0, 0))
	meta, events := readTraceFile(t, dir, resp.ID)
	if full, _ := json.Marshal(trace.BlockTrace{Meta: meta, Events: events}); len(full) <= wire.MaxHeaderBytes {
		t.Fatalf("the block's trace takes %d bytes, within the %d-byte header cap; the test needs a bigger block", len(full), wire.MaxHeaderBytes)
	}
	bt := resp.Trace
	if bt == nil {
		t.Fatal("traced band solve answered without a trace")
	}
	if doc, _ := json.Marshal(bt); len(doc) > wire.MaxHeaderBytes {
		t.Errorf("response trace takes %d bytes, over the %d-byte header cap", len(doc), wire.MaxHeaderBytes)
	}
	if bt.Meta.Dropped == 0 {
		t.Error("a trace cut to fit counts no dropped events")
	}
	if got, want := int64(len(bt.Events))+bt.Meta.Dropped, int64(len(events))+meta.Dropped; got != want {
		t.Errorf("response keeps %d events and drops %d, the node recorded %d and dropped %d",
			len(bt.Events), bt.Meta.Dropped, len(events), meta.Dropped)
	}
	// The newest events stay: the kept ones span the file's tail.
	if k := len(bt.Events); k == 0 || bt.Events[0].TS != events[len(events)-k].TS || bt.Events[k-1].TS != events[len(events)-1].TS {
		t.Errorf("response keeps %d events that are not the newest of the %d recorded", k, len(events))
	}
}

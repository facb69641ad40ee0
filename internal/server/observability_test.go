// Observability surface tests: the Prometheus exposition of
// /v1/metrics (validated by the strict internal/promlint checker),
// concurrent scrapes racing active solves, and the /v1/trace/{fleetID}
// collection endpoint that the fleet coordinator stitches from.
package server_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/promlint"
	"repro/internal/server"
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

// blockBuffer is a band solve's destination when only the response
// matters: a fresh buffer of n cells at row stride cols.
func blockBuffer(n, cols int) client.BlockDest {
	return func() ([]int64, int) { return make([]int64, n), cols }
}

// bandReqAtOrigin builds a halo-free band request: the block at (0,0)
// under mask W,N needs no inbound halos.
func bandReqAtOrigin(fleetID string, band, phase int) *api.BandRequest {
	req := &api.BandRequest{
		Rows: 8, Cols: 8,
		Row0: 0, Row1: 8, Col0: 0, Col1: 8,
		Mask:     "W,N",
		Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 7},
	}
	if fleetID != "" {
		req.Trace = &api.TraceContext{FleetID: fleetID, Band: band, Phase: phase}
	}
	return req
}

func TestTraceEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, _, c := newTestService(t, server.Config{Workers: 2, TraceDir: dir})

	// Two blocks of the same fleet solve, one of another.
	for _, bp := range []struct {
		id          string
		band, phase int
	}{{"f-test", 0, 0}, {"f-test", 0, 1}, {"f-other", 1, 0}} {
		if _, err := c.SolveBand(context.Background(), bandReqAtOrigin(bp.id, bp.band, bp.phase), blockBuffer(64, 8)); err != nil {
			t.Fatal(err)
		}
	}

	nt, err := c.Trace(context.Background(), "f-test")
	if err != nil {
		t.Fatal(err)
	}
	if nt.FleetID != "f-test" {
		t.Errorf("NodeTrace.FleetID = %q, want f-test", nt.FleetID)
	}
	if len(nt.Blocks) != 2 {
		t.Fatalf("collected %d blocks for f-test, want 2", len(nt.Blocks))
	}
	for i, b := range nt.Blocks {
		if b.Meta.FleetID != "f-test" {
			t.Errorf("block %d meta fleet_id = %q, want f-test", i, b.Meta.FleetID)
		}
		if b.Meta.EpochUnixNS == 0 {
			t.Errorf("block %d meta epoch is zero; stitching cannot align it", i)
		}
		if len(b.Events) == 0 {
			t.Errorf("block %d carries no events", i)
		}
	}
	// Band/phase tags round-tripped through the recorder meta.
	phases := map[int]bool{}
	for _, b := range nt.Blocks {
		phases[b.Phase] = true
		if b.Band != 0 {
			t.Errorf("block band = %d, want 0", b.Band)
		}
	}
	if !phases[0] || !phases[1] {
		t.Errorf("phases collected = %v, want {0,1}", phases)
	}

	// Unknown fleet IDs are a typed 404.
	_, err = c.Trace(context.Background(), "f-missing")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.HTTPStatus != http.StatusNotFound {
		t.Errorf("Trace(unknown) = %v, want HTTP 404", err)
	}
}

func TestTraceEndpointWithoutTraceDir(t *testing.T) {
	_, _, c := newTestService(t, server.Config{Workers: 2})
	if _, err := c.SolveBand(context.Background(), bandReqAtOrigin("f-x", 0, 0), blockBuffer(64, 8)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Trace(context.Background(), "f-x")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.HTTPStatus != http.StatusNotFound {
		t.Errorf("Trace without -tracedir = %v, want HTTP 404", err)
	}
}

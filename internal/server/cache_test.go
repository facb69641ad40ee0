// Result-cache correctness: byte-identical replays, LRU eviction under
// size pressure, key separation across workload kinds and inline
// payloads, the Cache-Control escape hatches, and the counters surfaced
// through /metrics.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/lddp"
	"repro/lddp/api"
	"repro/lddp/client"
)

// solveOnce runs one request (with cells) and fails the test on error.
func solveOnce(t *testing.T, c *client.Client, req *api.SolveRequest) *api.SolveResponse {
	t.Helper()
	req.ReturnCells = true
	resp, err := c.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("solve %+v: %v", req, err)
	}
	return resp
}

func mixReq(seed int64, rows, cols int) *api.SolveRequest {
	return &api.SolveRequest{
		Rows: rows, Cols: cols, Mask: "W,N",
		Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: seed},
	}
}

// TestCacheHitByteIdentical: the second identical request is served from
// the cache (Cached=true, original solve ID echoed) with the exact same
// digest and cell values, and the counters record one miss + one hit.
func TestCacheHitByteIdentical(t *testing.T) {
	srv, _, c := newTestService(t, server.Config{Workers: 2})
	cold := solveOnce(t, c, mixReq(42, 24, 24))
	if cold.Cached {
		t.Fatalf("first solve claims to be cached")
	}
	warm := solveOnce(t, c, mixReq(42, 24, 24))
	if !warm.Cached {
		t.Fatalf("second identical solve not served from cache")
	}
	if warm.ID != cold.ID {
		t.Errorf("cached response ID = %d, want the original solve's %d", warm.ID, cold.ID)
	}
	if warm.Digest != cold.Digest {
		t.Errorf("cached digest %s != cold digest %s", warm.Digest, cold.Digest)
	}
	if warm.Mask != cold.Mask || warm.Pattern != cold.Pattern {
		t.Errorf("cached echo fields differ: %q/%q vs %q/%q", warm.Mask, warm.Pattern, cold.Mask, cold.Pattern)
	}
	for i := range cold.Cells {
		for j := range cold.Cells[i] {
			if cold.Cells[i][j] != warm.Cells[i][j] {
				t.Fatalf("cached cell (%d,%d) = %d, want %d", i, j, warm.Cells[i][j], cold.Cells[i][j])
			}
		}
	}
	stats := srv.CacheStats()
	if stats.Hits != 1 || stats.Misses != 1 || stats.Stores != 1 {
		t.Errorf("counters = %+v, want 1 hit, 1 miss, 1 store", stats)
	}
	if stats.Entries != 1 || stats.Bytes <= 0 {
		t.Errorf("cache holds %d entries / %d bytes, want 1 entry with positive size", stats.Entries, stats.Bytes)
	}
}

// TestCacheEviction: a cache sized for roughly two tables evicts the
// least-recently-used entry when a third lands, so the oldest request
// solves again (miss) while the newer two stay hits.
func TestCacheEviction(t *testing.T) {
	// One 24x24 entry is 24*24*8 + overhead ≈ 4.9 KiB; a 12 KiB bound
	// admits each entry (under the half-bound store guard) but not three
	// at once.
	srv, _, c := newTestService(t, server.Config{Workers: 2, CacheBytes: 12 << 10})
	solveOnce(t, c, mixReq(1, 24, 24))
	solveOnce(t, c, mixReq(2, 24, 24))
	solveOnce(t, c, mixReq(3, 24, 24)) // overflows; evicts seed 1
	if stats := srv.CacheStats(); stats.Evictions < 1 {
		t.Fatalf("no eviction recorded after overflowing the bound: %+v", stats)
	}
	for seed := int64(2); seed <= 3; seed++ {
		if resp := solveOnce(t, c, mixReq(seed, 24, 24)); !resp.Cached {
			t.Errorf("recent entry (seed %d) was evicted; want the LRU victim instead", seed)
		}
	}
	if resp := solveOnce(t, c, mixReq(1, 24, 24)); resp.Cached {
		t.Errorf("evicted entry still answered from cache")
	}
	if stats := srv.CacheStats(); stats.Bytes > 12<<10 {
		t.Errorf("cache bytes %d exceed the configured bound", stats.Bytes)
	}
}

// TestCacheOversizeEntryNotStored: a result larger than half the bound
// is never inserted — one giant table must not wipe the working set.
func TestCacheOversizeEntryNotStored(t *testing.T) {
	srv, _, c := newTestService(t, server.Config{Workers: 2, CacheBytes: 8 << 10})
	solveOnce(t, c, mixReq(7, 48, 48)) // 18 KiB of cells > 4 KiB half-bound
	if stats := srv.CacheStats(); stats.Stores != 0 || stats.Entries != 0 {
		t.Errorf("oversize result was stored: %+v", stats)
	}
	if resp := solveOnce(t, c, mixReq(7, 48, 48)); resp.Cached {
		t.Errorf("oversize result answered from cache")
	}
}

// TestCacheKeySeparation: requests that differ only in workload kind,
// seed, mask, strategy, or inline payload must not collide.
func TestCacheKeySeparation(t *testing.T) {
	_, _, c := newTestService(t, server.Config{Workers: 2})
	base := solveOnce(t, c, mixReq(5, 16, 16))

	variants := []*api.SolveRequest{
		{Rows: 16, Cols: 16, Mask: "W,N", Workload: api.WorkloadSpec{Kind: api.KindCost, Seed: 5}},
		{Rows: 16, Cols: 16, Mask: "W,N", Workload: api.WorkloadSpec{Kind: api.KindServe}},
		{Rows: 16, Cols: 16, Mask: "W,NW", Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 5}},
		{Rows: 16, Cols: 16, Mask: "W,N", Strategy: "parallel", Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 5}},
		mixReq(6, 16, 16),
	}
	for _, req := range variants {
		if resp := solveOnce(t, c, req); resp.Cached {
			t.Errorf("request %+v answered from another key's cache entry", req)
		}
	}
	// The strategy variant computes the same table; everything else must
	// also produce its own digest or, for equal-result variants, at least
	// its own entry. Spot-check the kind collision, the dangerous one.
	cost := solveOnce(t, c, &api.SolveRequest{
		Rows: 16, Cols: 16, Mask: "W,N",
		Workload: api.WorkloadSpec{Kind: api.KindCost, Seed: 5},
	})
	if !cost.Cached {
		t.Fatalf("repeat of the cost request missed its own entry")
	}
	if cost.Digest == base.Digest {
		t.Errorf("mix and cost with the same seed share a digest — generator collision")
	}
}

// TestCacheInlineCellsContentAddressed: two inline cost payloads with
// identical shape but different values get distinct entries, and the
// same payload replayed hits.
func TestCacheInlineCellsContentAddressed(t *testing.T) {
	_, _, c := newTestService(t, server.Config{Workers: 2})
	gridA := [][]int64{{1, 2}, {3, 4}}
	gridB := [][]int64{{1, 2}, {3, 5}}
	reqFor := func(cells [][]int64) *api.SolveRequest {
		return &api.SolveRequest{
			Rows: 2, Cols: 2, Mask: "W,N",
			Workload: api.WorkloadSpec{Kind: api.KindCost, Cells: cells},
		}
	}
	a := solveOnce(t, c, reqFor(gridA))
	b := solveOnce(t, c, reqFor(gridB))
	if b.Cached {
		t.Fatalf("different inline payload answered from the first payload's entry")
	}
	if a.Digest == b.Digest {
		t.Errorf("different inline payloads produced the same digest")
	}
	if again := solveOnce(t, c, reqFor(gridA)); !again.Cached || again.Digest != a.Digest {
		t.Errorf("replayed inline payload: cached=%v digest=%s, want cached hit with digest %s",
			again.Cached, again.Digest, a.Digest)
	}
}

// TestCacheControlBypassAndNoStore drives the raw HTTP surface:
// no-cache skips the lookup (X-Lddp-Cache: bypass) but still stores;
// no-store skips both.
func TestCacheControlBypassAndNoStore(t *testing.T) {
	srv, ts, _ := newTestService(t, server.Config{Workers: 2})
	post := func(cacheControl string, req *api.SolveRequest) (*http.Response, *api.SolveResponse) {
		t.Helper()
		doc, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		if cacheControl != "" {
			hreq.Header.Set("Cache-Control", cacheControl)
		}
		hresp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", hresp.StatusCode)
		}
		var out api.SolveResponse
		if err := json.NewDecoder(hresp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return hresp, &out
	}

	// no-cache: the lookup is skipped even though the store still runs.
	hresp, out := post("no-cache", mixReq(9, 8, 8))
	if got := hresp.Header.Get(server.CacheHeader); got != "bypass" {
		t.Errorf("%s = %q, want bypass", server.CacheHeader, got)
	}
	if out.Cached {
		t.Errorf("bypassed request claims to be cached")
	}
	hresp, out = post("no-cache", mixReq(9, 8, 8))
	if got := hresp.Header.Get(server.CacheHeader); got != "bypass" || out.Cached {
		t.Errorf("second no-cache request: header=%q cached=%v, want bypass/false", got, out.Cached)
	}
	// Without the header the stored entry answers.
	hresp, out = post("", mixReq(9, 8, 8))
	if got := hresp.Header.Get(server.CacheHeader); got != "hit" || !out.Cached {
		t.Errorf("post-bypass request: header=%q cached=%v, want hit/true", got, out.Cached)
	}

	// no-store: neither lookup nor insert.
	before := srv.CacheStats()
	post("no-store", mixReq(10, 8, 8))
	after := srv.CacheStats()
	if after.Stores != before.Stores {
		t.Errorf("no-store request was stored (%d -> %d stores)", before.Stores, after.Stores)
	}
	if _, out := post("", mixReq(10, 8, 8)); out.Cached {
		t.Errorf("no-store request left a cache entry behind")
	}
	if stats := srv.CacheStats(); stats.Bypasses < 3 {
		t.Errorf("bypasses = %d, want at least 3 (two no-cache + one no-store)", stats.Bypasses)
	}
}

// TestCacheDisabled: CacheBytes < 0 turns the cache off entirely — no
// hits, no stores, all-zero stats, and no X-Lddp-Cache header.
func TestCacheDisabled(t *testing.T) {
	srv, ts, c := newTestService(t, server.Config{Workers: 2, CacheBytes: -1})
	solveOnce(t, c, mixReq(3, 8, 8))
	if resp := solveOnce(t, c, mixReq(3, 8, 8)); resp.Cached {
		t.Fatalf("disabled cache served a hit")
	}
	if stats := srv.CacheStats(); stats != (lddp.CacheSnapshot{}) {
		t.Errorf("disabled cache reports non-zero stats: %+v", stats)
	}
	doc, _ := json.Marshal(mixReq(3, 8, 8))
	hresp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(string(doc)))
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if got := hresp.Header.Get(server.CacheHeader); got != "" {
		t.Errorf("disabled cache still sets %s=%q", server.CacheHeader, got)
	}
}

// TestMetricsCarriesCacheAndWire: the /metrics document includes the
// cache and wire sections, matching the server's own counters.
func TestMetricsCarriesCacheAndWire(t *testing.T) {
	srv, _, c := newTestService(t, server.Config{Workers: 2})
	solveOnce(t, c, mixReq(11, 8, 8))
	solveOnce(t, c, mixReq(11, 8, 8))
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cache != srv.CacheStats() {
		t.Errorf("metrics cache section %+v != server stats %+v", snap.Cache, srv.CacheStats())
	}
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Errorf("cache section = %+v, want 1 hit / 1 miss", snap.Cache)
	}
	wire := snap.Wire
	if wire.JSONRequests < 2 || wire.JSONResponses < 2 {
		t.Errorf("wire section undercounts JSON traffic: %+v", wire)
	}
	if wire.BinaryRequests != 0 || wire.BinaryResponses != 0 || wire.BinaryRejects != 0 {
		t.Errorf("wire section counts binary traffic that never happened: %+v", wire)
	}
}

package server_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/lddp"
	"repro/lddp/api"
)

// TestRouteTable walks every versioned path, every legacy alias, and an
// unknown path, pinning the v1 surface: versioned and unversioned
// operational endpoints answer identically, and the 404 fallback is a
// JSON ErrorBody rather than the mux's text default.
func TestRouteTable(t *testing.T) {
	_, ts, _ := newTestService(t, server.Config{Workers: 2})
	cases := []struct {
		method, path string
		status       int
		jsonBody     bool
	}{
		{"GET", "/v1/healthz", http.StatusOK, false},
		{"GET", "/healthz", http.StatusOK, false},
		{"GET", "/v1/readyz", http.StatusOK, false},
		{"GET", "/readyz", http.StatusOK, false},
		{"GET", "/v1/metrics", http.StatusOK, true},
		{"GET", "/metrics", http.StatusOK, true},
		{"GET", "/v1/solve", http.StatusMethodNotAllowed, true},
		{"GET", "/v1/band/solve", http.StatusMethodNotAllowed, true},
		{"GET", "/v2/solve", http.StatusNotFound, true},
		{"GET", "/solve", http.StatusNotFound, true},
		{"POST", "/v1/nope", http.StatusNotFound, true},
		{"GET", "/", http.StatusNotFound, true},
	}
	for _, c := range cases {
		t.Run(c.method+" "+c.path, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.status)
			}
			ct := resp.Header.Get("Content-Type")
			if c.jsonBody != strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type %q, want json=%v", ct, c.jsonBody)
			}
			if c.status == http.StatusNotFound {
				var body api.ErrorBody
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
					t.Fatalf("404 body is not an ErrorBody: %v", err)
				}
				if body.Status != "not_found" || !strings.Contains(body.Error, c.path) {
					t.Fatalf("404 body = %+v, want status not_found naming %s", body, c.path)
				}
			}
		})
	}
}

// TestBandSolveMatchesFullTable solves a table whole, then solves an
// interior block of it via /v1/band/solve with oracle-sliced halos, and
// demands the block cells match the full solve exactly — the
// single-block correctness base case the fleet differential suite
// builds on.
func TestBandSolveMatchesFullTable(t *testing.T) {
	_, ts, _ := newTestService(t, server.Config{Workers: 2})
	const rows, cols, seed = 20, 17, 77
	for _, m := range lddp.AllDepMasks() {
		t.Run(m.String(), func(t *testing.T) {
			oracle, err := core.Solve(server.MixProblem(seed, m, rows, cols, 0, 0))
			if err != nil {
				t.Fatal(err)
			}
			req := &api.BandRequest{
				Rows: rows, Cols: cols,
				Row0: 5, Row1: 12, Col0: 4, Col1: 11,
				Mask:     m.String(),
				Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: seed},
			}
			h := api.HaloSpec(m, rows, cols, req.Row0, req.Row1, req.Col0, req.Col1)
			if h.NorthLen > 0 {
				req.NorthLo = h.NorthLo
				for j := h.NorthLo; j < h.NorthLo+h.NorthLen; j++ {
					req.HaloNorth = append(req.HaloNorth, oracle.At(req.Row0-1, j))
				}
			}
			for i := 0; i < h.WestLen; i++ {
				req.HaloWest = append(req.HaloWest, oracle.At(req.Row0+i, req.Col0-1))
			}
			for i := 0; i < h.EastLen; i++ {
				req.HaloEast = append(req.HaloEast, oracle.At(req.Row0+i, req.Col1))
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/band/solve", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				var eb api.ErrorBody
				_ = json.NewDecoder(resp.Body).Decode(&eb)
				t.Fatalf("band solve: %d %+v", resp.StatusCode, eb)
			}
			var br api.BandResponse
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
				t.Fatal(err)
			}
			if len(br.Cells) != req.Row1-req.Row0 {
				t.Fatalf("band returned %d rows, want %d", len(br.Cells), req.Row1-req.Row0)
			}
			for i, row := range br.Cells {
				for j, v := range row {
					if want := oracle.At(req.Row0+i, req.Col0+j); v != want {
						t.Fatalf("cell (%d,%d): band %d, full %d", req.Row0+i, req.Col0+j, v, want)
					}
				}
			}
		})
	}
}

// TestBandSolveRejectsBadHalos pins validation: wrong halo lengths,
// inline cells, and out-of-table blocks all answer 400 with an
// ErrorBody.
func TestBandSolveRejectsBadHalos(t *testing.T) {
	_, ts, _ := newTestService(t, server.Config{Workers: 2})
	post := func(req *api.BandRequest) (int, api.ErrorBody) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/band/solve", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb api.ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, eb
	}
	base := func() *api.BandRequest {
		return &api.BandRequest{
			Rows: 10, Cols: 10, Row0: 2, Row1: 5, Col0: 0, Col1: 10,
			Mask:     "W,N",
			Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 1},
		}
	}
	for name, mutate := range map[string]func(*api.BandRequest){
		"missing north halo": func(r *api.BandRequest) {},
		"short north halo": func(r *api.BandRequest) {
			r.HaloNorth = []int64{1, 2}
		},
		"wrong north origin": func(r *api.BandRequest) {
			r.HaloNorth = make([]int64, 10)
			r.NorthLo = 3
		},
		"unneeded east halo": func(r *api.BandRequest) {
			r.HaloNorth = make([]int64, 10)
			r.HaloEast = []int64{1, 2, 3}
		},
		"inline cells": func(r *api.BandRequest) {
			r.HaloNorth = make([]int64, 10)
			r.Workload.Kind = api.KindCost
			r.Workload.Cells = [][]int64{{1}}
		},
		"inverted block": func(r *api.BandRequest) {
			r.HaloNorth = make([]int64, 10)
			r.Row0, r.Row1 = r.Row1, r.Row0
		},
		"block past table": func(r *api.BandRequest) {
			r.HaloNorth = make([]int64, 10)
			r.Col1 = 11
		},
	} {
		t.Run(name, func(t *testing.T) {
			req := base()
			mutate(req)
			code, eb := post(req)
			if code != http.StatusBadRequest || eb.Status != "invalid" {
				t.Fatalf("got %d %+v, want 400 invalid", code, eb)
			}
		})
	}
	// Control: the well-formed request is accepted.
	req := base()
	req.HaloNorth = make([]int64, 10)
	if code, eb := post(req); code != http.StatusOK {
		t.Fatalf("control request refused: %d %+v", code, eb)
	}
}

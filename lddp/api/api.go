// Package api holds the wire-level types of the lddpd solve service:
// the request/response documents of POST /v1/solve and the band-solve
// peer protocol, the error body, and the workload kind names. It is the
// neutral contract both sides depend on — repro/internal/server
// implements the service and repro/lddp/client consumes it — so neither
// has to import the other. The JSON encoding of every type here is the
// wire format itself (DESIGN.md §10–§12); field names and tags are
// frozen by the golden wire-compat fixtures in internal/server.
package api

// SolveRequest is the body of POST /v1/solve. The server builds the DP
// problem from the declarative spec (shape, mask, workload), runs it on
// the shared scheduler, and returns a SolveResponse. Cell values are
// int64 on the wire.
type SolveRequest struct {
	// Rows and Cols are the DP-table dimensions. Both must be positive
	// and Rows*Cols must not exceed the server's per-request cell cap.
	Rows int `json:"rows"`
	Cols int `json:"cols"`

	// Mask is the contributing set, e.g. "W,N" or "{W,NW,NE}"
	// (case-insensitive, parsed by lddp.ParseDepMask). Empty selects the
	// workload kind's default mask.
	Mask string `json:"mask,omitempty"`

	// Strategy selects the executor: "auto" (default), "parallel", or
	// "async" — the strategies the shared scheduler can run, all three as
	// the dependency-driven tile engine.
	Strategy string `json:"strategy,omitempty"`

	// Workload selects the problem generator; the zero value is the
	// seeded "mix" generator.
	Workload WorkloadSpec `json:"workload"`

	// DeadlineMS bounds the solve (queue wait + run) in milliseconds,
	// enforced server-side; 0 means no deadline beyond the connection's.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// ReturnCells asks for the full table in the response. Honored only
	// when Rows*Cols is at or under the server's response-cell cap;
	// larger tables return the digest alone.
	ReturnCells bool `json:"return_cells,omitempty"`
}

// WorkloadSpec selects the server-side problem generator of a solve
// request. Kinds:
//
//	"mix"   (default) seeded wraparound multiply-xor recurrence — the
//	        adversarial instance family of the conformance suite; any mask.
//	"serve" the load driver's cheap integer-mixing recurrence; any mask.
//	"cost"  min-plus over a cost grid: inline Cells when provided
//	        (small tables), otherwise generated from Seed; any mask.
//	"align" edit distance over two similar strings generated from Seed
//	        (lengths Rows and Cols); mask fixed to {W,NW,N}.
type WorkloadSpec struct {
	Kind string `json:"kind,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	// Cells is the inline row-major cost payload of the "cost" kind:
	// Rows rows of Cols values. Bounded by the server's inline-cell cap.
	Cells [][]int64 `json:"cells,omitempty"`
}

// SolveResponse is the 200 body of a completed solve.
type SolveResponse struct {
	// ID is the scheduler-assigned solve ID, also echoed in the
	// X-Lddp-Solve-Id header and naming the solve's trace file
	// server-side.
	ID int64 `json:"id"`
	// Status is "done".
	Status string `json:"status"`
	// Rows, Cols, Mask and Pattern echo the executed instance
	// (mask normalized to lddp.DepMask.String form).
	Rows    int    `json:"rows"`
	Cols    int    `json:"cols"`
	Mask    string `json:"mask"`
	Pattern string `json:"pattern"`
	// Digest is the FNV-1a 64-bit digest of the row-major cell values
	// (hex), comparable across executors for the same instance.
	Digest string `json:"digest"`
	// Cells is the full table, present only when requested and within
	// the server's response-cell cap.
	Cells [][]int64 `json:"cells,omitempty"`
	// Cached reports that the response was served from the server's
	// result cache (also surfaced as the X-Lddp-Cache header); ID then
	// names the solve that originally produced the table.
	Cached bool `json:"cached,omitempty"`
	// ElapsedMS is the server-side wall time of the solve (submit to
	// completion, including queue wait). For cached responses it is the
	// lookup time.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ErrorBody is the JSON body of every non-2xx solve response.
type ErrorBody struct {
	// Status classifies the failure: "invalid" (malformed or out-of-cap
	// request), "rejected" (admission refused: in-flight limit or queue
	// full), "draining" (server shutting down), "canceled" (deadline or
	// disconnect after admission), "not_found" (unknown path), or
	// "error".
	Status string `json:"status"`
	// Error is the human-readable cause.
	Error string `json:"error"`
	// ID is the scheduler-assigned solve ID when one was assigned.
	ID int64 `json:"id,omitempty"`
	// RetryAfterMS is the server's pushback hint for retryable statuses
	// (429/503), mirroring the Retry-After header at millisecond
	// resolution.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Workload kind names accepted by the server.
const (
	KindMix   = "mix"
	KindServe = "serve"
	KindCost  = "cost"
	KindAlign = "align"
)

// SolveIDHeader is the response header echoing the scheduler-assigned
// solve ID (also in the body) so proxies and access logs can correlate
// requests with server-side traces without parsing bodies.
const SolveIDHeader = "X-Lddp-Solve-Id"

// CacheHeader is the response header reporting the result-cache outcome
// of a 200: "hit", "miss", or "bypass" (lookup skipped on request).
const CacheHeader = "X-Lddp-Cache"

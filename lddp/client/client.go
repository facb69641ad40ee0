// Package client is the Go client of the lddpd network solve service
// (cmd/lddpd): POST /v1/solve and the band-solve peer protocol, context
// support, and retry with exponential backoff + jitter that honors the
// server's Retry-After pushback. The wire protocol is documented in
// DESIGN.md §10–§12; the request and response documents live in
// repro/lddp/api, the neutral contract package this package and
// internal/server both depend on.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/wire"
	"repro/lddp"
	"repro/lddp/api"
)

// Sentinel errors matching the server's status mapping; match them with
// errors.Is against any error a Client method returns. The concrete type
// carrying the details is *APIError.
var (
	// ErrOverloaded: HTTP 429 — the in-flight limiter or admission queue
	// refused the solve. Retryable; the server suggests when.
	ErrOverloaded = errors.New("lddp client: server overloaded")
	// ErrUnavailable: HTTP 503 — the server is draining or its scheduler
	// is closed. Retryable against a replica; this instance is going away.
	ErrUnavailable = errors.New("lddp client: server unavailable")
	// ErrTimeout: HTTP 408 (deadline expired server-side) or 499 (the
	// request was abandoned mid-solve). Not retried — the deadline was the
	// caller's budget.
	ErrTimeout = errors.New("lddp client: solve timed out")
	// ErrInvalid: any other 4xx — the request itself is wrong and a retry
	// would fail identically.
	ErrInvalid = errors.New("lddp client: invalid request")
)

// APIError is a non-2xx solve response decoded from the server's
// ErrorBody. It unwraps to the matching sentinel (ErrOverloaded,
// ErrUnavailable, ErrTimeout, ErrInvalid).
type APIError struct {
	// HTTPStatus is the response status code.
	HTTPStatus int
	// Status is the wire status classifier ("rejected", "draining", ...).
	Status string
	// Message is the server's error text.
	Message string
	// SolveID is the scheduler-assigned solve ID, when one was assigned.
	SolveID int64
	// RetryAfter is the server's pushback hint (zero when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("lddp client: server returned %d (%s): %s", e.HTTPStatus, e.Status, e.Message)
}

// Unwrap maps the HTTP status onto the sentinel errors.
func (e *APIError) Unwrap() error {
	switch e.HTTPStatus {
	case http.StatusTooManyRequests:
		return ErrOverloaded
	case http.StatusServiceUnavailable:
		return ErrUnavailable
	case http.StatusRequestTimeout, 499:
		return ErrTimeout
	default:
		if e.HTTPStatus >= 400 && e.HTTPStatus < 500 {
			return ErrInvalid
		}
		return nil
	}
}

// retryable reports whether a retry could succeed: admission pushback
// can clear; everything else returns the same answer again.
func (e *APIError) retryable() bool {
	return e.HTTPStatus == http.StatusTooManyRequests || e.HTTPStatus == http.StatusServiceUnavailable
}

// Client talks to one lddpd server. It is safe for concurrent use; the
// zero value is not usable — construct with New.
type Client struct {
	base         string
	hc           *http.Client
	policy       RetryPolicy
	codec        Codec
	cacheControl string

	ownTransport *http.Transport // closed by Close when the client made it

	jitterMu sync.Mutex
	jitter   func() float64
	sleep    func(context.Context, time.Duration) error
}

// Option configures New.
type Option func(*Client)

// WithHTTPClient supplies the underlying HTTP client (connection pool,
// TLS, proxies). Without it the Client builds its own from a clone of
// http.DefaultTransport, which Close releases.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithTransport supplies the underlying HTTP transport while keeping
// the client's own defaults for everything else — the seam the
// scenario engine (internal/sim) uses to wrap delays, drops and
// truncations around real exchanges. The later of WithTransport and
// WithHTTPClient wins; Close never touches a supplied transport.
func WithTransport(rt http.RoundTripper) Option {
	return func(c *Client) { c.hc = &http.Client{Transport: rt} }
}

// WithRetry sets the retry policy; zero fields select the defaults.
// RetryPolicy{MaxAttempts: 1} disables retries entirely.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.policy = p }
}

// WithJitterSource replaces the backoff jitter source with rnd (must
// return values in [0, 1)); for deterministic tests.
func WithJitterSource(rnd func() float64) Option {
	return func(c *Client) { c.jitter = rnd }
}

// New returns a Client for the server at base (e.g. "http://host:8080").
func New(base string, opts ...Option) (*Client, error) {
	base = strings.TrimRight(base, "/")
	if base == "" || (!strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://")) {
		return nil, fmt.Errorf("lddp client: base URL %q must be http(s)://host[:port]", base)
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	c := &Client{
		base:   base,
		policy: DefaultRetryPolicy,
		jitter: rng.Float64,
		sleep:  sleepCtx,
	}
	for _, o := range opts {
		o(c)
	}
	c.policy = c.policy.withDefaults()
	if c.hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		// The client talks to exactly one host; the transport default of 2
		// idle connections per host makes every concurrent batch beyond 2
		// redial, which dominates small-solve latency and allocations.
		tr.MaxIdleConnsPerHost = tr.MaxIdleConns
		c.ownTransport = tr
		c.hc = &http.Client{Transport: tr}
	}
	return c, nil
}

// Close releases the client's own connection pool (a no-op when the
// transport was supplied via WithHTTPClient).
func (c *Client) Close() {
	if c.ownTransport != nil {
		c.ownTransport.CloseIdleConnections()
	}
}

// rnd draws one jitter sample; the lock keeps the default math/rand
// source safe under concurrent Solve calls.
func (c *Client) rnd() float64 {
	c.jitterMu.Lock()
	defer c.jitterMu.Unlock()
	return c.jitter()
}

// sleepCtx sleeps for d or until the context ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-t.C:
		return nil
	}
}

// Solve submits one solve request and returns the decoded response. On
// 429/503 (and transport errors) it retries under the client's
// RetryPolicy, honoring the server's Retry-After over its own backoff;
// when the budget is exhausted the last typed error is returned. All
// other non-2xx responses return a *APIError immediately.
//
// The request travels under the client's codec (WithCodec); responses
// are decoded by their Content-Type, so a JSON answer from a
// binary-negotiating exchange still decodes. A binary response frame in
// a version this client does not speak fails with ErrWireVersion.
func (c *Client) Solve(ctx context.Context, req *api.SolveRequest) (*api.SolveResponse, error) {
	if req == nil {
		return nil, fmt.Errorf("lddp client: nil request")
	}
	buf, err := c.encode(req, func() any {
		// The frame header omits the inline cells, which travel in the
		// cell section.
		hdr := *req
		hdr.Workload.Cells = nil
		return &hdr
	}, req.Workload.Cells, nil)
	if err != nil {
		return nil, err
	}
	var resp *api.SolveResponse
	err = c.post(ctx, "/v1/solve", c.cacheControl, buf, func(hresp *http.Response) error {
		out := new(api.SolveResponse)
		resp = out
		// A frame's cell section is capped at the request's own rows x
		// cols, which the client can trust unlike the header, and lands
		// in one buffer, allocated only if the frame carries cells.
		var flat []int64
		_, err := decodeResult(hresp, out, func() error {
			if out.Rows != req.Rows || out.Cols != req.Cols {
				return fmt.Errorf("%w: response frame header is %dx%d for a %dx%d request", ErrMismatch, out.Rows, out.Cols, req.Rows, req.Cols)
			}
			return nil
		}, func(d *wire.Decoder) (err error) {
			flat, err = d.CellsSized(req.Rows * req.Cols)
			return err
		})
		switch {
		case err != nil || len(flat) == 0:
		case len(flat) != req.Rows*req.Cols:
			err = fmt.Errorf("lddp client: response frame carries %d cells for a %dx%d table", len(flat), req.Rows, req.Cols)
		default:
			// One flat backing plus row headers: two allocations for the
			// whole table, owned by the caller.
			out.Cells = make([][]int64, req.Rows)
			for i := range out.Cells {
				out.Cells[i] = flat[i*req.Cols : (i+1)*req.Cols]
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// post sends one encoded request to path under the retry policy and
// hands each 200 response to decode. The encoded body lives in a pooled
// buffer for the whole retry loop (every attempt re-reads the same
// bytes). The buffer returns to the pool only after the loop ends AND
// the transport has closed every body reader handed to it — an
// abandoned attempt's write loop can outlive Do on context cancellation
// (see pooledBody). cacheControl, when set, rides every attempt.
func (c *Client) post(ctx context.Context, path, cacheControl string, buf *bytes.Buffer, decode func(*http.Response) error) error {
	body := newPooledBody(buf)
	defer body.release()
	var last error
	for attempt := 0; attempt < c.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			var retryAfter time.Duration
			var apiErr *APIError
			if errors.As(last, &apiErr) {
				retryAfter = apiErr.RetryAfter
			}
			if err := c.sleep(ctx, backoffDelay(c.policy, attempt-1, retryAfter, c.rnd())); err != nil {
				return err
			}
		}
		if last = c.roundTrip(ctx, path, cacheControl, body, decode); last == nil {
			return nil
		}
		var apiErr *APIError
		if errors.As(last, &apiErr) && !apiErr.retryable() {
			return last
		}
		// A version mismatch is deterministic, and a server answering
		// another table or block is broken; retrying resends the same
		// frame at the same server.
		if errors.Is(last, ErrWireVersion) || errors.Is(last, ErrMismatch) || ctx.Err() != nil {
			return last
		}
	}
	return last
}

// roundTrip performs one POST attempt of body to path.
func (c *Client) roundTrip(ctx context.Context, path, cacheControl string, body *pooledBody, decode func(*http.Response) error) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, nil)
	if err != nil {
		return err
	}
	// Hand the transport a refcounted reader (it closes every request
	// body, even on error/cancel paths) so the pooled bytes stay alive
	// until the write loop is truly done with them. ContentLength and
	// GetBody match what NewRequest derives for a *bytes.Reader.
	hreq.Body = body.reader()
	hreq.ContentLength = int64(body.len())
	hreq.GetBody = func() (io.ReadCloser, error) { return body.reader(), nil }
	hreq.Header.Set("Content-Type", c.contentType())
	hreq.Header.Set("Accept", c.accept())
	if cacheControl != "" {
		hreq.Header.Set("Cache-Control", cacheControl)
	}
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("lddp client: %w", err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return decodeError(hresp)
	}
	return decode(hresp)
}

// decodeError builds the *APIError of a non-2xx response, surviving
// non-JSON bodies (proxies, panics) with the raw text as the message.
func decodeError(hresp *http.Response) *APIError {
	apiErr := &APIError{HTTPStatus: hresp.StatusCode, Status: "error"}
	raw, _ := io.ReadAll(io.LimitReader(hresp.Body, 1<<20))
	var body api.ErrorBody
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		apiErr.Status = body.Status
		apiErr.Message = body.Error
		apiErr.SolveID = body.ID
		apiErr.RetryAfter = time.Duration(body.RetryAfterMS) * time.Millisecond
	} else {
		apiErr.Message = strings.TrimSpace(string(raw))
	}
	// The header is coarser (whole seconds) but authoritative when the
	// body carried no hint.
	if apiErr.RetryAfter <= 0 {
		if s, err := strconv.Atoi(hresp.Header.Get("Retry-After")); err == nil && s > 0 {
			apiErr.RetryAfter = time.Duration(s) * time.Second
		}
	}
	return apiErr
}

// Health reports whether the server process is up (GET /v1/healthz).
func (c *Client) Health(ctx context.Context) error {
	return c.getOK(ctx, "/v1/healthz")
}

// Ready reports whether the server is accepting solves (GET /v1/readyz);
// a draining server returns ErrUnavailable.
func (c *Client) Ready(ctx context.Context) error {
	return c.getOK(ctx, "/v1/readyz")
}

// Metrics fetches the server's metrics snapshot (GET /v1/metrics), its
// body read up to 16 MiB.
func (c *Client) Metrics(ctx context.Context) (*lddp.MetricsSnapshot, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("lddp client: %w", err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return nil, decodeError(hresp)
	}
	var snap lddp.MetricsSnapshot
	if err := json.NewDecoder(io.LimitReader(hresp.Body, 16<<20)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("lddp client: decoding /v1/metrics: %w", err)
	}
	return &snap, nil
}

// Base returns the client's base URL — fleet-side observability labels
// nodes with it (trace process lanes, relocation logs).
func (c *Client) Base() string { return c.base }

func (c *Client) getOK(ctx context.Context, path string) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("lddp client: %w", err)
	}
	defer hresp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(hresp.Body, 4096))
	if hresp.StatusCode != http.StatusOK {
		return &APIError{HTTPStatus: hresp.StatusCode, Status: "error", Message: path + " returned " + hresp.Status}
	}
	return nil
}

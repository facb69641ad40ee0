package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
	"repro/lddp/api"
)

// spanLog keeps a traced run's spans in memory; write exports them at
// the end as Chrome trace-event JSON through internal/trace, the format
// cmd/lddptrace and Perfetto read. Each layer has its own lane. A
// carries the ID the spans of one request share (the echoed
// X-Lddp-Solve-Id, or the op number where no request crosses the wire),
// B the cells the span covers. A nil *spanLog records nothing.
type spanLog struct {
	mu     sync.Mutex
	epoch  time.Time
	lanes  []string
	events []trace.Event
}

func newSpanLog(lanes ...string) *spanLog {
	return &spanLog{epoch: time.Now(), lanes: lanes}
}

// add records one span; label must be a constant string (trace.Event
// stores it without copying).
func (l *spanLog) add(lane int, label string, id, cells int64, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, trace.Event{
		TS: start.Sub(l.epoch).Nanoseconds(), Dur: end.Sub(start).Nanoseconds(),
		A: id, B: cells, Worker: int32(lane), Kind: trace.KindPhase, Label: label,
	})
	l.mu.Unlock()
}

// write exports the spans to path, creating its directory.
func (l *spanLog) write(path, solver string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	l.mu.Lock()
	events := append([]trace.Event(nil), l.events...)
	l.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	meta := trace.Meta{
		Solver: solver, Clock: "wall", Workers: len(l.lanes), Lanes: l.lanes,
		EpochUnixNS: l.epoch.UnixNano(),
	}
	w := bufio.NewWriter(f)
	if err := trace.WriteChromeEvents(w, meta, events); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(events), path)
	return nil
}

// opTrace collects the HTTP exchanges one traced operation makes. A
// fleet solve issues block requests from one goroutine per band, hence
// the lock.
type opTrace struct {
	mu    sync.Mutex
	trips []trip
}

// trip is one HTTP exchange as the benchmark's transport saw it, from
// RoundTrip to the client closing the response body.
type trip struct {
	seq        int64 // joins the exchange to its handler span
	node       int
	start, end time.Time
	solveID    int64 // 0 when the transport failed
}

func (o *opTrace) add(t trip) {
	o.mu.Lock()
	o.trips = append(o.trips, t)
	o.mu.Unlock()
}

// snapshot returns the exchanges recorded so far, in start order.
func (o *opTrace) snapshot() []trip {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := append([]trip(nil), o.trips...)
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

type opTraceKey struct{}

// withOpTrace marks ctx so the benchmark's transport traces the
// exchanges made under it.
func withOpTrace(ctx context.Context, t *opTrace) context.Context {
	return context.WithValue(ctx, opTraceKey{}, t)
}

// seqHeader carries the benchmark's exchange number from its transport
// to its handler wrapper, so the two spans of one exchange join.
const seqHeader = "X-Perfbench-Seq"

// tracingTransport is the client-side seam (client.WithTransport): for
// requests made under withOpTrace it numbers the exchange, times it, and
// optionally keeps a copy of the request body; other requests pass
// straight through.
type tracingTransport struct {
	base   http.RoundTripper
	node   int
	seq    *atomic.Int64 // shared by every transport of a run
	bodies *bodyRecorder // nil unless the run replays request bodies
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ot, _ := req.Context().Value(opTraceKey{}).(*opTrace)
	if ot == nil {
		return t.base.RoundTrip(req)
	}
	seq := t.seq.Add(1)
	if t.bodies != nil {
		t.bodies.record(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		ot.add(trip{seq: seq, node: t.node, start: start, end: time.Now()})
		return nil, err
	}
	id, _ := strconv.ParseInt(resp.Header.Get(api.SolveIDHeader), 10, 64)
	resp.Body = &closeHook{ReadCloser: resp.Body, hook: func() {
		ot.add(trip{seq: seq, node: t.node, start: start, end: time.Now(), solveID: id})
	}}
	return resp, nil
}

// closeHook runs hook once, when the body is first closed.
type closeHook struct {
	io.ReadCloser
	once sync.Once
	hook func()
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(c.hook)
	return err
}

// handlerSpan is one traced exchange as a node's handler served it.
type handlerSpan struct {
	node       int
	start, end time.Time
}

// handlerLog is the server-side seam: a wrapper around a node's
// Handler() that times every exchange the tracing transport numbered.
type handlerLog struct {
	mu    sync.Mutex
	spans map[int64]handlerSpan
}

func newHandlerLog() *handlerLog { return &handlerLog{spans: map[int64]handlerSpan{}} }

func (h *handlerLog) wrap(node int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		h.mu.Lock()
		h.spans[seq] = handlerSpan{node: node, start: start, end: end}
		h.mu.Unlock()
	})
}

func (h *handlerLog) get(seq int64) (handlerSpan, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.spans[seq]
	return s, ok
}

// bodyRecorder keeps copies of the first few traced request bodies of
// each codec, which the serve workload replays through the server's
// public stage functions after its window.
type bodyRecorder struct {
	mu     sync.Mutex
	limit  int
	json   [][]byte
	binary [][]byte
}

func (b *bodyRecorder) record(req *http.Request) {
	binary := req.Header.Get("Content-Type") == wire.MediaType
	b.mu.Lock()
	full := (binary && len(b.binary) >= b.limit) || (!binary && len(b.json) >= b.limit)
	b.mu.Unlock()
	if full || req.GetBody == nil {
		return
	}
	// GetBody hands out a second reader over the client's encoded body;
	// the one the transport sends is left untouched.
	rc, err := req.GetBody()
	if err != nil {
		return
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return
	}
	b.mu.Lock()
	switch {
	case binary && len(b.binary) < b.limit:
		b.binary = append(b.binary, data)
	case !binary && len(b.json) < b.limit:
		b.json = append(b.json, data)
	}
	b.mu.Unlock()
}

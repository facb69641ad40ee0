// The in-process fleet: each node is the real lddpd serving stack —
// internal/server behind a real TCP listener and http.Server — so the
// scenario engine exercises the same admission limiter, drain sequence,
// codec negotiation, cache and trace plumbing production runs. Kill
// closes the HTTP server out from under live connections; drain runs
// the documented readiness-first sequence.
package sim

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// gate is the deterministic admission-saturation device behind OpArm:
// while armed, the first `holds` non-band solves that clear the
// in-flight limiter park inside the handler until release, keeping the
// limiter pinned full so concurrent solves meet honest 429s.
type gate struct {
	mu     sync.Mutex
	armed  chan struct{} // closed on release; nil when disarmed
	holds  int
	timer  *time.Timer
	parked sync.WaitGroup
	parks  atomic.Int64
}

// gateSafety bounds a park even if release never comes (engine bug,
// aborted run): a stuck gate must degrade to slow solves, not a hang.
const gateSafety = 2 * time.Second

// arm admits the next `holds` solves into a parked state for up to
// holdFor, then self-releases.
func (g *gate) arm(holds int, holdFor time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.releaseLocked()
	g.armed = make(chan struct{})
	g.holds = holds
	ch := g.armed
	g.timer = time.AfterFunc(holdFor, func() { g.releaseCh(ch) })
}

// admitted is the server hook body: park if armed and holds remain.
func (g *gate) admitted(band bool) {
	if band {
		// Fleet band solves pass: the saturation scenario targets the
		// direct-solve path, and a parked band would count relocations
		// against the wrong cause.
		return
	}
	g.mu.Lock()
	if g.armed == nil || g.holds <= 0 {
		g.mu.Unlock()
		return
	}
	g.holds--
	ch := g.armed
	g.parked.Add(1)
	g.parks.Add(1)
	g.mu.Unlock()
	t := time.NewTimer(gateSafety)
	defer t.Stop()
	defer g.parked.Done()
	select {
	case <-ch:
	case <-t.C:
	}
}

func (g *gate) releaseCh(ch chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.armed == ch {
		g.releaseLocked()
	}
}

// release disarms immediately and unparks everything.
func (g *gate) release() {
	g.mu.Lock()
	g.releaseLocked()
	g.mu.Unlock()
	g.parked.Wait()
}

func (g *gate) releaseLocked() {
	if g.armed != nil {
		close(g.armed)
		g.armed = nil
	}
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	g.holds = 0
}

// node is one booted lddpd stack.
type node struct {
	idx  int
	srv  *server.Server
	hs   *http.Server
	addr string // host:port the listener bound
	gate *gate

	killed  atomic.Bool
	drained atomic.Bool
	// killedAt orders kill completion against fleet dispatches for the
	// relocation invariant (nanoseconds since run start; 0 = alive).
	killedAt atomic.Int64

	serveErr chan error
}

func (n *node) base() string { return "http://" + n.addr }

// cluster owns the run's nodes and their teardown.
type cluster struct {
	nodes []*node
	t0    time.Time
}

// bootCluster starts s.Nodes real serving stacks on loopback. traceDir
// gives each node its own trace directory (node-<i> subdirectories), so
// every node traces and its band responses carry block traces for the
// coordinator to stitch.
func bootCluster(s *Schedule, traceDir string) (*cluster, error) {
	c := &cluster{t0: time.Now()}
	for i := 0; i < s.Nodes; i++ {
		g := &gate{}
		if err := os.MkdirAll(filepath.Join(traceDir, fmt.Sprintf("node-%d", i)), 0o755); err != nil {
			c.shutdown(nil)
			return nil, err
		}
		cfg := server.Config{
			Workers:     s.Workers,
			MaxInflight: s.MaxInflight,
			RetryAfter:  time.Duration(s.RetryAfterMS) * time.Millisecond,
			TraceDir:    filepath.Join(traceDir, fmt.Sprintf("node-%d", i)),
			Hooks:       server.Hooks{OnSolveAdmitted: g.admitted},
			// Killed connections and canceled clients make response
			// writes fail by design here; the default logger would spray
			// that expected fallout over the scenario report.
			ErrorLog: log.New(io.Discard, "", 0),
		}
		srv, err := server.New(cfg)
		if err != nil {
			c.shutdown(nil)
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			c.shutdown(nil)
			return nil, err
		}
		n := &node{
			idx: i, srv: srv, addr: ln.Addr().String(), gate: g,
			hs:       &http.Server{Handler: srv.Handler()},
			serveErr: make(chan error, 1),
		}
		go func() { n.serveErr <- n.hs.Serve(ln) }()
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// sinceStart stamps an event on the cluster clock.
func (c *cluster) sinceStart() int64 { return int64(time.Since(c.t0)) }

// kill closes the node's HTTP server immediately: the listener stops
// accepting and live connections are torn down mid-exchange — the
// crashed-node scenario fleet relocation exists for.
func (c *cluster) kill(i int) {
	n := c.nodes[i]
	if n.killed.Swap(true) {
		return
	}
	n.hs.Close() //nolint:errcheck // teardown path; Serve's return is collected at shutdown
	n.killedAt.Store(c.sinceStart())
}

// drain flips the node into graceful drain (readiness 503s, solves
// refuse) while its listener keeps answering.
func (c *cluster) drain(i int) {
	n := c.nodes[i]
	if n.drained.Swap(true) {
		return
	}
	n.srv.BeginDrain()
}

// firstKillAt returns the earliest kill completion on the cluster
// clock, or 0 when no node was killed.
func (c *cluster) firstKillAt() int64 {
	var first int64
	for _, n := range c.nodes {
		if at := n.killedAt.Load(); at != 0 && (first == 0 || at < first) {
			first = at
		}
	}
	return first
}

// shutdown tears the cluster down in the documented order and checks
// the readiness contract on every live node: readyz must answer 503
// (drain visible) while the listener still accepts, before the listener
// closes. Violations are reported through violate. probe does a plain
// HTTP GET and returns the status (0 on transport failure).
func (c *cluster) shutdown(violate func(string, ...any)) {
	for _, n := range c.nodes {
		n.gate.release()
	}
	for _, n := range c.nodes {
		if n == nil || n.killed.Load() {
			continue
		}
		n.srv.BeginDrain()
		if violate != nil {
			if st := probe(n.base() + "/readyz"); st != http.StatusServiceUnavailable {
				violate("node %d: readyz = %d after BeginDrain with listener open, want 503", n.idx, st)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := n.hs.Shutdown(ctx)
		cancel()
		if err != nil && violate != nil {
			violate("node %d: listener did not drain: %v", n.idx, err)
		}
	}
	for _, n := range c.nodes {
		if n == nil {
			continue
		}
		select {
		case <-n.serveErr:
		case <-time.After(5 * time.Second):
		}
		n.srv.Close()
	}
}

// probe is the raw readiness check (no typed client: the invariant is
// about the HTTP surface itself).
func probe(url string) int {
	cl := &http.Client{Timeout: 2 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	cl.CloseIdleConnections()
	return resp.StatusCode
}

package sim

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// brokenPromNode serves a Prometheus exposition that breaks off
// mid-body: the header promises more bytes than arrive before the
// connection closes, as when a node is killed mid-scrape.
func brokenPromNode(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: 4096\r\n\r\n")
		buf.WriteString("# HELP lddp_solves_total Solves.\n# TYPE lddp_solves_total counter\nlddp_solves_")
		buf.Flush()
	}))
	t.Cleanup(ts.Close)
	return ts
}

// scrapeOnce runs one prom op against ts as node 0 of a one-node
// cluster whose kill is planned or not, and returns its result and the
// violations it raised.
func scrapeOnce(ts *httptest.Server, killed bool) (*opResult, []string) {
	e := &engine{
		cluster:    &cluster{nodes: []*node{{addr: strings.TrimPrefix(ts.URL, "http://")}}},
		scrape:     ts.Client(),
		classes:    map[string]int{},
		planKilled: []bool{killed},
	}
	res := &opResult{op: Op{ID: 7, Kind: OpProm, Node: 0}, done: make(chan struct{})}
	e.runProm(context.Background(), res)
	return res, e.violations
}

// TestPromBrokenBodyFollowsThePlan: a prom scrape whose body breaks off
// mid-read is a transport failure of the op, excused by the schedule
// exactly as a failed Do is: no violation when the node's kill is
// planned, one when nothing planned explains it. A body read in full
// that fails the lint stays a violation, planned kill or not.
func TestPromBrokenBodyFollowsThePlan(t *testing.T) {
	ts := brokenPromNode(t)
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("lddp_undeclared_total 1\n"))
	}))
	defer bad.Close()
	for _, killed := range []bool{true, false} {
		if res, violations := scrapeOnce(bad, killed); res.class != classOK || len(violations) != 1 || !strings.Contains(violations[0], "fails lint") {
			t.Errorf("planned kill %v, full body failing lint: class %q, violations %q; want one lint violation", killed, res.class, violations)
		}
		res, violations := scrapeOnce(ts, killed)
		if res.class != classTransport || res.err == nil {
			t.Errorf("planned kill %v: class %q, err %v; want a transport failure", killed, res.class, res.err)
		}
		switch {
		case killed && len(violations) != 0:
			t.Errorf("planned kill: violations %q, want none", violations)
		case !killed && (len(violations) != 1 || !strings.Contains(violations[0], "unreadable")):
			t.Errorf("unplanned: violations %q, want the unreadable exposition", violations)
		}
	}
}

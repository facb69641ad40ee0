package server

import "repro/lddp"

// AcquireInflightForTest occupies one in-flight limiter slot and returns
// its release, letting tests hit the 429 path deterministically instead
// of racing real solves against the limiter.
func (s *Server) AcquireInflightForTest() func() {
	s.inflight <- struct{}{}
	return func() { <-s.inflight }
}

// SchedulerForTest exposes the server's scheduler, so tests can pin its
// workers and compare its Stats with the /v1/metrics document.
func (s *Server) SchedulerForTest() *lddp.Scheduler { return s.sched }

// ActiveRequestsForTest returns the number of solve requests currently
// being served (admitted past the limiter, response not yet written).
func (s *Server) ActiveRequestsForTest() int { return int(s.active.Load()) }

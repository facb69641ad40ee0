package main

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns the send times, as offsets from the start of
// the window, of a Poisson process of the given rate (per second) over
// [0, window).
func poissonSchedule(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return due
		}
		due = append(due, d)
	}
}

// sendRecord is what the open loop records about one request, as
// offsets from the start of the window.
type sendRecord struct {
	due   time.Duration // when the schedule said to send it
	start time.Duration // when a sender handed it to the client
	end   time.Duration // when the response (or error) came back
	err   error
}

// latency is the request's time from its scheduled send to its
// response: a sender that stalls charges its delay to every request
// queued behind it.
func (r sendRecord) latency() time.Duration { return r.end - r.due }

// lag is how late the generator sent the request.
func (r sendRecord) lag() time.Duration { return r.start - r.due }

// openLoop sends request i at due[i] from `senders` goroutines. Each
// sender takes the next request in schedule order, sleeps until it is
// due, and sends it at once if it is already late; a response never
// gates a later request's due time, only which sender carries it.
// after, when non-nil, runs on the sender once the request's end is
// recorded, for checks that must stay off the clock. openLoop returns
// the records and the instant the offsets count from.
func openLoop(due []time.Duration, senders int, send func(i int) error, after func(i int)) ([]sendRecord, time.Time) {
	out := make([]sendRecord, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if d := due[i] - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start)
				err := send(i)
				out[i] = sendRecord{due: due[i], start: sent, end: time.Since(start), err: err}
				if after != nil {
					after(i)
				}
			}
		}()
	}
	wg.Wait()
	return out, start
}

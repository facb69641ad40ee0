package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/lddp"
	"repro/lddp/api"
)

// Two inputs whose solve times differ tenfold, sampled round-robin: when
// a window ends mid-round their sample counts differ by one, and a median
// over the pooled samples jumps from one input's cluster to the other's.
// The per-input statistic the tables workload reports does not.
func TestPerPatternRateIgnoresClusterFlips(t *testing.T) {
	samples := func(base float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = base * (1 + 0.01*float64(i%3))
		}
		return xs
	}
	a := [][]float64{samples(0.010, 10), samples(0.100, 11)}
	b := [][]float64{samples(0.010, 11), samples(0.100, 10)}
	pooled := func(in [][]float64) float64 { return median(append(append([]float64(nil), in[0]...), in[1]...)) }
	if pa, pb := pooled(a), pooled(b); pa/pb < 5 {
		t.Fatalf("pooled medians %g and %g: want them in different clusters", pa, pb)
	}
	ra, rb := perPatternRate(1e6, a), perPatternRate(1e6, b)
	if math.Abs(ra/rb-1) > 0.01 {
		t.Fatalf("per-pattern rates %g and %g differ by more than 1%%", ra, rb)
	}
	ga, gb := geoMeanOfMedians(a), geoMeanOfMedians(b)
	if math.Abs(ga/gb-1) > 0.01 {
		t.Fatalf("geometric means of medians %g and %g differ by more than 1%%", ga, gb)
	}
}

// The result line must carry exactly the metrics BENCHMARK.json lists,
// in their units: report.print refuses any other set, so a workload that
// missed one would fail every run.
func TestResultMetricsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []metricSpec
		want []struct{ Name, Unit string }
	}{{"end_to_end", endToEndMetrics, manifest.EndToEnd}, {"per_layer", perLayerMetrics, manifest.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", c.what, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i] != (metricSpec{m.Name, m.Unit}) {
				t.Errorf("%s[%d]: %v here, %s (%s) in BENCHMARK.json", c.what, i, c.got[i], m.Name, m.Unit)
			}
		}
	}
}

// A report missing a result metric, or carrying one the list does not
// name, prints no result line.
func TestPrintRefusesAnotherMetricSet(t *testing.T) {
	full := func() *report {
		r := &report{correct: true, attempted: 1}
		for _, m := range perLayerMetrics {
			r.add(m.name, m.unit, 1, 0)
		}
		r.detail("core.solve_ms.async.knight", "ms", 1, 1)
		return r
	}
	var buf bytes.Buffer
	if err := full().print(&buf, perLayerMetrics); err != nil {
		t.Fatalf("full set: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var last struct{ Metrics map[string]any }
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || len(last.Metrics) != len(perLayerMetrics) {
		t.Fatalf("last line %q: err %v, want exactly the %d result metrics", lines[len(lines)-1], err, len(perLayerMetrics))
	}
	short := full()
	short.metrics = short.metrics[1:]
	extra := full()
	extra.add("latency_p90_ms", "ms", 1, 1)
	for name, r := range map[string]*report{"short": short, "extra": extra} {
		buf.Reset()
		if err := r.print(&buf, perLayerMetrics); err == nil || bytes.Contains(buf.Bytes(), []byte(`"metrics"`)) {
			t.Errorf("%s set: err %v, printed %q; want an error and no result line", name, err, buf.String())
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{100, 0.9, true}, {99, 0.9, false},
		{20, 0.5, true},
	} {
		v, err := tailPercentile(xs[:c.n], c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err %v, want ok=%v", c.q*100, c.n, err, c.ok)
		}
		if err == nil {
			if beyond := c.n - int(v); beyond < minBeyond {
				t.Errorf("p%g of %d samples = %g leaves %d beyond it", c.q*100, c.n, v, beyond)
			}
		}
	}
}

// A sender that stalls on one request makes every request queued behind
// it late: their latency, counted from the scheduled send time, and the
// generator's lag both carry the stall. A timer started at the actual
// send would hide it.
func TestOpenLoopCountsFromScheduledSend(t *testing.T) {
	const stall = 60 * time.Millisecond
	due := make([]time.Duration, 12)
	for i := range due {
		due[i] = time.Duration(i) * 2 * time.Millisecond
	}
	recs, _ := openLoop(due, 1, func(i int) error {
		if i == 4 {
			time.Sleep(stall)
		}
		return nil
	}, nil)
	for i := 5; i < 8; i++ {
		r := recs[i]
		if r.latency() < stall/2 || r.lag() < stall/2 {
			t.Errorf("request %d after the stall: latency %v, lag %v; want both above %v", i, r.latency(), r.lag(), stall/2)
		}
		if sendToEnd := r.end - r.start; sendToEnd > stall/4 {
			t.Errorf("request %d: send to response %v, want the stall outside it", i, sendToEnd)
		}
	}
	lags := make([]float64, len(recs))
	for i, r := range recs {
		lags[i] = r.lag().Seconds()
	}
	if maxOf(lags) < (stall / 2).Seconds() {
		t.Errorf("max lag %gs, want above %v", maxOf(lags), stall/2)
	}
}

func TestServePlanIsSeeded(t *testing.T) {
	encode := func(seed uint64) []byte {
		b, err := json.Marshal(newServePlan(seed, 10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(encode(7), encode(7)) {
		t.Fatal("seed 7 gave two different schedules")
	}
	if bytes.Equal(encode(7), encode(8)) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
}

// The serve mix covers what its doc promises: every kind, mask and
// codec, inline costs, returned cells, and repeats both inside and past
// the result cache's reach.
func TestServePlanMix(t *testing.T) {
	p := newServePlan(1, 30*time.Second)
	rate := float64(len(p.Due)) / 30
	if math.Abs(rate/serveRate-1) > 0.1 {
		t.Errorf("offered rate %.1f/s, want about %d/s", rate, serveRate)
	}
	kinds, masks, codecs := map[string]bool{}, map[string]bool{}, map[bool]bool{}
	var repeats, near, far, inline, cells int
	for i, op := range p.Ops {
		kinds[op.Req.Workload.Kind] = true
		codecs[op.Binary] = true
		if op.Req.Mask != "" {
			m, err := lddp.ParseDepMask(op.Req.Mask)
			if err != nil {
				t.Fatal(err)
			}
			masks[m.String()] = true
		}
		if op.Req.Workload.Cells != nil {
			inline++
		}
		if op.Req.ReturnCells {
			cells++
		}
		if side := max(op.Req.Rows, op.Req.Cols); side > serveMaxSide || min(op.Req.Rows, op.Req.Cols) < serveMinSide {
			t.Fatalf("op %d is %dx%d, outside [%d, %d]", i, op.Req.Rows, op.Req.Cols, serveMinSide, serveMaxSide)
		}
		if op.Repeat < 0 {
			continue
		}
		repeats++
		if src := p.Ops[op.Repeat]; src.Req != op.Req || src.Binary != op.Binary || src.Repeat >= 0 {
			t.Fatalf("op %d does not repeat op %d verbatim", i, op.Repeat)
		}
		if i-op.Repeat <= serveNearRepeat {
			near++
		}
		if i-op.Repeat >= serveFarRepeatMin {
			far++
		}
	}
	if len(kinds) != 4 || len(masks) != 15 || len(codecs) != 2 {
		t.Errorf("plan covers %d kinds, %d masks, %d codecs; want 4, 15, 2", len(kinds), len(masks), len(codecs))
	}
	if share := float64(repeats) / float64(len(p.Ops)); math.Abs(share-1.0/serveRepeatEvery) > 0.01 {
		t.Errorf("repeat share %.3f, want 1/%d", share, serveRepeatEvery)
	}
	if near == 0 || far == 0 || inline == 0 || cells == 0 {
		t.Errorf("near repeats %d, far repeats %d, inline payloads %d, return_cells %d: want all present", near, far, inline, cells)
	}
	for _, op := range p.Ops {
		if op.Req.Workload.Kind == api.KindAlign && op.Req.Mask != "" {
			t.Fatalf("align request carries mask %q", op.Req.Mask)
		}
	}
}

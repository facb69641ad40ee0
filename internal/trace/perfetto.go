package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Chrome trace-event export. The emitted document is the JSON Object
// Format of the Chrome trace-event spec — an object with a "traceEvents"
// array — which both chrome://tracing and Perfetto (ui.perfetto.dev)
// load directly. Spans are complete events (ph "X"); every span carries
// its exact nanosecond timestamps in args so ReadChrome can reconstruct
// the original []Event without the microsecond rounding of the ts/dur
// display fields.

// spanEvent is one trace-event record of the recorder export.
type spanEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat,omitempty"`
	Ph   string          `json:"ph"`
	TS   float64         `json:"ts"`
	Dur  float64         `json:"dur,omitempty"`
	PID  int             `json:"pid"`
	TID  int             `json:"tid"`
	S    string          `json:"s,omitempty"`
	Args json.RawMessage `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []spanEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit"`
	OtherData       *Meta       `json:"otherData,omitempty"`
}

// eventArgs carries the lossless event payload inside each span's args.
type eventArgs struct {
	Kind  string `json:"kind"`
	Front int32  `json:"front"`
	A     int64  `json:"a"`
	B     int64  `json:"b"`
	TSNS  int64  `json:"ts_ns"`
	DurNS int64  `json:"dur_ns"`
	Label string `json:"label,omitempty"`
}

// threadNameArgs is the args payload of a thread_name metadata event.
type threadNameArgs struct {
	Name string `json:"name"`
}

// WriteChrome writes the recorder's retained events as Chrome
// trace-event JSON: one Perfetto track per lane, named from Meta.Lanes
// (or "worker N"), plus the solve metadata under otherData.
func WriteChrome(w io.Writer, r *Recorder) error {
	meta := r.Meta()
	meta.Dropped = r.Dropped()
	return writeChromeEvents(w, meta, r.Events())
}

// WriteChromeEvents is WriteChrome over an explicit meta + event list
// (used by tests and by tools that transform events before export).
func WriteChromeEvents(w io.Writer, meta Meta, events []Event) error {
	return writeChromeEvents(w, meta, events)
}

func writeChromeEvents(w io.Writer, meta Meta, events []Event) error {
	doc := chromeTrace{DisplayTimeUnit: "ms", OtherData: &meta}
	lanes := map[int32]bool{}
	for _, e := range events {
		lanes[e.Worker] = true
	}
	for lane := range lanes {
		name := laneName(meta, int(lane))
		args, err := json.Marshal(threadNameArgs{Name: name})
		if err != nil {
			return err
		}
		doc.TraceEvents = append(doc.TraceEvents, spanEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: int(lane), Args: args,
		})
	}
	// Metadata first, then events in timestamp order for streaming
	// consumers; map iteration order of the lane set is irrelevant to
	// Perfetto but sorted events keep the file diffable.
	sortChromeMeta(doc.TraceEvents)
	for _, e := range events {
		args, err := json.Marshal(eventArgs{
			Kind: e.Kind.String(), Front: e.Front, A: e.A, B: e.B,
			TSNS: e.TS, DurNS: e.Dur, Label: e.Label,
		})
		if err != nil {
			return err
		}
		ce := spanEvent{
			Name: eventName(e),
			Cat:  e.Kind.String(),
			Ph:   "X",
			TS:   float64(e.TS) / 1e3,
			Dur:  float64(e.Dur) / 1e3,
			PID:  0,
			TID:  int(e.Worker),
			Args: args,
		}
		if e.Dur == 0 {
			ce.Ph, ce.S = "i", "t"
		}
		doc.TraceEvents = append(doc.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

func sortChromeMeta(evs []spanEvent) {
	// Thread-name metadata sorts by tid for stable output.
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j-1].TID > evs[j].TID; j-- {
			evs[j-1], evs[j] = evs[j], evs[j-1]
		}
	}
}

// laneName resolves the display name of a lane.
func laneName(meta Meta, lane int) string {
	if lane < len(meta.Lanes) && meta.Lanes[lane] != "" {
		return meta.Lanes[lane]
	}
	return "worker " + strconv.Itoa(lane)
}

// eventName is the Perfetto slice title.
func eventName(e Event) string {
	if e.Label != "" {
		return e.Label
	}
	return e.Kind.String()
}

// ReadChrome parses a document written by WriteChrome back into its meta
// and events. Events are reconstructed from the lossless args payloads;
// records without a recognizable kind (e.g. foreign trace events) are
// skipped rather than rejected, so analyzers tolerate hand-edited files.
func ReadChrome(r io.Reader) (Meta, []Event, error) {
	var doc chromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return Meta{}, nil, fmt.Errorf("trace: parsing chrome trace: %w", err)
	}
	var meta Meta
	if doc.OtherData != nil {
		meta = *doc.OtherData
	}
	var events []Event
	for _, ce := range doc.TraceEvents {
		if ce.Ph == "M" || len(ce.Args) == 0 {
			continue
		}
		var args eventArgs
		if err := json.Unmarshal(ce.Args, &args); err != nil {
			continue
		}
		kind, ok := KindFromString(args.Kind)
		if !ok {
			continue
		}
		events = append(events, Event{
			TS: args.TSNS, Dur: args.DurNS, A: args.A, B: args.B,
			Front: args.Front, Worker: int32(ce.TID), Kind: kind, Label: args.Label,
		})
	}
	sortEvents(events)
	return meta, events, nil
}

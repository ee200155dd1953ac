package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/jsonl"
)

// A span covers one call (or one batch of calls) from the benchmark into a
// layer. Span names are "<layer>.<call>"; layer "bench" is the benchmark's
// own work (set-up phases, windows, epochs, events).
type span struct {
	ID     int32  `json:"id"`
	Trace  int32  `json:"trace"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is how many calls the span covers: a batch of packets sent or
	// flows drawn is one span, so tracing never costs a record per packet.
	N int64 `json:"n"`
}

func (s span) dur() int64 { return s.End - s.Start }

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// maxSpans bounds the in-memory span log; spans past it are counted as
// shed instead of recorded.
const maxSpans = 1 << 20

// tracer keeps spans in memory for the whole traced run and writes them out
// at the end. A nil tracer records nothing and costs one nil check per
// call, which is how untraced windows run. Only the driver goroutine
// records, so the tracer takes no locks.
type tracer struct {
	t0    time.Time
	spans []span
	shed  int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (t *tracer) enabled() bool { return t != nil }

// start opens a span under parent (-1 for a root) and returns its id, or -1
// when nothing is recorded.
func (t *tracer) start(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.shed++
		return -1
	}
	id := int32(len(t.spans))
	trace := id
	if parent >= 0 {
		trace = t.spans[parent].Trace
	}
	t.spans = append(t.spans, span{ID: id, Trace: trace, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes span id, recording that it covered n calls.
func (t *tracer) end(id int32, n int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].N = int64(n)
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	count int64 // spans
	calls int64 // calls covered (sum of N)
	ns    int64 // summed duration
}

// aggregate sums durations and call counts per span name.
func (t *tracer) aggregate() map[string]spanAgg {
	out := make(map[string]spanAgg)
	for _, s := range t.spans {
		a := out[s.Name]
		a.count++
		a.calls += s.N
		a.ns += s.dur()
		out[s.Name] = a
	}
	return out
}

// selfTimes returns each layer's self time in nanoseconds: the duration of
// its spans minus the part covered by their child spans. The driver
// goroutine is the only recorder, so children never overlap.
func (t *tracer) selfTimes() map[string]int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]int64)
	for i, s := range t.spans {
		out[s.layer()] += s.dur() - child[i]
	}
	return out
}

// write stores the span log as JSONL at path.
func (t *tracer) write(path string) error {
	sink, err := jsonl.Create(path)
	if err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	for _, s := range t.spans {
		if err := sink.Encode(s); err != nil {
			break // retained by the sink; Close reports it
		}
	}
	if err := sink.Close(); err != nil {
		return fmt.Errorf("span log %s: %w", path, err)
	}
	return nil
}

package main

import (
	"sync"
	"time"
)

// span is one call into a layer's public function as the benchmark saw it
// from outside. Spans of one request share Req; Parent names the span one
// depth up the stack (the replay of the same request at that depth).
type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	Req     int     `json:"req"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// recorder keeps spans and counts in memory until the run ends. A nil
// recorder records nothing, which is the untraced run.
type recorder struct {
	mu      sync.Mutex
	parents map[string]string // span name -> the span one layer up
	spans   []span
	counts  map[string]int64
}

func newRecorder(parents map[string]string) *recorder {
	return &recorder{parents: parents, counts: map[string]int64{}}
}

// add records a span of worker w's request seq; offsets are from the
// start of the load it belongs to.
func (r *recorder) add(name string, w, seq int, start, end time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Parent: r.parents[name], Req: seq<<8 | w, StartUS: us(start), EndUS: us(end)})
	r.counts[name]++
	r.mu.Unlock()
}

// budgetRow is one layer of a latency budget: its span per request and
// the part of it no deeper layer accounts for.
type budgetRow struct {
	Layer  string  `json:"layer"`
	Span   string  `json:"span"`
	SpanUS float64 `json:"span_us"`
	SelfUS float64 `json:"self_us"`
}

// budget turns the per-request span of each depth, outermost first, into
// self times: a layer's span minus its child's. A deeper layer measured
// slower than the one above it would make a negative self time; it is
// clamped to zero, which is what the sum check then catches.
func budget(rows []budgetRow) (out []budgetRow, sumFrac float64) {
	var sum float64
	for i := range rows {
		child := 0.0
		if i+1 < len(rows) {
			child = rows[i+1].SpanUS
		}
		rows[i].SelfUS = max(0, rows[i].SpanUS-child)
		sum += rows[i].SelfUS
	}
	if len(rows) > 0 && rows[0].SpanUS > 0 {
		sumFrac = sum / rows[0].SpanUS
	}
	return rows, sumFrac
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names a layer boundary the benchmark times from outside.
type spanKind uint8

const (
	spanStep     spanKind = iota // sim.Engine.Step
	spanEnqueue                  // NIC.Enqueue, through the wrapped send function
	spanSchedule                 // dataplane.Scheduler.Schedule / ScheduleBatch on the NIC
	spanDeliver                  // NIC OnDeliver callback, including tcp.Set
	spanDrop                     // NIC OnDrop callback, including tcp.Set
	spanFacade                   // flowvalve.Scheduler.Schedule
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"sim.Engine.Step", "NIC.Enqueue", "Scheduler.Schedule", "OnDeliver", "OnDrop", "flowvalve.Scheduler.Schedule",
}

// span is one timed call. parent is the index of the enclosing span in
// the same tracer (-1 for a root); n is the decisions the call made.
type span struct {
	Kind   spanKind `json:"-"`
	Parent int32    `json:"parent"`
	N      int32    `json:"n"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
}

// tracer records span trees in memory. Only trees opened by root are
// recorded — the caller samples roots at a fixed rate — and begin/end
// outside a recorded tree cost one branch. A tracer belongs to one
// goroutine.
type tracer struct {
	base    time.Time
	spans   []span // off the Go heap, see offHeap
	stack   []int32
	on      bool
	release func()
}

// treeRoom is the span capacity a tree may need: an event that pumps a
// TCP window sends many packets, each an Enqueue and a Schedule span.
const treeRoom = 4096

// newTracer returns a tracer with room for about limit spans. Call free
// once the spans have been used.
func newTracer(limit int) (*tracer, error) {
	spans, release, err := offHeap[span](limit + treeRoom)
	if err != nil {
		return nil, err
	}
	return &tracer{base: time.Now(), spans: spans, release: release}, nil
}

func (t *tracer) free() {
	t.spans = nil
	t.release()
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// root opens a recorded tree, unless the span budget is spent.
func (t *tracer) root(k spanKind) bool {
	if t == nil || len(t.spans)+treeRoom > cap(t.spans) {
		return false
	}
	t.on = true
	t.push(k)
	return true
}

func (t *tracer) begin(k spanKind) {
	if t != nil && t.on {
		t.push(k)
	}
}

func (t *tracer) push(k spanKind) {
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Kind: k, Parent: parent, N: 1, Start: t.now()})
	t.stack = append(t.stack, int32(len(t.spans)-1))
}

// end closes the innermost open span, recording n decisions on it.
func (t *tracer) end(n int) {
	if t == nil || !t.on {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = t.now()
	t.spans[i].N = int32(n)
	if len(t.stack) == 0 {
		t.on = false
	}
}

// spanStats summarizes one span kind.
type spanStats struct {
	Count    int     `json:"count"`
	Calls    int64   `json:"calls"`
	TotalNs  int64   `json:"total_ns"`
	SelfNs   int64   `json:"self_ns"`
	MeanNs   float64 `json:"mean_ns"`
	PerOpNs  float64 `json:"per_op_ns"`
	SelfMean float64 `json:"self_mean_ns"`
}

// summarize computes per-kind duration and self time (a span's duration
// minus the part its direct children cover) and checks that every span
// is closed, every child lies inside its parent, and siblings do not
// overlap.
func summarize(spans []span) ([numSpanKinds]spanStats, error) {
	var out [numSpanKinds]spanStats
	childNs := make([]int64, len(spans))
	lastChildEnd := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			return out, fmt.Errorf("span %d (%s) ends before it starts", i, spanNames[s.Kind])
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if int(s.Parent) >= i || s.Start < p.Start || s.End > p.End {
				return out, fmt.Errorf("span %d (%s) lies outside its parent %d (%s)",
					i, spanNames[s.Kind], s.Parent, spanNames[p.Kind])
			}
			if s.Start < lastChildEnd[s.Parent] {
				return out, fmt.Errorf("span %d (%s) overlaps its previous sibling", i, spanNames[s.Kind])
			}
			lastChildEnd[s.Parent] = s.End
			childNs[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		st := &out[s.Kind]
		d := s.End - s.Start
		st.Count++
		st.Calls += int64(s.N)
		st.TotalNs += d
		st.SelfNs += d - childNs[i]
	}
	for k := range out {
		st := &out[k]
		st.MeanNs = ratio(float64(st.TotalNs), float64(st.Count))
		st.PerOpNs = ratio(float64(st.TotalNs), float64(st.Calls))
		st.SelfMean = ratio(float64(st.SelfNs), float64(st.Count))
	}
	return out, nil
}

// writeTrace writes the run's span summary and the recorded spans (up
// to maxWritten of them) as one JSON document.
func writeTrace(path string, stats [numSpanKinds]spanStats, spans []span, maxWritten int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type namedSpan struct {
		Name string `json:"name"`
		span
	}
	doc := struct {
		Kinds map[string]spanStats `json:"kinds"`
		Spans []namedSpan          `json:"spans"`
	}{Kinds: make(map[string]spanStats)}
	for k, st := range stats {
		if st.Count > 0 {
			doc.Kinds[spanNames[k]] = st
		}
	}
	if len(spans) > maxWritten {
		spans = spans[:maxWritten]
	}
	for _, s := range spans {
		doc.Spans = append(doc.Spans, namedSpan{spanNames[s.Kind], s})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package main

import (
	"runtime"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark around the call (the program itself carries no spans).
// The layer is the name up to the first dot.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the tracer started
	End    float64 `json:"end_s"`
	// HeapMB is the live heap the call left behind, measured with a
	// forced GC on each side of the call (heap spans only).
	HeapMB float64 `json:"heap_mb,omitempty"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory for one run. Calls are made from the
// benchmark's single driving goroutine, so nesting is a stack. A nil
// *tracer records nothing and adds nothing to the timed calls.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	stack []int
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name,
		Start: time.Since(t.t0).Seconds()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Seconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	id := t.begin(name)
	defer t.end(id)
	return fn()
}

// heap runs fn inside a span and records on it the live heap fn left
// behind: a forced GC before and after the call, outside the span's
// timing, with fn's results still referenced by the caller.
func (t *tracer) heap(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	id := t.begin(name)
	err := fn()
	t.end(id)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	t.spans[id-1].HeapMB = (float64(ms.HeapAlloc) - float64(before)) / (1 << 20)
	return err
}

// total sums the durations of the spans named name.
func (t *tracer) total(name string) float64 {
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	return s
}

// heapTotal sums the heap deltas of the spans named name.
func (t *tracer) heapTotal(name string) float64 {
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.HeapMB
		}
	}
	return s
}

// selfTimes attributes every span's self time — its duration minus the
// time its child spans cover — to the span's layer. Spans of one run
// come from one goroutine, so children never overlap each other.
func selfTimes(spans []span) map[string]float64 {
	child := make(map[int]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		self[s.layer()] += s.End - s.Start - child[s.ID]
	}
	return self
}

// spanCost is what one span adds to a traced call: a begin and an end,
// averaged over many on a scratch tracer.
func spanCost() time.Duration {
	const n = 1 << 16
	t := newTracer("span-cost")
	t.spans = make([]span, 0, n)
	start := time.Now()
	for range n {
		t.end(t.begin("perfbench.span"))
	}
	return time.Since(start) / n
}

// layersOf lists the layers of spans in sorted order.
func layersOf(self map[string]float64) []string {
	out := make([]string, 0, len(self))
	for l := range self {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Package trace records message-level events from workload runs and
// derives the quantities the Message Roofline model plots: message
// sizes, messages per synchronization, sustained bandwidth, and
// per-message latency. Workloads call Record once per application
// message and Sync once per synchronization point; the summary then
// places the workload as a dot on the roofline.
package trace

import (
	"fmt"
	"sort"
	"sync"

	"msgroofline/internal/sim"
)

// Event is one application-level message.
type Event struct {
	Src, Dst int
	Bytes    int64
	Issue    sim.Time // when the sender issued the message
	Deliver  sim.Time // when the last byte (or signal) landed
}

// Latency is the end-to-end time of the message.
func (e Event) Latency() sim.Time { return e.Deliver - e.Issue }

// Recorder accumulates events and synchronization points for one run.
// Record and Sync are called from delivery hooks, which under the
// coupled engine's parallel windows may run on concurrent node-group
// goroutines, so both take a mutex; every derived quantity (Summarize,
// Matrix) is an order-invariant aggregation, so the
// nondeterministic append order never reaches an output. Readers run
// after the simulation joins its workers and need no locking.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	syncs  int
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// pool recycles recorders (and, more importantly, their event buffers)
// across runs: a simulation that traces allocates only while a run's
// message count exceeds every previous run's, then reaches steady
// state at zero allocations per recorded event.
var pool = sync.Pool{New: func() any { return &Recorder{} }}

// Get returns an empty recorder, reusing a pooled event buffer when
// one is available. Pair with Release when the recorder's data has
// been fully consumed.
func Get() *Recorder { return pool.Get().(*Recorder) }

// Release resets r and returns it to the pool. The caller must not
// touch r — or any Events() slice obtained from it — afterwards.
func Release(r *Recorder) {
	if r == nil {
		return
	}
	r.Reset()
	pool.Put(r)
}

// Reset empties the recorder, keeping the event buffer's capacity.
func (r *Recorder) Reset() {
	r.events = r.events[:0]
	r.syncs = 0
}

// Record adds one message event.
func (r *Recorder) Record(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Sync notes one synchronization point (a Waitall, fence, or signal
// wait completing).
func (r *Recorder) Sync() {
	r.mu.Lock()
	r.syncs++
	r.mu.Unlock()
}

// Events returns the recorded events.
func (r *Recorder) Events() []Event { return r.events }

// Syncs returns the number of synchronization points recorded.
func (r *Recorder) Syncs() int { return r.syncs }

// Summary is the roofline-relevant digest of a run.
type Summary struct {
	Messages    int
	Syncs       int
	TotalBytes  int64
	MinBytes    int64
	MaxBytes    int64
	MeanBytes   float64
	MedianBytes float64
	// MsgsPerSync is Messages / Syncs — the roofline's concurrency
	// coordinate (0 when no syncs were recorded).
	MsgsPerSync float64
	// MeanLatency is the mean end-to-end per-message latency.
	MeanLatency sim.Time
	// P99Latency is the 99th-percentile message latency.
	P99Latency sim.Time
	// SustainedGBs is TotalBytes over the supplied elapsed time.
	SustainedGBs float64
}

// Summarize computes a Summary given the run's elapsed simulated time.
func (r *Recorder) Summarize(elapsed sim.Time) Summary {
	s := Summary{Messages: len(r.events), Syncs: r.syncs}
	if len(r.events) == 0 {
		return s
	}
	sizes := make([]int64, 0, len(r.events))
	lats := make([]sim.Time, 0, len(r.events))
	s.MinBytes = r.events[0].Bytes
	for _, e := range r.events {
		s.TotalBytes += e.Bytes
		if e.Bytes < s.MinBytes {
			s.MinBytes = e.Bytes
		}
		if e.Bytes > s.MaxBytes {
			s.MaxBytes = e.Bytes
		}
		sizes = append(sizes, e.Bytes)
		lats = append(lats, e.Latency())
	}
	s.MeanBytes = float64(s.TotalBytes) / float64(len(r.events))
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	mid := len(sizes) / 2
	if len(sizes)%2 == 1 {
		s.MedianBytes = float64(sizes[mid])
	} else {
		s.MedianBytes = float64(sizes[mid-1]+sizes[mid]) / 2
	}
	if r.syncs > 0 {
		s.MsgsPerSync = float64(len(r.events)) / float64(r.syncs)
	}
	var tot sim.Time
	for _, l := range lats {
		tot += l
	}
	s.MeanLatency = tot / sim.Time(len(lats))
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := (99*len(lats) + 99) / 100
	if idx >= len(lats) {
		idx = len(lats) - 1
	}
	s.P99Latency = lats[idx]
	if elapsed > 0 {
		s.SustainedGBs = float64(s.TotalBytes) / elapsed.Seconds() / 1e9
	}
	return s
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("msgs=%d syncs=%d msg/sync=%.1f bytes[min/med/max]=%d/%.0f/%d lat[mean]=%v bw=%.2fGB/s",
		s.Messages, s.Syncs, s.MsgsPerSync, s.MinBytes, s.MedianBytes, s.MaxBytes, s.MeanLatency, s.SustainedGBs)
}

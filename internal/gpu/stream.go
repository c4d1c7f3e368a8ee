// Package gpu models the device side of GPU-initiated communication:
// the stream trigger engine that fires pre-enqueued descriptors once
// their stream dependency completes (stream-triggered MPI). The
// workload kernels (stencil, sptrsv, hashtable) compute their own GPU
// compute time from machine.GPUConfig.
package gpu

import "msgroofline/internal/sim"

// Stream models the device-side trigger engine of stream-triggered
// communication: the host enqueues descriptors ahead of time, and the
// device fires each one when its stream dependency — the previous
// descriptor on the same stream — has completed. Firing costs the
// machine's trigger latency twice over: once between dependency
// resolution and wire entry (the fire delay) and once as the engine's
// occupancy before the next descriptor becomes eligible.
//
// A Stream is pure bookkeeping: it computes and records fire times,
// and the transport schedules the actual network injection at the
// returned time. All state belongs to the owning rank's engine, so a
// Stream needs no locking.
type Stream struct {
	trigger sim.Time
	cursor  sim.Time // completion time of the latest descriptor
	log     []Fire
	// unordered disables the stream-dependency wait: descriptors fire
	// trigger-late after their enqueue regardless of predecessors.
	// This deliberately breaks the ordering contract; it exists so the
	// conformance stream-ordering oracle can prove it catches the
	// violation (see internal/conformance).
	unordered bool
}

// Fire records one descriptor's lifecycle. Times are absolute.
type Fire struct {
	// Enq is when the host enqueued the descriptor.
	Enq sim.Time
	// Ready is when the stream dependency resolved: the completion
	// time of the previous descriptor on this stream (Enq for the
	// first). Recorded even in unordered mode, so an ordering oracle
	// can check At >= Ready without reference to jitter.
	Ready sim.Time
	// At is when the descriptor fired (entered the wire).
	At sim.Time
	// Done is when the trigger engine finished the descriptor and the
	// next one became eligible.
	Done sim.Time
}

// NewStream returns an empty stream with the given trigger latency.
func NewStream(trigger sim.Time) *Stream {
	return &Stream{trigger: trigger}
}

// SetUnordered toggles the deliberate ordering break.
func (s *Stream) SetUnordered(v bool) { s.unordered = v }

// Enqueue records a descriptor enqueued at enq and returns its fire
// time. Ordered semantics: the descriptor becomes ready when its
// predecessor completes, fires one trigger latency after the later of
// ready and enqueue, and holds the engine for another trigger latency.
func (s *Stream) Enqueue(enq sim.Time) sim.Time {
	ready := s.cursor
	if ready < enq {
		ready = enq
	}
	at := ready + s.trigger
	if s.unordered {
		at = enq + s.trigger
	}
	done := at + s.trigger
	if done > s.cursor {
		s.cursor = done
	}
	s.log = append(s.log, Fire{Enq: enq, Ready: ready, At: at, Done: done})
	return at
}

// Count returns how many descriptors have been enqueued.
func (s *Stream) Count() int { return len(s.log) }

// Log returns the recorded descriptor lifecycle, in enqueue order.
func (s *Stream) Log() []Fire { return s.log }

// Digest folds every fire and completion time with the same FNV-style
// fold as sim's event digest, so stream schedules can be certified
// shard- and job-invariant exactly like Result.EventDigest.
func (s *Stream) Digest() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h = (h ^ v) * 1099511628211
	}
	for _, f := range s.log {
		mix(uint64(f.At))
		mix(uint64(f.Done))
	}
	return h
}

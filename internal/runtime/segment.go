package runtime

import (
	"encoding/binary"
	"fmt"
	"sync"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// DeliveryHook observes a delivered message: source and destination
// rank, payload size (including a ridden signal word), the time the
// origin issued it and the time its last byte landed. It runs on the
// destination's engine, so it must be safe under parallel windows.
type DeliveryHook func(src, dst int, bytes int64, issue, deliver sim.Time)

// NoSignal as a put's signal offset means the put carries no signal
// word.
const NoSignal = -1

// Segment is remote-exposed memory, one buffer per rank of a world:
// the single implementation under MPI RMA windows and SHMEM heaps,
// which differ only in the ops a put charges and how it reaches the
// wire. The segment owns bounds checks, payload staging, the landing
// (copy, optional signal word, hook, wake), completion counting,
// atomics and signal waits. A rank's buffer and landed cond are
// touched only by landings on its engine, its origin-side counts only
// by its own puts and their completions.
type Segment struct {
	world *World
	ranks []segRank
	hook  DeliveryHook
}

// segRank is one rank's share of a segment, as target and as origin.
type segRank struct {
	buf    []byte
	landed *sim.Cond // a put landed in buf

	// retired is signaled whenever one of the rank's tracked
	// injections completes; inflight counts them, and toTarget splits
	// the count by target only while it is non-zero (spare recycles
	// the records).
	retired  *sim.Cond
	inflight int
	toTarget map[int]*flights
	spare    []*flights

	puts, atomics int64
}

// flights counts one origin's in-flight injections toward one target.
// Its completion callback is built once per record and records are
// recycled, so retiring an injection allocates nothing.
type flights struct {
	target, n int
	retire    func(at sim.Time)
}

// NewSegment exposes sizes[r] bytes on every rank r of w.
func NewSegment(w *World, sizes []int) (*Segment, error) {
	if len(sizes) != w.Size() {
		return nil, fmt.Errorf("runtime: segment needs %d sizes, got %d", w.Size(), len(sizes))
	}
	s := &Segment{world: w, ranks: make([]segRank, len(sizes))}
	for r, n := range sizes {
		if n < 0 {
			return nil, fmt.Errorf("runtime: rank %d: negative segment size", r)
		}
		eng := w.EngineOf(r)
		s.ranks[r] = segRank{buf: make([]byte, n), landed: sim.NewCond(eng), retired: sim.NewCond(eng),
			toTarget: make(map[int]*flights)}
	}
	return s, nil
}

// SetHook installs the observer of puts landing in this segment. Call
// before the world runs.
func (s *Segment) SetHook(h DeliveryHook) { s.hook = h }

// Size returns the number of ranks the segment spans.
func (s *Segment) Size() int { return len(s.ranks) }

// Local returns rank's exposed memory for direct local access.
func (s *Segment) Local(rank int) []byte { return s.ranks[rank].buf }

// Uint64At reads the little-endian uint64 at off in rank's buffer.
func (s *Segment) Uint64At(rank, off int) uint64 {
	return binary.LittleEndian.Uint64(s.ranks[rank].buf[off : off+8])
}

func (s *Segment) setUint64At(rank, off int, v uint64) {
	binary.LittleEndian.PutUint64(s.ranks[rank].buf[off:off+8], v)
}

// OpStats returns how many puts and atomics rank has issued.
func (s *Segment) OpStats(rank int) (puts, atomics int64) {
	return s.ranks[rank].puts, s.ranks[rank].atomics
}

// InFlight returns how many of rank's tracked injections are in
// flight.
func (s *Segment) InFlight(rank int) int { return s.ranks[rank].inflight }

// check panics unless [off, off+n) lies inside rank's buffer.
func (s *Segment) check(rank, off, n int) {
	if rank < 0 || rank >= len(s.ranks) {
		panic(fmt.Sprintf("runtime: segment access to invalid rank %d", rank))
	}
	if size := len(s.ranks[rank].buf); off < 0 || off+n > size {
		panic(fmt.Sprintf("runtime: segment access [%d, %d) outside rank %d's %d-byte region",
			off, off+n, rank, size))
	}
}

// Put is one validated put, fixed before the caller's transport path
// charges its ops and picks a wire.
type Put struct {
	seg                 *Segment
	origin, target, off int
	data                []byte
	sigOff              int
	sigVal              uint64
}

// NewPut validates a put of data from origin into target's buffer at
// off, followed by the uint64 sigVal at sigOff unless sigOff is
// NoSignal. It panics on an out-of-range target or region.
func (s *Segment) NewPut(origin, target, off int, data []byte, sigOff int, sigVal uint64) Put {
	s.check(target, off, len(data))
	if sigOff != NoSignal {
		s.check(target, sigOff, 8)
	}
	return Put{seg: s, origin: origin, target: target, off: off, data: data, sigOff: sigOff, sigVal: sigVal}
}

// Target returns the destination rank.
func (p Put) Target() int { return p.target }

// Bytes returns the wire size: the payload plus a ridden signal word.
func (p Put) Bytes() int64 {
	if p.sigOff != NoSignal {
		return int64(len(p.data)) + 8
	}
	return int64(len(p.data))
}

// Land counts the put, stages its payload (the caller may reuse data
// afterwards) and returns the delivery callback for the target's
// engine: write the payload, then the signal word, report to the hook
// with the given issue time, and wake the target's waiters.
func (p Put) Land(issue sim.Time) func(at sim.Time) {
	s := p.seg
	s.ranks[p.origin].puts++
	buf := stage(p.data)
	dst := &s.ranks[p.target]
	origin, target, off, sigOff, sigVal, bytes := p.origin, p.target, p.off, p.sigOff, p.sigVal, p.Bytes()
	return func(at sim.Time) {
		if buf != nil {
			copy(dst.buf[off:], *buf)
			if cap(*buf) <= maxPooledStage {
				stagePool.Put(buf)
			}
		}
		if sigOff != NoSignal {
			binary.LittleEndian.PutUint64(dst.buf[sigOff:], sigVal)
		}
		if s.hook != nil {
			s.hook(origin, target, bytes, issue, at)
		}
		dst.landed.Broadcast()
	}
}

// stagePool recycles put staging buffers, slice headers included, so a
// steady-state stage/land cycle allocates nothing. Staging is needed
// because the origin may reuse its buffer before the landing runs; a
// staged buffer is fully consumed by its landing and never read again.
// The pool is concurrency-safe: landings run on the target group's
// engine, which may be another goroutine than the origin's.
var stagePool sync.Pool

// maxPooledStage bounds the buffers the pool keeps: pooled buffers
// outlive their world by up to two GC cycles, which for bandwidth-sized
// payloads is a sweep's whole in-flight volume (1024 x 1 MiB is a GiB).
const maxPooledStage = 64 << 10

// stage copies data into a pooled buffer (nil for an empty payload).
func stage(data []byte) *[]byte {
	if len(data) == 0 {
		return nil
	}
	bp, _ := stagePool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	*bp = append((*bp)[:0], data...)
	return bp
}

// Track counts the put in flight from its origin; see Segment.Track.
func (p Put) Track() func(at sim.Time) { return p.seg.Track(p.origin, p.target) }

// Track counts one injection from origin toward target as in flight
// and returns its completion callback, for origin's engine (the local
// half of Endpoint.Inject).
func (s *Segment) Track(origin, target int) func(at sim.Time) {
	o := &s.ranks[origin]
	f := o.toTarget[target]
	if f == nil {
		if k := len(o.spare); k > 0 {
			f, o.spare = o.spare[k-1], o.spare[:k-1]
		} else {
			f = &flights{}
			f.retire = func(sim.Time) { o.retire(f) }
		}
		f.target = target
		o.toTarget[target] = f
	}
	f.n++
	o.inflight++
	return f.retire
}

// retire completes one of f's injections, detaching f once none is
// left in flight.
func (o *segRank) retire(f *flights) {
	f.n--
	o.inflight--
	if f.n == 0 {
		delete(o.toTarget, f.target)
		o.spare = append(o.spare, f)
	}
	o.retired.Broadcast()
}

// WaitFlushed blocks p until origin's tracked injections to target
// have completed.
func (s *Segment) WaitFlushed(p *sim.Proc, origin, target int) {
	o := &s.ranks[origin]
	o.retired.WaitFor(p, func() bool { return o.toTarget[target] == nil })
}

// WaitQuiet blocks p until all of origin's tracked injections have
// completed.
func (s *Segment) WaitQuiet(p *sim.Proc, origin int) {
	o := &s.ranks[origin]
	o.retired.WaitFor(p, func() bool { return o.inflight == 0 })
}

// WaitAll blocks p until every listed signal word in rank's own
// buffer equals val.
func (s *Segment) WaitAll(p *sim.Proc, rank int, sigOffs []int, val uint64) {
	s.ranks[rank].landed.WaitFor(p, func() bool {
		for _, off := range sigOffs {
			if s.Uint64At(rank, off) != val {
				return false
			}
		}
		return true
	})
}

// WaitAny blocks p until some listed signal word in rank's own buffer
// equals val, and returns its index. mask[i] true skips word i (an
// already consumed arrival); mask may be nil.
func (s *Segment) WaitAny(p *sim.Proc, rank int, sigOffs []int, mask []bool, val uint64) int {
	found := -1
	s.ranks[rank].landed.WaitFor(p, func() bool {
		for i, off := range sigOffs {
			if (mask == nil || !mask[i]) && s.Uint64At(rank, off) == val {
				found = i
				return true
			}
		}
		return false
	})
	return found
}

// CAS is a blocking remote compare-and-swap from origin on the uint64
// at off in target's buffer over Endpoint.RemoteAtomic: if the word
// equals compare it becomes swap, at the remote service instant on the
// target's engine. It returns the value observed before.
func (s *Segment) CAS(p *sim.Proc, tp machine.TransportParams, origin, target, off int, compare, swap uint64) uint64 {
	return s.atomicFrom(origin, target, off).RemoteAtomic(p, tp, target, func() uint64 {
		old := s.Uint64At(target, off)
		if old == compare {
			s.setUint64At(target, off, swap)
		}
		return old
	})
}

// FetchAdd is a blocking remote fetch-and-add from origin on the
// uint64 at off in target's buffer; it returns the previous value.
func (s *Segment) FetchAdd(p *sim.Proc, tp machine.TransportParams, origin, target, off int, delta uint64) uint64 {
	return s.atomicFrom(origin, target, off).RemoteAtomic(p, tp, target, func() uint64 {
		old := s.Uint64At(target, off)
		s.setUint64At(target, off, old+delta)
		return old
	})
}

// atomicFrom validates and counts an atomic, returning the origin's
// endpoint.
func (s *Segment) atomicFrom(origin, target, off int) *Endpoint {
	s.check(target, off, 8)
	s.ranks[origin].atomics++
	return s.world.eps[origin]
}

package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
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
// wire. The segment owns bounds checks, the landing (the payload's one
// copy, optional signal word, hook, wake), completion counting,
// atomics and signal waits. A rank's buffer is allocated on first
// touch, so ranks nothing reads or writes cost no memory. A rank's
// buffer and landed cond are touched only on its engine (landings,
// atomics, its own reads and waits), its origin-side counts only by
// its own puts and their completions.
type Segment struct {
	world *World
	ranks []segRank
	hook  DeliveryHook
	// guard turns on the origin-reuse check (SetOriginGuard).
	guard bool
}

// segRank is one rank's share of a segment, as target and as origin.
type segRank struct {
	size   int
	buf    []byte    // nil until first touch; see mem
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
	s := &Segment{world: w, ranks: make([]segRank, len(sizes)), guard: OriginGuardForced}
	for r, n := range sizes {
		if n < 0 {
			return nil, fmt.Errorf("runtime: rank %d: negative segment size", r)
		}
		eng := w.EngineOf(r)
		s.ranks[r] = segRank{size: n, landed: sim.NewCond(eng), retired: sim.NewCond(eng),
			toTarget: make(map[int]*flights)}
	}
	return s, nil
}

// mem returns the rank's buffer, allocating it zeroed on first touch.
func (r *segRank) mem() []byte {
	if r.buf == nil {
		r.buf = make([]byte, r.size)
	}
	return r.buf
}

// SetHook installs the observer of puts landing in this segment. Call
// before the world runs.
func (s *Segment) SetHook(h DeliveryHook) { s.hook = h }

// Size returns the number of ranks the segment spans.
func (s *Segment) Size() int { return len(s.ranks) }

// SetOriginGuard turns the origin-reuse guard on or off. While it is
// on, each put fingerprints its payload at issue, and its landing
// panics with ErrOriginModified if the origin buffer changed in
// between; a put across node groups is checked again at the barrier
// closing its landing's window (see Put.Land). Race builds keep it on
// whatever the setting (OriginGuardForced). Call before the world
// runs.
func (s *Segment) SetOriginGuard(on bool) { s.guard = on || OriginGuardForced }

// Local returns rank's exposed memory for direct local access.
func (s *Segment) Local(rank int) []byte { return s.ranks[rank].mem() }

// Uint64At reads the little-endian uint64 at off in rank's buffer.
func (s *Segment) Uint64At(rank, off int) uint64 {
	return binary.LittleEndian.Uint64(s.ranks[rank].mem()[off : off+8])
}

func (s *Segment) setUint64At(rank, off int, v uint64) {
	binary.LittleEndian.PutUint64(s.ranks[rank].mem()[off:off+8], v)
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
	if size := s.ranks[rank].size; off < 0 || off+n > size {
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

// Land counts the put and returns the delivery callback for the
// target's engine: copy the payload straight from the origin's data
// into the target's buffer (the put's only copy), then write the
// signal word, report to the hook with the given issue time, and wake
// the target's waiters.
//
// The landing reads data when it runs, so the origin must leave data
// unchanged until the put completes remotely (flush, quiet, fence or
// drain returns, or the target observes the put's signal) — the
// origin-buffer rule of MPI-3 RMA and put_nbi. A local flush does not
// release the buffer early. One rule is stricter than MPI: when origin
// and target sit in different node groups, the landing and the
// origin's completion run at the same simulated instant on different
// engines of one window, so nothing orders the landing's read before
// a write the origin makes right after its flush returns. Such a put's
// buffer may be rewritten only once the origin has heard from the
// target after the landing (say, a message the target sends once it
// has seen the put): a cross-group flight takes at least a lookahead,
// so it arrives in a later window. SetOriginGuard checks both rules.
func (p Put) Land(issue sim.Time) func(at sim.Time) {
	p.seg.ranks[p.origin].puts++
	l, _ := landings.Get().(*landing)
	if l == nil {
		l = new(landing)
		l.fn = l.land
	}
	l.put, l.issue = p, issue
	if p.seg.guard {
		l.sum = fingerprint(p.data)
	}
	return l.fn
}

// landing is one issued put waiting for its delivery. Records are
// recycled through a pool, their callback bound once, so issuing and
// landing a put allocates nothing; the pool is concurrency-safe
// because a landing runs on the target's engine, which may be another
// goroutine than the origin's.
type landing struct {
	put   Put
	issue sim.Time
	sum   uint64 // the payload's fingerprint at issue (guard only)
	fn    func(at sim.Time)
}

var landings sync.Pool

// ErrOriginModified is what the origin-reuse guard panics with when a
// put's origin buffer changed while the put was in flight.
var ErrOriginModified = errors.New("runtime: put origin buffer modified while the put was in flight")

func (l *landing) land(at sim.Time) {
	p, issue := l.put, l.issue
	s := p.seg
	if s.guard {
		p.checkOrigin(l.sum, "")
		if w := s.world; w.GroupOf(p.origin) != w.GroupOf(p.target) {
			// Recheck at the window barrier: a rewrite in this window
			// raced the read above.
			sum := l.sum
			w.eng.Defer(p.target, at, func() { p.checkOrigin(sum, " (in its completion's window)") })
		}
	}
	l.put = Put{} // drop the origin buffer before recycling
	landings.Put(l)
	dst := &s.ranks[p.target]
	buf := dst.mem()
	copy(buf[p.off:], p.data)
	if p.sigOff != NoSignal {
		binary.LittleEndian.PutUint64(buf[p.sigOff:], p.sigVal)
	}
	if s.hook != nil {
		s.hook(p.origin, p.target, p.Bytes(), issue, at)
	}
	dst.landed.Broadcast()
}

// checkOrigin panics with ErrOriginModified unless the origin buffer
// still has the fingerprint sum it had at issue.
func (p Put) checkOrigin(sum uint64, when string) {
	if fingerprint(p.data) != sum {
		panic(fmt.Errorf("%w%s: origin %d, target %d, offset %d, %d bytes",
			ErrOriginModified, when, p.origin, p.target, p.off, len(p.data)))
	}
}

// fingerprint hashes data with the runtime's memory hash, which race
// builds do not instrument byte by byte.
func fingerprint(data []byte) uint64 { return maphash.Bytes(fingerprintSeed, data) }

var fingerprintSeed = maphash.MakeSeed()

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

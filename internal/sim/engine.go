package sim

import (
	"fmt"
	"math"
	"sort"
)

// eventNode is the pooled storage behind a scheduled event. A node
// either carries a callback (fn) or is a pre-bound process wakeup
// (wake); wakeups carry no closure, so the Sleep/Signal hot path
// allocates nothing. Events with equal timestamps fire in the order
// they were scheduled (FIFO), which keeps runs deterministic.
type eventNode struct {
	at   Time
	seq  uint64
	fn   func()
	wake *Proc
}

// heapEnt is one entry of the time-ordered queue. The ordering key
// (at, seq) is stored inline so sift comparisons never chase a node
// pointer, and the slice layout avoids the interface boxing of
// container/heap's Push/Pop.
type heapEnt struct {
	at   Time
	seq  uint64
	slot int32
}

func heapLess(a, b *heapEnt) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// nowEnt is one entry of the same-timestamp FIFO ring. All queued
// entries are scheduled for the current time, so only seq (for
// ordering against equal-time heap entries) and the slot are kept.
type nowEnt struct {
	seq  uint64
	slot int32
}

// Engine is a sequential discrete-event simulator. It is not safe for
// concurrent use from multiple goroutines except through the Proc
// coroutine handshake, which guarantees only one simulated process (or
// the engine itself) runs at any moment.
//
// Internally the pending-event set is split in two: a FIFO "now queue"
// ring buffer for events at the current timestamp (the dominant class:
// Sleep(0), Signal/Broadcast wakeups, Spawn starts and eager-protocol
// deliveries all schedule at delay zero) and an inlined 4-ary min-heap
// keyed on (at, seq) for future events. Event storage is pooled on a
// free list. See DESIGN.md §7 for the invariants.
type Engine struct {
	now      Time
	seq      uint64
	executed uint64
	digest   uint64 // order-sensitive fold of dispatched (at, key) pairs
	maxEv    uint64 // 0 = unlimited
	horizon  Time   // RunBefore bound; handoffs must not dispatch beyond it

	nodes []eventNode // slot-addressed pool
	free  []int32     // free-list stack of recycled slots

	heap []heapEnt // 4-ary min-heap of future events

	nowq    []nowEnt // ring buffer of events at the current time
	nowHead int
	nowLen  int

	turn chan struct{} // procs yield control back on this channel
	live int           // spawned, not yet finished procs

	parkedHead *Proc // intrusive list of cond-parked procs (deadlock reporting)
	parkedN    int

	// perturb, when non-nil, enables the schedule-fuzzing mode of
	// perturb.go: every allocation draws (or replays) one decision
	// that may jitter the firing time and randomize the ordering key.
	// perturbStream is this engine's decision-stream index within the
	// perturbation (node-group index on a coupled world, 0 otherwise);
	// perturbScript/perturbReplay hold the pre-sliced stream script.
	perturb       *Perturbation
	perturbStream int
	perturbScript []PerturbDecision
	perturbReplay bool
	rngState      uint64
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{
		turn:    make(chan struct{}),
		horizon: math.MaxInt64,
		digest:  fnvOffsetBasis,
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events dispatched so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Digest returns the order-sensitive fingerprint of the events
// dispatched so far: each event's (firing time, ordering key) pair is
// folded into an FNV-style hash in dispatch order. Two runs with
// identical schedules produce equal digests; any reordering, jitter,
// or divergent event set changes the value. CoupledEngine.Digest folds
// the per-group digests, and the shard-determinism suite compares it
// to prove engine schedules are invariant under the shard count.
func (e *Engine) Digest() uint64 { return e.digest }

// SetEventLimit installs a safety cap on dispatched events; Run returns
// an error when it is exceeded. Zero (the default) means no limit.
func (e *Engine) SetEventLimit(n uint64) { e.maxEv = n }

// alloc takes a slot from the free list (or grows the pool) and stamps
// it with the scheduling time and the next sequence number. In
// perturbation mode the ordering key's high bits come from the
// per-event decision (randomizing same-timestamp order) and the firing
// time absorbs the decision's jitter.
func (e *Engine) alloc(at Time) int32 {
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.nodes = append(e.nodes, eventNode{})
		slot = int32(len(e.nodes) - 1)
	}
	nd := &e.nodes[slot]
	idx := e.seq
	e.seq++
	key := idx
	if e.perturb != nil {
		if idx > 1<<32-1 {
			panic("sim: perturbation mode supports at most 2^32 events per run")
		}
		d := e.perturbDecision(idx)
		at += d.Jitter
		key = uint64(d.Prio)<<32 | idx
	}
	nd.at = at
	nd.seq = key
	return slot
}

// freeSlot recycles a node, dropping its callback and process
// references so the pool keeps nothing alive.
func (e *Engine) freeSlot(slot int32) {
	nd := &e.nodes[slot]
	nd.fn = nil
	nd.wake = nil
	e.free = append(e.free, slot)
}

// enqueue routes a freshly allocated slot to the now queue (at == now)
// or the heap (at > now). Callers clamp at to >= e.now first. In
// perturbation mode everything goes through the heap: the now-queue
// ring is FIFO by construction, which is exactly the ordering the
// fuzzer must be free to break.
func (e *Engine) enqueue(slot int32) {
	nd := &e.nodes[slot]
	if nd.at <= e.now && e.perturb == nil {
		e.nowPush(nowEnt{seq: nd.seq, slot: slot})
	} else {
		e.heapPush(heapEnt{at: nd.at, seq: nd.seq, slot: slot})
	}
}

// At registers fn to run at absolute time t (clamped to now; an event
// at the current time fires after already-queued events with the same
// timestamp). It returns the time the event will fire, which differs
// from t only under perturbation jitter.
func (e *Engine) At(t Time, fn func()) Time {
	if t < e.now {
		t = e.now
	}
	slot := e.alloc(t)
	nd := &e.nodes[slot]
	nd.fn = fn
	e.enqueue(slot)
	return nd.at
}

// scheduleWake registers a pre-bound wakeup of p after delay: the
// pooled node carries only the *Proc, so the call allocates nothing.
func (e *Engine) scheduleWake(delay Time, p *Proc) {
	if delay < 0 {
		delay = 0
	}
	slot := e.alloc(e.now + delay)
	e.nodes[slot].wake = p
	e.enqueue(slot)
}

// --- now-queue ring buffer ---

func (e *Engine) nowPush(ent nowEnt) {
	if e.nowLen == len(e.nowq) {
		e.nowGrow()
	}
	e.nowq[(e.nowHead+e.nowLen)&(len(e.nowq)-1)] = ent
	e.nowLen++
}

func (e *Engine) nowGrow() {
	if len(e.nowq) == 0 {
		e.nowq = make([]nowEnt, 64)
		return
	}
	grown := make([]nowEnt, 2*len(e.nowq))
	for i := 0; i < e.nowLen; i++ {
		grown[i] = e.nowq[(e.nowHead+i)&(len(e.nowq)-1)]
	}
	e.nowq = grown
	e.nowHead = 0
}

func (e *Engine) nowPop() nowEnt {
	ent := e.nowq[e.nowHead]
	e.nowHead = (e.nowHead + 1) & (len(e.nowq) - 1)
	e.nowLen--
	return ent
}

// --- 4-ary min-heap ---

func (e *Engine) heapPush(ent heapEnt) {
	h := append(e.heap, ent)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !heapLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

func (e *Engine) heapPop() heapEnt {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	e.heap = h
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if heapLess(&h[j], &h[m]) {
				m = j
			}
		}
		if !heapLess(&h[m], &h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// --- dispatch core ---

// peekMin returns the time and slot of the earliest pending event
// without removing it. Clock invariant: every now-queue entry is
// scheduled for exactly e.now (the clock only advances when the now
// queue is empty), and every heap entry has at >= e.now, so the now
// queue wins unless the heap holds an equal-time entry with an earlier
// sequence number.
func (e *Engine) peekMin() (Time, int32, bool) {
	if e.nowLen > 0 {
		q := &e.nowq[e.nowHead]
		if len(e.heap) > 0 {
			if h := &e.heap[0]; h.at == e.now && h.seq < q.seq {
				return h.at, h.slot, true
			}
		}
		return e.now, q.slot, true
	}
	if len(e.heap) > 0 {
		return e.heap[0].at, e.heap[0].slot, true
	}
	return 0, -1, false
}

// popMin removes and returns the slot of the earliest pending event,
// or -1 when none remain.
func (e *Engine) popMin() int32 {
	if e.nowLen > 0 {
		q := &e.nowq[e.nowHead]
		if len(e.heap) > 0 {
			if h := &e.heap[0]; h.at == e.now && h.seq < q.seq {
				return e.heapPop().slot
			}
		}
		return e.nowPop().slot
	}
	if len(e.heap) > 0 {
		return e.heapPop().slot
	}
	return -1
}

// step dispatches the next event. It reports false when the queue is
// empty.
func (e *Engine) step() bool {
	slot := e.popMin()
	if slot < 0 {
		return false
	}
	nd := &e.nodes[slot]
	if nd.at > e.now {
		e.now = nd.at
	}
	e.executed++
	e.digest = mixDigest(mixDigest(e.digest, uint64(nd.at)), nd.seq)
	p, fn := nd.wake, nd.fn
	e.freeSlot(slot)
	if p != nil {
		e.dispatch(p)
	} else {
		fn()
	}
	return true
}

// handoffTarget pops and returns the process behind the globally next
// event when that event is a pre-bound wakeup the parking process may
// execute itself — the direct proc-to-proc handoff fast path (one
// channel handshake per context switch instead of two). It returns nil
// when the next event is a callback (or none exists), when the event
// limit has been reached, or when the wakeup lies beyond the RunBefore
// bound; the engine loop then takes over.
func (e *Engine) handoffTarget() *Proc {
	for {
		if e.maxEv != 0 && e.executed >= e.maxEv {
			return nil
		}
		at, slot, ok := e.peekMin()
		if !ok || at > e.horizon {
			return nil
		}
		p := e.nodes[slot].wake
		if p == nil {
			return nil
		}
		e.popMin()
		if at > e.now {
			e.now = at
		}
		e.executed++
		e.digest = mixDigest(mixDigest(e.digest, uint64(at)), e.nodes[slot].seq)
		e.freeSlot(slot)
		if p.done {
			continue // stale wakeup for a finished process
		}
		return p
	}
}

// Run dispatches events until none remain. It returns a DeadlockError
// if simulated processes are still parked when the queue drains, or an
// event-limit error if the configured cap is exceeded.
func (e *Engine) Run() error {
	for e.step() {
		if e.maxEv != 0 && e.executed > e.maxEv {
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", e.maxEv, e.now)
		}
	}
	if e.parkedN > 0 {
		return e.deadlock()
	}
	return nil
}

// NextAt returns the timestamp of the earliest pending event and
// whether one exists. It does not advance the clock.
func (e *Engine) NextAt() (Time, bool) {
	at, _, ok := e.peekMin()
	return at, ok
}

// RunBefore dispatches every event with timestamp strictly less than
// t. It never advances the clock idly: Now() stays at the last
// dispatched event, so Elapsed-style readings reflect real activity.
// Parked processes are not treated as a deadlock (they may be waiting
// on stimuli another engine will deliver at the next window barrier).
// It is the per-window execution step of the coupled engine
// (coupled.go).
func (e *Engine) RunBefore(t Time) error {
	e.horizon = t - 1
	for {
		// Inlined peekMin bound check: every now-queue entry is at
		// e.now and every heap entry at or after it, so the earliest
		// time is whichever queue is non-empty first.
		var at Time
		if e.nowLen > 0 {
			at = e.now
		} else if len(e.heap) > 0 {
			at = e.heap[0].at
		} else {
			break
		}
		if at >= t {
			break
		}
		e.step()
		if e.maxEv != 0 && e.executed > e.maxEv {
			e.horizon = math.MaxInt64
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", e.maxEv, e.now)
		}
	}
	e.horizon = math.MaxInt64
	return nil
}

// parkedNames appends the names of every cond-parked process to dst
// (used by the coupled engine to aggregate deadlock reports).
func (e *Engine) parkedNames(dst []string) []string {
	for p := e.parkedHead; p != nil; p = p.parkedNext {
		dst = append(dst, p.name)
	}
	return dst
}

// DeadlockError reports simulated processes that can never resume: the
// event queue drained while they were parked on conditions.
type DeadlockError struct {
	Time   Time
	Parked []string // process names, sorted
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v: %d process(es) parked forever: %v",
		d.Time, len(d.Parked), d.Parked)
}

func (e *Engine) deadlock() error {
	names := make([]string, 0, e.parkedN)
	for p := e.parkedHead; p != nil; p = p.parkedNext {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return &DeadlockError{Time: e.now, Parked: names}
}

// addParked links p into the cond-parked list (deadlock accounting).
func (e *Engine) addParked(p *Proc) {
	p.parkedNext = e.parkedHead
	if e.parkedHead != nil {
		e.parkedHead.parkedPrev = p
	}
	e.parkedHead = p
	e.parkedN++
}

// removeParked unlinks p, which must be in the list: a Cond pops each
// waiter exactly once.
func (e *Engine) removeParked(p *Proc) {
	if p.parkedPrev != nil {
		p.parkedPrev.parkedNext = p.parkedNext
	} else {
		e.parkedHead = p.parkedNext
	}
	if p.parkedNext != nil {
		p.parkedNext.parkedPrev = p.parkedPrev
	}
	p.parkedPrev, p.parkedNext = nil, nil
	e.parkedN--
}

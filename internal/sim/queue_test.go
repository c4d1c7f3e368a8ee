package sim

// Tests for the engine's event-queue internals: a property test that
// replays randomized schedules on both the production queue (4-ary
// heap + now-queue ring + pooled nodes) and a reference
// container/heap implementation of the documented semantics, and a
// pool-recycling test.

import (
	"container/heap"
	"testing"
)

// --- reference implementation (the documented (at, seq) FIFO order) ---

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }

type refEngine struct {
	h   refHeap
	now Time
	seq uint64
}

func (r *refEngine) schedule(d Time, fn func()) {
	heap.Push(&r.h, &refEvent{at: r.now + d, seq: r.seq, fn: fn})
	r.seq++
}

func (r *refEngine) run() {
	for r.h.Len() > 0 {
		ev := heap.Pop(&r.h).(*refEvent)
		if ev.at > r.now {
			r.now = ev.at
		}
		ev.fn()
	}
}

// --- schedule-script driver ---

// scheduler abstracts the production engine and the reference so one
// script drives both.
type scheduler interface {
	schedule(d Time, fn func())
	run()
	currentTime() Time
}

type simSched struct{ e *Engine }

func (s simSched) schedule(d Time, fn func()) { s.e.At(s.e.Now()+d, fn) }
func (s simSched) run()                       { _ = s.e.Run() }
func (s simSched) currentTime() Time          { return s.e.Now() }

type refSched struct{ r *refEngine }

func (s refSched) schedule(d Time, fn func()) { s.r.schedule(d, fn) }
func (s refSched) run()                       { s.r.run() }
func (s refSched) currentTime() Time          { return s.r.now }

// mix is a deterministic per-(seed,id,salt) hash so both replicas draw
// identical "random" choices regardless of internal state.
func mix(seed, id, salt int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(id)*0xBF58476D1CE4E5B9 ^ uint64(salt)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return int64(x >> 1)
}

// playScript schedules `roots` root events with pseudorandom delays;
// each fired event may spawn children (recursively, bounded depth,
// many at delay zero to stress the now-queue). Returns the firing
// order of event ids and the final clock.
func playScript(s scheduler, seed int64, roots int) ([]int, Time) {
	var order []int
	nextID := 0
	var spawn func(id, depth int)
	spawn = func(id, depth int) {
		// Half the delays are zero so equal-timestamp FIFO (the
		// now-queue path) is exercised as hard as the time heap.
		delay := Time(0)
		if mix(seed, int64(id), 1)%2 == 0 {
			delay = Time(mix(seed, int64(id), 2) % 40)
		}
		s.schedule(delay, func() {
			order = append(order, id)
			if depth < 4 {
				n := int(mix(seed, int64(id), 3) % 3)
				for k := 0; k < n; k++ {
					cid := nextID
					nextID++
					spawn(cid, depth+1)
				}
			}
		})
	}
	for i := 0; i < roots; i++ {
		cid := nextID
		nextID++
		spawn(cid, 0)
	}
	s.run()
	return order, s.currentTime()
}

func TestQueueMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		gotOrder, gotNow := playScript(simSched{NewEngine()}, seed, 30)
		wantOrder, wantNow := playScript(refSched{&refEngine{}}, seed, 30)
		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotOrder), len(wantOrder))
		}
		for i := range wantOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("seed %d: firing order diverges at %d: engine %v vs reference %v",
					seed, i, gotOrder[i], wantOrder[i])
			}
		}
		if gotNow != wantNow {
			t.Fatalf("seed %d: final clock %v, reference %v", seed, gotNow, wantNow)
		}
	}
}

// --- event-pool recycling ---

// TestPoolSteadyState: a long Sleep/Signal run must keep the node pool
// at its steady-state size (recycling, not growing).
func TestPoolSteadyState(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	const rounds = 10_000
	e.Spawn("pong", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			c.Wait(p)
		}
	})
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			c.Signal()
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(e.nodes); n > 16 {
		t.Fatalf("event pool grew to %d nodes over %d rounds; recycling is broken", n, rounds)
	}
}

// Package mpi provides a simulated Message Passing Interface with the
// two execution models the paper compares:
//
//   - two-sided: tag-matched nonblocking sends and receives
//     (Isend/Irecv/Recv/Wait/Waitall) with an eager protocol and an
//     unexpected-message queue, plus a dissemination Barrier built
//     from real messages so synchronization pays realistic latency;
//   - one-sided (MPI-3 RMA): windows with Put, notified Put,
//     Win_fence, Win_flush, Win_flush_local, Fetch_and_op and
//     Compare_and_swap over runtime.Segment (see rma.go).
//
// All costs (per-op overhead, injection gap, software latency, wire
// time, link contention) come from the machine's calibrated transport
// parameters via internal/runtime; this package only implements
// semantics and charges the costs in the right places.
package mpi

import (
	"fmt"

	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// Wildcards for Recv/Irecv matching.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// internal tags are negative and spaced so user tags (>= 0) never
// collide with barrier traffic. Barrier tags count down from
// barrierTagBase and wrap before reaching the collective tag range
// (collTagBase, coll.go); the wrap is safe because a barrier tag is
// consumed within its own barrier, long before ~16k later barriers
// could reissue it.
const (
	barrierTagBase = -2
	barrierTagSpan = -collTagBase + barrierTagBase - 64
)

// Comm is a communicator spanning every rank of a simulated world.
type Comm struct {
	world  *runtime.World
	two    machine.TransportParams
	one    machine.TransportParams
	has1s  bool
	ntf    machine.TransportParams
	hasNtf bool
	ranks  []*Rank
	// sendHook, when set, observes every user-level two-sided message
	// at delivery time (internal barrier traffic is excluded).
	sendHook runtime.DeliveryHook
	// debugUnordered disables the per-(source, destination) arrival
	// resequencer, exposing raw (possibly fault-reordered) network
	// arrival order to the matching queue. Mutation-testing knob for
	// the conformance harness — never set in real runs.
	debugUnordered bool
}

// SetDebugUnordered turns off non-overtaking resequencing so the
// conformance suite can prove its oracles catch ordering bugs.
func (c *Comm) SetDebugUnordered(v bool) { c.debugUnordered = v }

// SetSendHook installs a hook observing user two-sided messages
// (tag >= 0) at delivery. Call before Launch.
func (c *Comm) SetSendHook(h runtime.DeliveryHook) { c.sendHook = h }

// NewComm builds a communicator with n ranks on the named machine
// configuration. The machine must offer two-sided MPI (CPU machines);
// one-sided operations additionally require the OneSided transport.
func NewComm(cfg *machine.Config, n int) (*Comm, error) {
	return NewCommSharded(cfg, n, 1)
}

// NewCommSharded is NewComm with a -shards worker count for the
// underlying world (see runtime.NewWorldSharded: ranks are grouped by
// fabric node on the coupled conservative-lookahead engine, and
// shards sets how many node groups execute concurrently; results are
// byte-identical at every shard count).
func NewCommSharded(cfg *machine.Config, n, shards int) (*Comm, error) {
	two, ok := cfg.Params(machine.TwoSided)
	if !ok {
		return nil, fmt.Errorf("mpi: machine %s has no two-sided transport", cfg.Name)
	}
	w, err := runtime.NewWorldSharded(cfg, n, shards)
	if err != nil {
		return nil, err
	}
	c := &Comm{world: w, two: two}
	c.one, c.has1s = cfg.Params(machine.OneSided)
	c.ntf, c.hasNtf = cfg.Params(machine.NotifiedAccess)
	for r := 0; r < n; r++ {
		c.ranks = append(c.ranks, &Rank{
			comm:    c,
			id:      r,
			ep:      w.Endpoint(r),
			arrived: sim.NewCond(w.EngineOf(r)),
			peers:   make(map[int]*peer),
		})
	}
	return c, nil
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.ranks) }

// World exposes the underlying simulated world (for stats and
// engine-level inspection).
func (c *Comm) World() *runtime.World { return c.world }

// Digest folds the per-group event-order digests of the underlying
// world into one summary of the run (see runtime.World.Digest).
func (c *Comm) Digest() uint64 { return c.world.Digest() }

// Launch spawns one simulated process per rank running body and
// drives the simulation to completion. It returns the engine error
// (nil, or a deadlock report naming the stuck ranks).
func (c *Comm) Launch(body func(r *Rank)) error {
	for _, r := range c.ranks {
		rank := r
		c.world.Spawn(rank.id, fmt.Sprintf("rank%d", rank.id), func(p *sim.Proc) {
			rank.proc = p
			body(rank)
		})
	}
	return c.world.Run()
}

// Elapsed returns the simulated time consumed so far.
func (c *Comm) Elapsed() sim.Time { return c.world.Elapsed() }

// Rank is one MPI process. All methods must be called from the rank's
// own simulated process (inside the Launch body).
type Rank struct {
	comm *Comm
	id   int
	ep   *runtime.Endpoint
	proc *sim.Proc

	arrived    *sim.Cond   // signaled on message delivery to this rank
	unexpected []*envelope // delivered but unmatched messages, FIFO
	posted     []*Request  // posted receives not yet matched, FIFO

	peers map[int]*peer // resequencer state of each peer talked to

	barrierSeq int
	collSeq    int
}

// peer is the non-overtaking resequencer state toward one peer. MPI
// guarantees messages between one (source, destination) pair match in
// send order; the fault-injected network may deliver them out of order
// (a retransmitted message is legally overtaken). sendSeq numbers
// sends to the peer, recvSeq is the next sequence admitted from it, and
// ooo buffers its early arrivals until the gap fills. A record exists
// only once the rank sent to or heard from the peer, so the state
// grows with peers, not world size. Both halves run on the rank's own
// engine.
type peer struct {
	sendSeq, recvSeq uint64
	ooo              []*envelope
}

// peer returns the resequencer record for rank id, creating it on
// first contact.
func (r *Rank) peer(id int) *peer {
	p := r.peers[id]
	if p == nil {
		p = &peer{}
		r.peers[id] = p
	}
	return p
}

// envelope is a delivered two-sided message awaiting a matching recv.
type envelope struct {
	src, tag int
	seq      uint64 // per-(src, dst) send order, for resequencing
	data     []byte
	at       sim.Time
}

// Rank returns this process's rank id.
func (r *Rank) Rank() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.comm.Size() }

// Proc returns the simulated process driving this rank.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Now returns the current simulated time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Compute blocks the rank for d of local computation.
func (r *Rank) Compute(d sim.Time) { r.proc.Sleep(d) }

// PendingUnexpected returns the number of delivered-but-unmatched
// messages queued at this rank (conformance oracles check it drains).
func (r *Rank) PendingUnexpected() int { return len(r.unexpected) }

// PendingPosted returns the number of posted receives not yet matched.
func (r *Rank) PendingPosted() int { return len(r.posted) }

// PendingOutOfOrder returns the number of arrivals held back by the
// non-overtaking resequencer (always zero on an in-order network).
func (r *Rank) PendingOutOfOrder() int {
	n := 0
	for _, p := range r.peers {
		n += len(p.ooo)
	}
	return n
}

// Barrier synchronizes all ranks with a dissemination barrier built
// from ceil(log2(P)) rounds of real 1-byte messages, so its cost
// scales like log(P) x latency exactly as a software MPI_Barrier does.
func (r *Rank) Barrier() {
	p := r.comm.Size()
	if p == 1 {
		r.ep.ChargeOp(r.proc, r.comm.two)
		return
	}
	seq := r.barrierSeq
	r.barrierSeq++
	round := 0
	for k := 1; k < p; k <<= 1 {
		tag := barrierTagBase - (seq*64+round)%barrierTagSpan
		dst := (r.id + k) % p
		src := (r.id - k + p) % p
		r.Isend(dst, tag, []byte{1})
		r.Recv(src, tag)
		round++
	}
}

// Package runtime glues the simulation layers together: it realizes a
// machine.Instance as a set of communicating endpoints (one per MPI
// rank or SHMEM PE) on the coupled conservative-lookahead engine, and
// provides the primitive cost operations the mpi and shmem layers are
// built from — charging per-op CPU overhead, injecting messages
// through a NIC with a LogGP gap, timing the wire journey on the
// netsim fabric, and round-trip remote atomics.
//
// Per-rank state is rank-confined: a rank's endpoint (NIC channels,
// atomic-unit arbitration), its place's row of wire plans, and
// everything the stacks build on top of it (window memory, CQ
// bookkeeping, PE heaps) live with the rank's node group and are
// touched only from that group's engine.
// Cross-group effects — puts, gets, atomics, signals — arrive as
// events on the owning group's engine, and mutations of shared fabric
// state (link-bandwidth reservations, atomic-unit arbitration, fault
// draws) are deferred to the window barrier where they apply in the
// (at, senderRank<<40|senderCounter) total order (sim.CoupledEngine).
package runtime

import (
	"fmt"
	"time"

	"msgroofline/internal/machine"
	"msgroofline/internal/netsim"
	"msgroofline/internal/sim"
)

// World is one simulated job: a coupled engine (one sequential
// sub-engine per fabric node group), a machine instance, and one
// endpoint per rank.
type World struct {
	Inst *machine.Instance
	eng  *sim.CoupledEngine
	eps  []*Endpoint
	// shards records the -shards request for this world (worker
	// parallelism; clamped by the engine to the node-group count).
	shards int
	// placeOf maps each rank to the dense index of its machine.Place.
	placeOf []int
	// plans caches wire plans by (source place, destination place):
	// every field of a plan depends only on where the two ranks sit.
	// Row plans[p] is allocated on first use and, because all ranks of
	// a place share one node group, is touched only from that group's
	// engine or at a window barrier.
	plans [][]*wirePlan
}

// NewWorld builds a world with `ranks` endpoints on the given machine.
func NewWorld(cfg *machine.Config, ranks int) (*World, error) {
	return NewWorldSharded(cfg, ranks, 1)
}

// NewWorldSharded builds a world with `ranks` endpoints on the
// sharded (coupled conservative-lookahead) engine. Ranks are grouped
// by fabric node — the unit at which delivery is stateless shared
// memory — and each group owns a private sequential sub-engine;
// `shards` sets only how many groups may execute a conservative
// window concurrently (clamped to [1, groups]; <= 0 means 1).
//
// Because the group structure, the window bounds, and the
// (at, senderRank<<40|senderCounter) barrier order are all
// topology-determined, simulated output is byte-identical at every
// -shards value by construction — certified by the per-group
// event-order digests (Digest) — while -shards > 1 buys wall-clock
// parallelism on multi-node machines. There is no sequential fallback
// path: every world, including a single-node one (where the lone
// group degenerates to exact sequential execution), runs on the same
// engine.
func NewWorldSharded(cfg *machine.Config, ranks, shards int) (*World, error) {
	inst, err := cfg.Instantiate(ranks)
	if err != nil {
		return nil, err
	}
	if shards < 1 {
		shards = 1
	}
	if shards > ranks {
		shards = ranks
	}
	placeOf, groupOf, nplaces := placeIndex(inst.Places)
	eng, err := sim.NewCoupled(groupOf, inst.Net.LookaheadBound(), shards)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	w := &World{
		Inst:    inst,
		eng:     eng,
		shards:  shards,
		placeOf: placeOf,
		plans:   make([][]*wirePlan, nplaces),
	}
	channels := 1
	if cfg.GPU != nil {
		channels = cfg.GPU.Channels
	}
	for r := 0; r < ranks; r++ {
		w.eps = append(w.eps, &Endpoint{
			world:    w,
			rank:     r,
			chanFree: make([]sim.Time, channels),
		})
	}
	return w, nil
}

// placeIndex numbers the distinct places and fabric nodes of a
// placement densely, each in order of first appearance over the rank
// sequence. groupOf (the node index) is the engine grouping: same
// group ⟺ same node ⟺ shared-memory delivery, so every cross-group
// flight pays at least one fabric link and the network's
// LookaheadBound is a valid conservative window for it. placeOf keys
// the wire-plan table; a place names one node, so all its ranks share
// one group.
func placeIndex(places []machine.Place) (placeOf, groupOf []int, nplaces int) {
	placeOf = make([]int, len(places))
	groupOf = make([]int, len(places))
	pidx := make(map[machine.Place]int)
	nidx := make(map[string]int)
	for r, p := range places {
		i, ok := pidx[p]
		if !ok {
			i = len(pidx)
			pidx[p] = i
		}
		placeOf[r] = i
		g, ok := nidx[p.Node]
		if !ok {
			g = len(nidx)
			nidx[p.Node] = g
		}
		groupOf[r] = g
	}
	return placeOf, groupOf, len(pidx)
}

// Size returns the number of endpoints (ranks/PEs).
func (w *World) Size() int { return len(w.eps) }

// Shards returns the -shards worker-parallelism recorded for this
// world (the engine clamps the effective worker count to Groups).
func (w *World) Shards() int { return w.shards }

// Groups returns the node-group (sub-engine) count.
func (w *World) Groups() int { return w.eng.Groups() }

// GroupOf returns the node group owning a rank.
func (w *World) GroupOf(rank int) int { return w.eng.GroupOf(rank) }

// Lookahead returns the fabric's conservative lookahead bound: the
// minimum link propagation latency of the instantiated network (0 on
// a single-node world, where no window protocol is needed).
func (w *World) Lookahead() sim.Time { return w.Inst.Net.LookaheadBound() }

// Endpoint returns the endpoint for a rank.
func (w *World) Endpoint(rank int) *Endpoint {
	return w.eps[rank]
}

// EngineOf returns the sequential sub-engine owning a rank. Every
// process and condition variable belonging to the rank must bind to
// it; that confinement is what lets groups execute in parallel.
func (w *World) EngineOf(rank int) *sim.Engine { return w.eng.EngineOf(rank) }

// Spawn starts a process owned by rank on the rank's engine.
func (w *World) Spawn(rank int, name string, fn func(*sim.Proc)) {
	w.eng.EngineOf(rank).Spawn(name, fn)
}

// SetPerturbation installs schedule fuzzing on every group engine
// (stream g for group g; see sim.Perturbation). Call before spawning.
func (w *World) SetPerturbation(p *sim.Perturbation) { w.eng.SetPerturbation(p) }

// SetEventLimit caps total dispatched events across all groups.
func (w *World) SetEventLimit(n uint64) { w.eng.SetEventLimit(n) }

// Run drives the simulation to completion and surfaces deadlocks.
func (w *World) Run() error {
	err := w.eng.Run()
	noteUsage(w)
	return err
}

// Elapsed returns the latest executed-event time across all groups.
func (w *World) Elapsed() sim.Time { return w.eng.Elapsed() }

// Digest folds the per-group event-order digests into one summary of
// the run; equal digests across -shards values certify the worker
// split changed no event order.
func (w *World) Digest() uint64 { return w.eng.Digest() }

// Windows returns how many conservative windows the run executed.
func (w *World) Windows() uint64 { return w.eng.Windows() }

// GroupStats returns per-node-group execution summaries.
func (w *World) GroupStats() []sim.GroupStats { return w.eng.GroupStats() }

// BusyWall reports summed per-group busy time over wall time.
func (w *World) BusyWall(wall time.Duration) float64 { return w.eng.BusyWall(wall) }

// Endpoint is one rank's attachment to the fabric: its placement plus
// a NIC with one or more injection channels, each pacing injections at
// the transport's LogGP gap.
type Endpoint struct {
	world    *World
	rank     int
	chanFree []sim.Time // per-channel earliest next injection
	rr       int        // round-robin cursor for AutoChannel
	// atomicFree serializes remote atomics targeting this endpoint's
	// memory (one at a time at the memory controller). It is mutated
	// only from this endpoint's own engine (owner-computes).
	atomicFree sim.Time
}

// wirePlan is the cached routing decision from one place to another.
type wirePlan struct {
	sameNode    bool
	crossSocket bool
	// direct is the node-to-node route (nil when sameNode): the
	// minimal path plus, under adaptive routing, its precomputed
	// non-minimal alternatives.
	direct      *netsim.Route
	staged      []*netsim.Path // host-staged legs, built on first staged send
	stagedBuilt bool
}

// planTo returns the cached wire plan from ep's place to rank dst's,
// resolving it on first use (topology is static after instantiation),
// so the per-send path does no map probes and no allocation.
func (ep *Endpoint) planTo(dst int) *wirePlan {
	w := ep.world
	src := w.placeOf[ep.rank]
	row := w.plans[src]
	if row == nil {
		row = make([]*wirePlan, len(w.plans))
		w.plans[src] = row
	}
	if pl := row[w.placeOf[dst]]; pl != nil {
		return pl
	}
	inst := w.Inst
	pl := &wirePlan{
		sameNode:    inst.SameNode(ep.rank, dst),
		crossSocket: inst.CrossSocket(ep.rank, dst),
	}
	if !pl.sameNode {
		r, err := inst.Net.RouteTo(inst.Places[ep.rank].Node, inst.Places[dst].Node)
		if err != nil {
			panic(fmt.Sprintf("runtime: %v", err))
		}
		pl.direct = r
	}
	row[w.placeOf[dst]] = pl
	return pl
}

// stagedLegs resolves (once) the device->host, host->host, host->device
// legs of a host-staged transfer toward dst. Legs whose endpoints
// coincide resolve to nil and are skipped at send time. It returns nil
// when either side has no host (the caller falls back to the direct
// route).
func (ep *Endpoint) stagedLegs(pl *wirePlan, dst int) []*netsim.Path {
	if !pl.stagedBuilt {
		pl.stagedBuilt = true
		inst := ep.world.Inst
		srcPlace, dstPlace := inst.Places[ep.rank], inst.Places[dst]
		if srcPlace.Host != "" && dstPlace.Host != "" {
			legs := [][2]string{
				{srcPlace.Node, srcPlace.Host},
				{srcPlace.Host, dstPlace.Host},
				{dstPlace.Host, dstPlace.Node},
			}
			pl.staged = make([]*netsim.Path, len(legs))
			for i, leg := range legs {
				if leg[0] == leg[1] {
					continue
				}
				p, err := inst.Net.PathTo(leg[0], leg[1])
				if err != nil {
					panic(fmt.Sprintf("runtime: %v", err))
				}
				pl.staged[i] = p
			}
		}
	}
	return pl.staged
}

// Rank returns the endpoint's rank id.
func (ep *Endpoint) Rank() int { return ep.rank }

// eng returns the sequential engine owning this endpoint's rank.
func (ep *Endpoint) eng() *sim.Engine { return ep.world.eng.EngineOf(ep.rank) }

// Channels returns the number of NIC injection channels.
func (ep *Endpoint) Channels() int { return len(ep.chanFree) }

// AutoChannel returns the next channel in round-robin order; message
// streams that do not care about placement use it to spread load over
// parallel links.
func (ep *Endpoint) AutoChannel() int {
	c := ep.rr
	ep.rr = (ep.rr + 1) % len(ep.chanFree)
	return c
}

// ChargeOp blocks p for one library-operation overhead.
func (ep *Endpoint) ChargeOp(p *sim.Proc, tp machine.TransportParams) {
	p.Sleep(tp.OpOverhead)
}

// Compute blocks p for d of CPU (or GPU SM) time.
func (ep *Endpoint) Compute(p *sim.Proc, d sim.Time) {
	p.Sleep(d)
}

// Inject sends bytes toward dst on the given channel and schedules
// the delivery callbacks at the arrival time of the last byte. The
// calling process is NOT blocked (nonblocking semantics); callers
// charge op overhead separately via ChargeOp. The injection is paced
// by the transport gap on the chosen channel, then the message takes
// the software pipeline latency plus the fabric (or shared-memory)
// journey.
//
// The two callbacks split the delivery by ownership: `remote` runs on
// dst's engine (mutate target-rank state there — window memory,
// receive queues, signals), `local` runs on the sender's engine at
// the same timestamp (origin-side completion — outstanding-op
// decrements, local conds). Either may be nil. When src and dst share
// a node group both run, remote first, as one event.
//
// Same-node delivery is stateless (latency + memory bandwidth) and is
// scheduled immediately; a cross-node journey reserves fabric link
// bandwidth, so it is deferred to the window barrier where all
// reservations apply in the global (at, sender) order.
func (ep *Endpoint) Inject(tp machine.TransportParams, dst int, bytes int64, ch int, remote, local func(at sim.Time)) {
	if dst < 0 || dst >= ep.world.Size() {
		panic(fmt.Sprintf("runtime: rank %d injecting to invalid destination %d", ep.rank, dst))
	}
	now := ep.eng().Now()
	c := ((ch % len(ep.chanFree)) + len(ep.chanFree)) % len(ep.chanFree)
	start := now
	if ep.chanFree[c] > start {
		start = ep.chanFree[c]
	}
	ep.chanFree[c] = start + tp.Gap

	w := ep.world
	if w.eng.GroupOf(ep.rank) == w.eng.GroupOf(dst) {
		deliver := ep.wireTime(tp, start, dst, bytes, c)
		ep.eng().At(deliver, func() {
			if remote != nil {
				remote(deliver)
			}
			if local != nil {
				local(deliver)
			}
		})
		return
	}
	// Cross-group: the wire journey mutates shared link state, so it
	// is computed at the barrier, in deferred-op total order. The
	// delivery lands at least SoftLatency (>> lookahead) past `start`,
	// so scheduling it onto the target group from the barrier can
	// never violate the window bound.
	me, src := ep.rank, ep
	w.eng.Defer(me, start, func() {
		deliver := src.wireTime(tp, start, dst, bytes, c)
		w.eng.At(dst, deliver, func() {
			if remote != nil {
				remote(deliver)
			}
		})
		if local != nil {
			w.eng.At(me, deliver, func() { local(deliver) })
		}
	})
}

// wireTime computes the arrival time of the last byte at dst for a
// message leaving the NIC at start, using the cached wire plan. The
// same-node path is stateless; cross-node paths reserve link
// bandwidth and must only run from the rank's own engine (same-group
// deliveries) or from a window barrier.
func (ep *Endpoint) wireTime(tp machine.TransportParams, start sim.Time, dst int, bytes int64, ch int) sim.Time {
	inst := ep.world.Inst
	pl := ep.planTo(dst)
	if pl.sameNode {
		// Shared memory: pipeline latency + copy at memory bandwidth.
		return start + tp.SoftLatency + inst.Cfg.MemLatency +
			sim.TransferTime(bytes, inst.Cfg.MemBandwidth)
	}
	lat := tp.SoftLatency
	if tp.CrossSocketExtra > 0 && pl.crossSocket {
		lat += tp.CrossSocketExtra
	}
	t := start + lat
	if tp.HostStaged {
		if legs := ep.stagedLegs(pl, dst); legs != nil {
			// Device -> host copy, host-to-host MPI, host -> device
			// copy: three fabric legs, each reserving its links.
			for _, leg := range legs {
				if leg == nil {
					continue
				}
				t = leg.Transfer(t, bytes, ch)
			}
			return t
		}
	}
	return pl.direct.Transfer(t, bytes, ch)
}

// WireLatency is the zero-contention propagation latency from this
// endpoint to dst: the fabric's base latency, or the shared-memory
// latency when the ranks co-reside. Hardware atomics ride this path
// directly, bypassing the software pipeline latency that full
// messages pay.
func (ep *Endpoint) WireLatency(dst int) sim.Time {
	pl := ep.planTo(dst)
	if pl.sameNode {
		return ep.world.Inst.Cfg.MemLatency
	}
	return pl.direct.BaseLatency()
}

// RemoteAtomic performs a blocking remote atomic against dst: the
// calling process pays one op overhead, a request flight, the remote
// AtomicTime service, and the response flight. apply runs at the
// remote service instant on the target's engine (mutating target
// memory) and its return value is handed back to the caller.
//
// Atomic request/response packets are tiny and bypass the data-path
// gap pacing; hardware atomics ride a dedicated queue. Contention for
// the remote location itself is serialized by atomicFree, mutated
// only on the target's engine (owner-computes), so arbitration order
// is the target group's event order — invariant under the worker
// count. Cross-group flights reserve fabric links at the window
// barrier; the response is scheduled strictly after apply runs, so
// the caller can never observe a result before the remote mutation,
// under any perturbation.
func (ep *Endpoint) RemoteAtomic(p *sim.Proc, tp machine.TransportParams, dst int, apply func() uint64) uint64 {
	ep.ChargeOp(p, tp)
	w := ep.world
	target := w.eps[dst]
	myEng := ep.eng()
	me := ep.rank

	var result uint64
	fired := false
	done := sim.NewCond(myEng)

	service := func(arrive sim.Time, respondFrom func(svcEnd sim.Time)) {
		// Runs on the target's engine: arbitrate the memory unit,
		// apply at the service instant, then launch the response.
		svcStart := arrive
		if target.atomicFree > svcStart {
			svcStart = target.atomicFree
		}
		svcEnd := svcStart + tp.AtomicTime
		target.atomicFree = svcEnd
		w.eng.At(dst, svcEnd, func() {
			result = apply()
			respondFrom(svcEnd)
		})
	}

	if w.eng.GroupOf(me) == w.eng.GroupOf(dst) {
		// Same node group: flights are intra-group (shared memory or
		// same-node fabric), link-stateless or group-owned; run the
		// whole transaction inline on the shared engine.
		arrive := ep.atomicFlight(tp, me, dst, myEng.Now())
		service(arrive, func(svcEnd sim.Time) {
			respond := ep.atomicFlight(tp, dst, me, svcEnd)
			myEng.At(respond, func() {
				fired = true
				done.Broadcast()
			})
		})
	} else {
		req := myEng.Now()
		w.eng.Defer(me, req, func() {
			// Barrier: the request flight reserves links in total order.
			arrive := ep.atomicFlight(tp, me, dst, req)
			w.eng.At(dst, arrive, func() {
				service(arrive, func(svcEnd sim.Time) {
					// Response flight also reserves links: defer it
					// from the service event to the next barrier.
					w.eng.Defer(dst, svcEnd, func() {
						respond := ep.atomicFlight(tp, dst, me, svcEnd)
						w.eng.At(me, respond, func() {
							fired = true
							done.Broadcast()
						})
					})
				})
			})
		})
	}
	done.WaitFor(p, func() bool { return fired })
	return result
}

// atomicFlight times one direction of an atomic transaction from
// rank `from` to rank `to` leaving at `at`. When the transport sets
// AtomicLinkOccupancy, the packet holds each fabric link on the path
// for that long (transaction-rate-limited fabrics); otherwise it
// rides at pure propagation latency.
func (ep *Endpoint) atomicFlight(tp machine.TransportParams, from, to int, at sim.Time) sim.Time {
	src := ep.world.eps[from]
	pl := src.planTo(to)
	if pl.sameNode {
		return at + ep.world.Inst.Cfg.MemLatency
	}
	if tp.AtomicLinkOccupancy > 0 {
		return pl.direct.TransferPacket(at, tp.AtomicLinkOccupancy, src.AutoChannel())
	}
	return at + pl.direct.BaseLatency()
}

package netsim

import (
	"fmt"

	"msgroofline/internal/sim"
)

// Routing selects the network's route-choice policy.
type Routing int

const (
	// RouteMinimal always takes the shortest (fewest-hop) path — the
	// BFS route PathTo resolves. This is the historical behaviour and
	// the default.
	RouteMinimal Routing = iota
	// RouteAdaptive chooses per message between the minimal path and
	// Valiant-style non-minimal detours through registered
	// intermediate nodes, picking the candidate with the lowest
	// congestion-aware cost estimate at injection time (UGAL-lite).
	// The minimal path wins ties, so an idle fabric routes exactly as
	// RouteMinimal does.
	RouteAdaptive
)

// String names the policy as used in figures.
func (r Routing) String() string {
	if r == RouteAdaptive {
		return "adaptive"
	}
	return "minimal"
}

// SetRouting selects the route-choice policy. Call during topology
// construction, before any route resolves.
func (n *Network) SetRouting(r Routing) {
	n.routing = r
}

// AddDetour registers a candidate intermediate node for non-minimal
// (Valiant-style) routes. Topology generators register one detour per
// dragonfly group (a router) so adaptive routes can bounce traffic
// through a lightly-loaded third group. Detours are consulted in
// registration order, which keeps alternative-route construction
// deterministic.
func (n *Network) AddDetour(node string) {
	n.detours = append(n.detours, node)
}

// maxAltsPerRoute caps the non-minimal candidates a route carries;
// evaluating every registered detour per message would make the
// per-send cost scale with the topology, not the path.
const maxAltsPerRoute = 4

// Route is a resolved routing decision between two nodes: the minimal
// path plus (under RouteAdaptive) a bounded set of precomputed
// non-minimal alternatives. Like Path, a Route is shared and
// read-only; per-message state lives entirely in the links.
type Route struct {
	net  *Network
	min  *Path
	alts []*Path
}

// RouteTo resolves (and caches) the Route from src to dst under the
// network's routing policy. Under RouteMinimal (or with no registered
// detours) the Route degenerates to the minimal Path and behaves
// byte-for-byte identically to it. Safe to call concurrently: the
// route is composed from canonical cached paths without holding any
// lock (path resolution synchronizes per path-cache shard on its own),
// then installed in its route shard under a double-check, so parallel
// workers resolving distinct pairs never serialize on a shared mutex.
func (n *Network) RouteTo(src, dst string) (*Route, error) {
	if !n.HasNode(src) {
		return nil, fmt.Errorf("netsim: unknown node %q", src)
	}
	if !n.HasNode(dst) {
		return nil, fmt.Errorf("netsim: unknown node %q", dst)
	}
	key := [2]string{src, dst}
	sh := &n.cache[shardFor(src, dst)]
	sh.mu.RLock()
	r, ok := sh.routes[key]
	sh.mu.RUnlock()
	if ok {
		return r, nil
	}
	min, err := n.PathTo(src, dst)
	if err != nil {
		return nil, err
	}
	r = &Route{net: n, min: min}
	if n.routing == RouteAdaptive && src != dst {
		r.alts = n.buildAlts(src, dst, min)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if q, ok := sh.routes[key]; ok {
		return q, nil // lost a resolve race; the winner is canonical
	}
	sh.routes[key] = r
	return r, nil
}

// buildAlts composes Valiant-style two-leg detour paths src -> via ->
// dst for registered detour nodes, keeping at most maxAltsPerRoute of
// the shortest (ties broken by registration order, so the set is
// deterministic). Detours that coincide with an endpoint, are
// unreachable, or degenerate to the minimal hop count are skipped —
// a "detour" no longer than the minimal path is the minimal path's
// job. The via legs resolve through the sharded path cache (PathTo),
// so building alternatives takes no lock of its own and detour legs
// shared between routes are BFS'd once.
func (n *Network) buildAlts(src, dst string, min *Path) []*Path {
	type cand struct {
		p    *Path
		hops int
	}
	var cands []cand
	for _, via := range n.detours {
		if via == src || via == dst || !n.HasNode(via) {
			continue
		}
		a, err := n.PathTo(src, via)
		if err != nil {
			continue
		}
		b, err := n.PathTo(via, dst)
		if err != nil {
			continue
		}
		hops := a.hops + b.hops
		if hops <= min.hops {
			continue
		}
		p := &Path{net: n}
		p.groups = append(append([]*channelGroup{}, a.groups...), b.groups...)
		p.metrics()
		cands = append(cands, cand{p: p, hops: hops})
	}
	// Stable selection of the shortest candidates: registration order
	// breaks ties because the insertion sort below never swaps equals.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].hops < cands[j-1].hops; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	if len(cands) > maxAltsPerRoute {
		cands = cands[:maxAltsPerRoute]
	}
	alts := make([]*Path, len(cands))
	for i, c := range cands {
		alts[i] = c.p
	}
	return alts
}

// Min returns the minimal path of the route.
func (r *Route) Min() *Path { return r.min }

// Alts returns the precomputed non-minimal alternatives (empty under
// RouteMinimal).
func (r *Route) Alts() []*Path { return r.alts }

// Hops, BaseLatency, PeakBandwidth, AggregateBandwidth and Channels
// describe the minimal path: latency-sensitive queries (lookahead,
// model fitting, atomics) always see minimal-route metrics, because
// detours are taken only under congestion.
func (r *Route) Hops() int                   { return r.min.Hops() }
func (r *Route) BaseLatency() sim.Time       { return r.min.BaseLatency() }
func (r *Route) PeakBandwidth() float64      { return r.min.PeakBandwidth() }
func (r *Route) AggregateBandwidth() float64 { return r.min.AggregateBandwidth() }
func (r *Route) Channels() int               { return r.min.Channels() }

// cost estimates the congestion-aware delivery cost of sending a
// message along p at time at on channel ch: propagation plus per-hop
// store-and-forward serialization plus the queueing delay of each
// hop's chosen link (how far past `at` the link is already booked).
// It reads link state without mutating it.
func pathCost(p *Path, at sim.Time, bytes int64, ch int) sim.Time {
	cost := p.baseLat
	for _, g := range p.groups {
		l := g.links[((ch%len(g.links))+len(g.links))%len(g.links)]
		cost += sim.TransferTime(bytes, l.bw)
		if l.freeAt > at {
			cost += l.freeAt - at
		}
	}
	return cost
}

// Transfer delivers a message along the route: under RouteMinimal (or
// when no alternatives exist) it is exactly the minimal Path's
// Transfer; under RouteAdaptive it first estimates the
// congestion-aware cost of the minimal path and each alternative and
// takes the cheapest, with the minimal path winning ties. The choice
// reads link reservation state, so calls must happen under the same
// deterministic orderings that link mutation requires (owning engine
// or window barrier) — which makes the pick sequence, and therefore
// simulated output, invariant under worker counts.
func (r *Route) Transfer(at sim.Time, bytes int64, ch int) sim.Time {
	if len(r.alts) == 0 {
		return r.min.Transfer(at, bytes, ch)
	}
	best := r.min
	bestCost := pathCost(r.min, at, bytes, ch)
	for _, alt := range r.alts {
		if c := pathCost(alt, at, bytes, ch); c < bestCost {
			best, bestCost = alt, c
		}
	}
	if best == r.min {
		r.net.minPicks++
	} else {
		r.net.altPicks++
	}
	return best.Transfer(at, bytes, ch)
}

// TransferPacket routes a fixed-occupancy packet along the minimal
// path. Atomic transactions are latency-bound request/response pairs;
// bouncing them through detours would only stretch the round trip, so
// adaptive routing applies to bulk transfers, not packets.
func (r *Route) TransferPacket(at, occupancy sim.Time, ch int) sim.Time {
	return r.min.TransferPacket(at, occupancy, ch)
}

// RoutingStats reports how many adaptive transfers took the minimal
// path vs a non-minimal detour. Both are 0 under RouteMinimal (the
// policy never evaluates a choice) and after Reset.
func (n *Network) RoutingStats() (minimal, nonMinimal int64) {
	return n.minPicks, n.altPicks
}

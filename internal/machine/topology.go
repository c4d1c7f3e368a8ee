package machine

import (
	"fmt"

	"msgroofline/internal/netsim"
)

// This file is the declarative topology layer: a machine's fabric is
// data (a Topology spec), not a bespoke build function. The five paper
// machines are Explicit specs listing their handful of links verbatim;
// extreme-scale machines come from the parametric Dragonfly and
// FatTree generators (generate.go), which expand to the same link-list
// form. One generic builder turns any spec into a netsim fabric plus
// rank placements, so node groups, lookahead bounds, and the coupled
// window engine all fall out of the spec with no per-machine wiring.
//
// Builder determinism: links are added in spec order, which fixes
// netsim's adjacency insertion order and therefore its BFS tie-breaks
// — two identical specs always produce byte-identical fabrics and
// routes. The Explicit specs below list links in exactly the order the
// retired per-machine build functions added them, which keeps every
// golden output byte-identical across the refactor.

// LinkSpec declares one bidirectional channel group of the fabric.
type LinkSpec struct {
	// A, B are the endpoint node names.
	A, B string
	// GBs is the per-channel bandwidth in GB/s (1e9 bytes/s).
	GBs float64
	// LatencyNs is the propagation latency in nanoseconds.
	LatencyNs float64
	// Channels is the number of parallel links in the group (>= 1).
	Channels int
	// Class tags the link's topology tier for per-class stats
	// ("intra-router", "local", "global", "edge", ...; "" is fine).
	Class string
}

// Placement maps ranks onto fabric nodes.
type Placement struct {
	// Kind selects the strategy: "block" fills Nodes in order with
	// ceil(ranks/len(Nodes)) ranks each (the MPI default; Socket is
	// the node index), "per-rank" places rank r on Nodes[r] with
	// Sockets[r] and Hosts[r] (GPU machines).
	Kind string
	// Nodes lists the placement targets (see Kind).
	Nodes []string
	// Sockets gives per-rank socket indices (per-rank kind only).
	Sockets []int
	// Hosts gives per-rank host-staging nodes (per-rank kind only;
	// empty means no host staging).
	Hosts []string
}

// Placement kinds.
const (
	PlaceBlock   = "block"
	PlacePerRank = "per-rank"
)

// Explicit is a literal topology: the link list and placement are
// written out in full. The paper's single-node machines use it.
type Explicit struct {
	Links []LinkSpec
	Place Placement
	// Detours lists candidate intermediate nodes for non-minimal
	// adaptive routes (usually empty on explicit machines).
	Detours []string
}

// Topology declares how a machine's fabric is built: exactly one of
// Explicit, Dragonfly, or FatTree must be set. Routing selects the
// netsim route-choice policy ("" or "minimal" for shortest-path,
// "adaptive" for congestion-aware UGAL-lite with Valiant detours).
type Topology struct {
	Explicit  *Explicit
	Dragonfly *Dragonfly
	FatTree   *FatTree
	Routing   string
}

// Routing policy names accepted by Topology.Routing.
const (
	RoutingMinimal  = "minimal"
	RoutingAdaptive = "adaptive"
)

// Validate checks the spec without building it: exactly one generator,
// a known routing policy, and (via the per-spec validators) link
// parameters netsim would reject at build time. Generated topologies
// reach netsim only through here, so netsim's internal panics on
// non-positive bandwidth or channel counts stay programmer-error
// guards rather than reachable input crashes.
func (t *Topology) Validate() error {
	set := 0
	if t.Explicit != nil {
		set++
	}
	if t.Dragonfly != nil {
		set++
	}
	if t.FatTree != nil {
		set++
	}
	if set != 1 {
		return fmt.Errorf("machine: topology must set exactly one of Explicit/Dragonfly/FatTree, got %d", set)
	}
	switch t.Routing {
	case "", RoutingMinimal, RoutingAdaptive:
	default:
		return fmt.Errorf("machine: unknown routing policy %q", t.Routing)
	}
	links, place, _, err := t.expand()
	if err != nil {
		return err
	}
	return validateExpansion(links, place)
}

// expand lowers the spec to the common link-list + placement form.
func (t *Topology) expand() (links []LinkSpec, place Placement, detours []string, err error) {
	switch {
	case t.Explicit != nil:
		return t.Explicit.Links, t.Explicit.Place, t.Explicit.Detours, nil
	case t.Dragonfly != nil:
		return t.Dragonfly.expand()
	case t.FatTree != nil:
		return t.FatTree.expand()
	}
	return nil, Placement{}, nil, fmt.Errorf("machine: empty topology spec")
}

func validateExpansion(links []LinkSpec, place Placement) error {
	for i, l := range links {
		if l.A == "" || l.B == "" || l.A == l.B {
			return fmt.Errorf("machine: link %d: bad endpoints %q-%q", i, l.A, l.B)
		}
		if l.GBs <= 0 {
			return fmt.Errorf("machine: link %d (%s-%s): bandwidth must be positive, got %v GB/s", i, l.A, l.B, l.GBs)
		}
		if l.LatencyNs < 0 {
			return fmt.Errorf("machine: link %d (%s-%s): negative latency %v ns", i, l.A, l.B, l.LatencyNs)
		}
		if l.Channels < 1 {
			return fmt.Errorf("machine: link %d (%s-%s): channels must be >= 1, got %d", i, l.A, l.B, l.Channels)
		}
	}
	switch place.Kind {
	case PlaceBlock:
		if len(place.Nodes) == 0 {
			return fmt.Errorf("machine: block placement needs nodes")
		}
	case PlacePerRank:
		if len(place.Nodes) == 0 {
			return fmt.Errorf("machine: per-rank placement needs nodes")
		}
		if len(place.Sockets) != len(place.Nodes) {
			return fmt.Errorf("machine: per-rank placement: %d sockets for %d nodes", len(place.Sockets), len(place.Nodes))
		}
		if len(place.Hosts) != 0 && len(place.Hosts) != len(place.Nodes) {
			return fmt.Errorf("machine: per-rank placement: %d hosts for %d nodes", len(place.Hosts), len(place.Nodes))
		}
	default:
		return fmt.Errorf("machine: unknown placement kind %q", place.Kind)
	}
	return nil
}

// Build validates the spec and materializes the fabric and the
// placements for `ranks` ranks.
func (t *Topology) Build(ranks int) (*netsim.Network, []Place, error) {
	links, place, detours, err := t.expand()
	if err != nil {
		return nil, nil, err
	}
	if err := validateExpansion(links, place); err != nil {
		return nil, nil, err
	}
	n := netsim.New()
	for _, l := range links {
		n.AddClassLink(l.A, l.B, l.Class, l.GBs*gb, ns(l.LatencyNs), l.Channels)
	}
	if t.Routing == RoutingAdaptive {
		n.SetRouting(netsim.RouteAdaptive)
	}
	for _, d := range detours {
		n.AddDetour(d)
	}
	places, err := place.place(ranks)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range places {
		if !n.HasNode(p.Node) {
			return nil, nil, fmt.Errorf("machine: placement node %q is not in the fabric", p.Node)
		}
		if p.Host != "" && !n.HasNode(p.Host) {
			return nil, nil, fmt.Errorf("machine: placement host %q is not in the fabric", p.Host)
		}
	}
	return n, places, nil
}

// Capacity returns the rank capacity the placement can hold: per-rank
// placements hold exactly len(Nodes) ranks; block placements have no
// inherent bound (Config.MaxRanks caps them).
func (t *Topology) Capacity() (int, bool) {
	_, place, _, err := t.expand()
	if err != nil || place.Kind != PlacePerRank {
		return 0, false
	}
	return len(place.Nodes), true
}

// Metrics returns the analytic topology metrics of a parametric spec.
// Explicit topologies are single nodes with no fabric-scale metrics,
// so they report an error.
func (t *Topology) Metrics() (TopoMetrics, error) {
	switch {
	case t.Dragonfly != nil:
		return t.Dragonfly.Metrics()
	case t.FatTree != nil:
		return t.FatTree.Metrics()
	default:
		return TopoMetrics{}, fmt.Errorf("machine: explicit topologies carry no analytic metrics")
	}
}

// place realizes the placement for `ranks` ranks.
func (p *Placement) place(ranks int) ([]Place, error) {
	places := make([]Place, ranks)
	switch p.Kind {
	case PlaceBlock:
		per := (ranks + len(p.Nodes) - 1) / len(p.Nodes)
		for r := range places {
			i := r / per
			if i > len(p.Nodes)-1 {
				i = len(p.Nodes) - 1
			}
			places[r] = Place{Node: p.Nodes[i], Socket: i}
		}
	case PlacePerRank:
		if ranks > len(p.Nodes) {
			return nil, fmt.Errorf("machine: %d ranks exceed the %d per-rank placement slots", ranks, len(p.Nodes))
		}
		for r := range places {
			pl := Place{Node: p.Nodes[r], Socket: p.Sockets[r]}
			if len(p.Hosts) > 0 {
				pl.Host = p.Hosts[r]
			}
			places[r] = pl
		}
	default:
		return nil, fmt.Errorf("machine: unknown placement kind %q", p.Kind)
	}
	return places, nil
}

// fingerprinting -------------------------------------------------------------

// appendFingerprint extends the Config fingerprint with every semantic
// topology field, tag-prefixed and length-delimited like the rest of
// the encoding (machine.go). Two different parameterizations — even of
// the same generator — therefore always produce distinct pointcache
// keys; the reflection completeness test in pointcache walks these
// structs and fails if a new field is added without extending this.
func (t *Topology) appendFingerprint(b []byte) []byte {
	b = appendStr(b, "topo.routing", t.Routing)
	b = appendBool(b, "topo.explicit", t.Explicit != nil)
	if t.Explicit != nil {
		b = appendLinks(b, t.Explicit.Links)
		b = t.Explicit.Place.appendFingerprint(b)
		b = appendStrSlice(b, "topo.detours", t.Explicit.Detours)
	}
	b = appendBool(b, "topo.dragonfly", t.Dragonfly != nil)
	if t.Dragonfly != nil {
		b = t.Dragonfly.appendFingerprint(b)
	}
	b = appendBool(b, "topo.fattree", t.FatTree != nil)
	if t.FatTree != nil {
		b = t.FatTree.appendFingerprint(b)
	}
	return b
}

func appendLinks(b []byte, links []LinkSpec) []byte {
	b = appendInt(b, "links", int64(len(links)))
	for _, l := range links {
		b = appendStr(b, "l.a", l.A)
		b = appendStr(b, "l.b", l.B)
		b = appendFloat(b, "l.gbs", l.GBs)
		b = appendFloat(b, "l.latns", l.LatencyNs)
		b = appendInt(b, "l.ch", int64(l.Channels))
		b = appendStr(b, "l.class", l.Class)
	}
	return b
}

func (p *Placement) appendFingerprint(b []byte) []byte {
	b = appendStr(b, "place.kind", p.Kind)
	b = appendStrSlice(b, "place.nodes", p.Nodes)
	b = appendInt(b, "place.sockets", int64(len(p.Sockets)))
	for _, s := range p.Sockets {
		b = appendInt(b, "place.socket", int64(s))
	}
	b = appendStrSlice(b, "place.hosts", p.Hosts)
	return b
}

func appendStrSlice(b []byte, tag string, vs []string) []byte {
	b = appendInt(b, tag, int64(len(vs)))
	for _, v := range vs {
		b = appendStr(b, tag+".v", v)
	}
	return b
}

package netsim

import (
	"testing"
	"testing/quick"

	"msgroofline/internal/sim"
)

func TestLinkReserveFIFO(t *testing.T) {
	l := NewLink("l", 1e9, 100*sim.Nanosecond) // 1 GB/s, 100 ns
	// 1000 bytes at 1 GB/s = 1 us serialization.
	start, arrive := l.Reserve(0, 1000)
	if start != 0 {
		t.Fatalf("first message start = %v, want 0", start)
	}
	if arrive != sim.Microsecond+100*sim.Nanosecond {
		t.Fatalf("arrive = %v, want 1.1us", arrive)
	}
	// Second message injected at t=0 must queue behind the first.
	start2, arrive2 := l.Reserve(0, 1000)
	if start2 != sim.Microsecond {
		t.Fatalf("second start = %v, want 1us", start2)
	}
	if arrive2 != 2*sim.Microsecond+100*sim.Nanosecond {
		t.Fatalf("second arrive = %v, want 2.1us", arrive2)
	}
	s := l.Stats()
	if s.Messages != 2 || s.Bytes != 2000 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BusyTime != 2*sim.Microsecond {
		t.Fatalf("busy = %v, want 2us", s.BusyTime)
	}
}

func TestLinkIdleGap(t *testing.T) {
	l := NewLink("l", 1e9, 0)
	l.Reserve(0, 1000)
	// Arriving long after the link is free: no queueing.
	start, _ := l.Reserve(10*sim.Microsecond, 1000)
	if start != 10*sim.Microsecond {
		t.Fatalf("start = %v, want 10us", start)
	}
}

func TestNetworkRouting(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1e9, 10, 1)
	n.AddLink("b", "c", 1e9, 10, 1)
	n.AddLink("a", "c", 1e9, 50, 1) // direct but same hops? no: 1 hop, preferred
	if h := n.Hops("a", "c"); h != 1 {
		t.Fatalf("hops a-c = %d, want 1 (direct)", h)
	}
	if h := n.Hops("a", "b"); h != 1 {
		t.Fatalf("hops a-b = %d, want 1", h)
	}
	if h := n.Hops("a", "a"); h != 0 {
		t.Fatalf("hops a-a = %d, want 0", h)
	}
	n2 := New()
	n2.AddLink("a", "b", 1e9, 10, 1)
	n2.AddLink("b", "c", 2e9, 10, 1)
	if h := n2.Hops("a", "c"); h != 2 {
		t.Fatalf("hops = %d, want 2", h)
	}
	if bw := n2.PeakBandwidth("a", "c"); bw != 1e9 {
		t.Fatalf("bottleneck = %v, want 1e9", bw)
	}
	if lat := n2.BaseLatency("a", "c"); lat != 20 {
		t.Fatalf("latency = %v, want 20ps", lat)
	}
}

func TestNetworkDisconnected(t *testing.T) {
	n := New()
	n.AddNode("x")
	n.AddNode("y")
	if _, err := n.Transfer(0, "x", "y", 100, 0); err == nil {
		t.Fatal("expected no-route error")
	}
	if n.Hops("x", "y") != -1 {
		t.Fatal("expected -1 hops for disconnected pair")
	}
}

func TestTransferMultiHopStoreAndForward(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1e9, 100*sim.Nanosecond, 1)
	n.AddLink("b", "c", 1e9, 100*sim.Nanosecond, 1)
	// 1000 B: 1 us per hop serialization + 100 ns per hop latency.
	got, err := n.Transfer(0, "a", "c", 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 2*(sim.Microsecond+100*sim.Nanosecond) + 0*sim.Nanosecond
	if got != want {
		t.Fatalf("delivery = %v, want %v", got, want)
	}
}

func TestParallelChannelsAvoidContention(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1e9, 0, 4)
	// Four messages on distinct channels all start at t=0.
	for ch := 0; ch < 4; ch++ {
		got, err := n.Transfer(0, "a", "b", 1000, ch)
		if err != nil {
			t.Fatal(err)
		}
		if got != sim.Microsecond {
			t.Fatalf("channel %d delivery = %v, want 1us", ch, got)
		}
	}
	// A fifth message reuses channel 0 and queues.
	got, _ := n.Transfer(0, "a", "b", 1000, 4)
	if got != 2*sim.Microsecond {
		t.Fatalf("queued delivery = %v, want 2us", got)
	}
	if c := n.Channels("a", "b"); c != 4 {
		t.Fatalf("Channels = %d, want 4", c)
	}
	if bw := n.AggregateBandwidth("a", "b"); bw != 4e9 {
		t.Fatalf("aggregate = %v, want 4e9", bw)
	}
}

func TestSameChannelContention(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1e9, 0, 2)
	// Two messages on the same channel index serialize.
	first, _ := n.Transfer(0, "a", "b", 1000, 1)
	second, _ := n.Transfer(0, "a", "b", 1000, 1)
	if first != sim.Microsecond || second != 2*sim.Microsecond {
		t.Fatalf("got %v, %v; want 1us, 2us", first, second)
	}
	// Opposite directions never contend (full duplex).
	fwd, _ := n.Transfer(0, "a", "b", 1000, 0)
	rev, _ := n.Transfer(0, "b", "a", 1000, 0)
	if fwd != sim.Microsecond || rev != sim.Microsecond {
		t.Fatalf("duplex broken: fwd=%v rev=%v", fwd, rev)
	}
}

func TestNegativeChannelIndex(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1e9, 0, 3)
	if _, err := n.Transfer(0, "a", "b", 8, -2); err != nil {
		t.Fatalf("negative channel index should be tolerated: %v", err)
	}
}

func TestReset(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1e9, 0, 1)
	n.Transfer(0, "a", "b", 1000, 0)
	if len(n.Stats()) == 0 {
		t.Fatal("expected stats before reset")
	}
	n.Reset()
	if len(n.Stats()) != 0 {
		t.Fatal("expected no stats after reset")
	}
	got, _ := n.Transfer(0, "a", "b", 1000, 0)
	if got != sim.Microsecond {
		t.Fatalf("post-reset delivery = %v, want 1us", got)
	}
}

// Property: delivery time is nondecreasing in message size and never
// earlier than injection + base latency + serialization at bottleneck.
func TestTransferLowerBoundProperty(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 25e9, 500*sim.Nanosecond, 1)
	n.AddLink("b", "c", 32e9, 200*sim.Nanosecond, 1)
	f := func(sz uint16, at uint16) bool {
		n.Reset()
		bytes := int64(sz) + 1
		t0 := sim.Time(at) * sim.Nanosecond
		got, err := n.Transfer(t0, "a", "c", bytes, 0)
		if err != nil {
			return false
		}
		lb := t0 + n.BaseLatency("a", "c") + sim.TransferTime(bytes, n.PeakBandwidth("a", "c"))
		return got >= lb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinkStatsUtilization(t *testing.T) {
	s := LinkStats{BusyTime: sim.Microsecond}
	if u := s.Utilization(2 * sim.Microsecond); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if u := s.Utilization(0); u != 0 {
		t.Fatalf("utilization horizon 0 = %v, want 0", u)
	}
}

func TestPanicOnBadLink(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero bandwidth")
		}
	}()
	NewLink("bad", 0, 0)
}

func TestCutThroughVsStoreAndForward(t *testing.T) {
	// DESIGN.md ablation #1: on a multi-hop path, store-and-forward
	// pays serialization per hop while cut-through pays it once.
	build := func() *Network {
		n := New()
		n.AddLink("a", "b", 1e9, 100*sim.Nanosecond, 1)
		n.AddLink("b", "c", 1e9, 100*sim.Nanosecond, 1)
		n.AddLink("c", "d", 1e9, 100*sim.Nanosecond, 1)
		return n
	}
	const bytes = 100000 // 100 us serialization per hop at 1 GB/s
	sf, err := build().Transfer(0, "a", "d", bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := build().TransferCutThrough(0, "a", "d", bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	ser := sim.TransferTime(bytes, 1e9)
	lat := 300 * sim.Nanosecond
	if sf != 3*ser+lat {
		t.Fatalf("store-and-forward = %v, want 3 ser + lat = %v", sf, 3*ser+lat)
	}
	if ct != ser+lat {
		t.Fatalf("cut-through = %v, want 1 ser + lat = %v", ct, ser+lat)
	}
	// Single hop: the two models agree exactly.
	n1 := New()
	n1.AddLink("x", "y", 1e9, 100*sim.Nanosecond, 1)
	a, _ := n1.Transfer(0, "x", "y", bytes, 0)
	n2 := New()
	n2.AddLink("x", "y", 1e9, 100*sim.Nanosecond, 1)
	b, _ := n2.TransferCutThrough(0, "x", "y", bytes, 0)
	if a != b {
		t.Fatalf("single hop: s&f %v != cut-through %v", a, b)
	}
}

func TestCutThroughPreservesContention(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1e9, 0, 1)
	first, _ := n.TransferCutThrough(0, "a", "b", 1000, 0)
	second, _ := n.TransferCutThrough(0, "a", "b", 1000, 0)
	if second <= first {
		t.Fatalf("cut-through must still queue: %v then %v", first, second)
	}
}

func TestLookaheadBound(t *testing.T) {
	n := New()
	if got := n.LookaheadBound(); got != 0 {
		t.Fatalf("linkless fabric lookahead = %v, want 0", got)
	}
	n.AddLink("a", "b", 1e9, 500*sim.Nanosecond, 2)
	n.AddLink("b", "c", 1e9, 100*sim.Nanosecond, 1)
	n.AddLink("c", "d", 1e9, 900*sim.Nanosecond, 1)
	if got := n.LookaheadBound(); got != 100*sim.Nanosecond {
		t.Fatalf("lookahead = %v, want 100ns", got)
	}
	// Unknown nodes are an error, not a panic: generated topologies
	// feed arbitrary names here.
	if _, err := n.PathTo("nope", "a"); err == nil {
		t.Fatal("PathTo from unknown node should error")
	}
	if _, err := n.RouteTo("a", "nope"); err == nil {
		t.Fatal("RouteTo to unknown node should error")
	}
}

package netsim

import (
	"testing"

	"msgroofline/internal/sim"
)

// TestAddLinkMidRunInvalidatesPaths mutates the topology after routes
// have been resolved and traffic sent: the path cache must be dropped,
// so new lookups see the shorter route.
func TestAddLinkMidRunInvalidatesPaths(t *testing.T) {
	n := New()
	n.AddLink("a", "c", 1e9, 100*sim.Nanosecond, 1)
	n.AddLink("c", "b", 1e9, 100*sim.Nanosecond, 1)

	old, err := n.PathTo("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if old.Hops() != 2 {
		t.Fatalf("a->b hops = %d, want 2 via c", old.Hops())
	}
	if again, _ := n.PathTo("a", "b"); again != old {
		t.Fatal("repeat lookup did not hit the cache")
	}
	// First send over the cached route.
	slow := old.Transfer(0, 4096, 0)

	// Topology grows mid-run: a direct a-b cable appears.
	n.AddLink("a", "b", 1e9, 100*sim.Nanosecond, 1)
	fresh, err := n.PathTo("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if fresh == old {
		t.Fatal("AddLink did not invalidate the path cache")
	}
	if fresh.Hops() != 1 {
		t.Fatalf("a->b hops after AddLink = %d, want 1", fresh.Hops())
	}
	if fresh.BaseLatency() >= old.BaseLatency() {
		t.Fatalf("direct route latency %v not below relayed %v",
			fresh.BaseLatency(), old.BaseLatency())
	}
	// The new route's links start idle: a same-size transfer cannot be
	// slower than the relayed one was, and the old handle keeps
	// working (it still owns its old links).
	if fast := fresh.Transfer(0, 4096, 0); fast > slow {
		t.Fatalf("direct transfer finished at %v, relayed at %v", fast, slow)
	}
	_ = old.Transfer(0, 64, 0)
}

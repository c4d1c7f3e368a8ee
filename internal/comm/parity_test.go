// Cross-transport parity: each workload kernel exists exactly once,
// so its semantic outcome must agree across all four transports. The
// transports run on different simulated hardware and legally differ
// in timing; what must match is the numerics.
package comm_test

import (
	"math"
	"testing"

	"msgroofline/internal/comm"
	"msgroofline/internal/hashtable"
	"msgroofline/internal/sim"
	"msgroofline/internal/spmat"
	"msgroofline/internal/sptrsv"
	"msgroofline/internal/stencil"
)

func TestStencilParityAcrossTransports(t *testing.T) {
	// Verified mode is pure dataflow over one fixed decomposition, so
	// the checksum must be bit-identical across transports (the serial
	// reference sums in a different order and only matches to
	// tolerance).
	serial := stencil.SerialReference(48, 5)
	first := math.NaN()
	for _, kind := range comm.Kinds() {
		res, err := stencil.Run(stencil.Config{
			Machine: machineFor(t, kind), Transport: kind,
			Grid: 48, Iters: 5, PX: 2, PY: 2, Verify: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if math.Abs(res.Checksum-serial) > 1e-9 {
			t.Fatalf("%s checksum %v far from serial %v", kind, res.Checksum, serial)
		}
		if math.IsNaN(first) {
			first = res.Checksum
		} else if res.Checksum != first {
			t.Fatalf("%s checksum %v, other transports %v (must be bit-identical)", kind, res.Checksum, first)
		}
	}
}

func TestSptrsvParityAcrossTransports(t *testing.T) {
	m, err := spmat.Generate(spmat.Params{N: 240, MeanSnode: 8, Fill: 1.2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.SolveSerial(sptrsv.Rhs(m.N))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range comm.Kinds() {
		res, err := sptrsv.Run(sptrsv.Config{
			Machine: machineFor(t, kind), Transport: kind,
			Matrix: m, Ranks: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i := range want {
			rel := math.Abs(res.X[i]-want[i]) / math.Max(math.Abs(want[i]), 1)
			if rel > 1e-9 {
				t.Fatalf("%s: x[%d] = %v, serial %v", kind, i, res.X[i], want[i])
			}
		}
	}
}

func TestHashtableParityAcrossTransports(t *testing.T) {
	// Collision counts are order-invariant (k claimants of one home
	// slot always produce k-1 overflows), so every transport must
	// agree exactly; shard contents are verified inside Run.
	var want int64 = -1
	for _, kind := range comm.Kinds() {
		res, err := hashtable.Run(hashtable.Config{
			Machine: machineFor(t, kind), Transport: kind,
			Ranks: 4, TotalInserts: 400, Blocks: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if want < 0 {
			want = res.Collisions
			continue
		}
		if res.Collisions != want {
			t.Fatalf("%s collisions = %d, others = %d", kind, res.Collisions, want)
		}
	}
}

// pinnedRun is one workload's timing fingerprint: the event-order
// digest, the simulated elapsed time and the remote atomic count.
type pinnedRun struct {
	digest  uint64
	elapsed sim.Time
	atomics int64
}

// transportPins fixes the timing of every transport in all three
// workload modes — exchange (stencil), streamed delivery (sptrsv) and
// shared atomics (hashtable) — at the values the transports produced
// when they were pinned. Each entry holds for shards 1 and 4.
var transportPins = map[string]pinnedRun{
	"two-sided/stencil":          {0x7c6904c8eac545bb, 48676800, 0},
	"two-sided/sptrsv":           {0xfb40b0011d57232e, 51579004, 0},
	"two-sided/hashtable":        {0x829504a5252b7769, 3500400450, 0},
	"one-sided/stencil":          {0x303f7bbbfd6d3b79, 80057159, 0},
	"one-sided/sptrsv":           {0xdfac55f9686e6701, 426566460, 0},
	"one-sided/hashtable":        {0x585be027f56baf06, 4274340000, 5680},
	"notified/stencil":           {0xf05a602fb2a1825b, 43637400, 0},
	"notified/sptrsv":            {0x1cc805b9a873a719, 41491550, 0},
	"notified/hashtable":         {0xf225c57451223cc5, 4233340000, 5680},
	"shmem/stencil":              {0xcb6715580d4da073, 72646080, 0},
	"shmem/sptrsv":               {0x188e1bd747800149, 66827965, 0},
	"shmem/hashtable":            {0xa7275b9910d805ae, 642980000, 5680},
	"stream-triggered/stencil":   {0x20a379d1a475c0e3, 86566080, 0},
	"stream-triggered/sptrsv":    {0x72db5954bbc1895c, 169676300, 0},
	"stream-triggered/hashtable": {0x89646e91dc93e7ea, 1784100000, 5680},
	"memchannel/stencil":         {0xec4d910e034db951, 66017000, 0},
	"memchannel/sptrsv":          {0xf02a3bb134e6aca8, 73294400, 0},
	"memchannel/hashtable":       {0xcb0da88187de5585, 4280520000, 5680},
}

func runPinned(t *testing.T, kind comm.Kind, workload string, shards int) pinnedRun {
	t.Helper()
	mach := machineFor(t, kind)
	switch workload {
	case "stencil":
		res, err := stencil.Run(stencil.Config{
			Machine: mach, Transport: kind, Shards: shards,
			Grid: 96, Iters: 6, PX: 2, PY: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pinnedRun{res.EventDigest, res.Elapsed, 0}
	case "sptrsv":
		m, err := spmat.Generate(spmat.Params{N: 480, MeanSnode: 8, Fill: 1.2, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sptrsv.Run(sptrsv.Config{
			Machine: mach, Transport: kind, Shards: shards,
			Matrix: m, Ranks: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pinnedRun{res.EventDigest, res.Elapsed, 0}
	}
	res, err := hashtable.Run(hashtable.Config{
		Machine: mach, Transport: kind, Shards: shards,
		Ranks: 4, TotalInserts: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pinnedRun{res.EventDigest, res.Elapsed, res.Atomics}
}

// TestTransportTimingPinned pins EventDigest, Elapsed and the atomic
// count of every transport x workload at shards 1 and 4. The golden
// quick suite reaches the offloaded stacks only through stream-mode
// sweeps, so this is the fixed-value guard for their exchange and
// shared-atomics timing.
func TestTransportTimingPinned(t *testing.T) {
	for _, kind := range comm.Kinds() {
		for _, workload := range []string{"stencil", "sptrsv", "hashtable"} {
			key := kind.String() + "/" + workload
			want, ok := transportPins[key]
			if !ok {
				t.Fatalf("no pinned timing for %s", key)
			}
			for _, shards := range []int{1, 4} {
				got := runPinned(t, kind, workload, shards)
				if got != want {
					t.Errorf("%s shards=%d: got {digest %#x, elapsed %v, atomics %d}, want {%#x, %v, %d}",
						key, shards, got.digest, got.elapsed, got.atomics, want.digest, want.elapsed, want.atomics)
				}
			}
		}
	}
}

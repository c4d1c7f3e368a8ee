package comm_test

import (
	goruntime "runtime"
	"testing"

	"msgroofline/internal/comm"
	"msgroofline/internal/runtime"
)

// TestConstructionStateGrowsWithPeers holds per-rank construction
// state to peer count, not world size: the bytes a one-sided exchange
// transport allocates beyond its bare world, per rank, must stay flat
// from 1024 to 4096 ranks on the same dragonfly (every rank talks to
// four halo neighbours either way). Dense per-pair arrays — a length-n
// sequence table per rank, an n x n in-flight matrix per window —
// would make the 4096-rank figure about four times the 1024-rank one.
func TestConstructionStateGrowsWithPeers(t *testing.T) {
	cfg := mc(t, "dragonfly-10k")
	perRank := func(ranks int) float64 {
		world := allocated(t, func() error {
			_, err := runtime.NewWorldSharded(cfg, ranks, 1)
			return err
		})
		transport := allocated(t, func() error {
			tr, err := comm.New(comm.Spec{Machine: cfg, Kind: comm.OneSided, Ranks: ranks,
				ExchangeSlots: 4, SlotBytes: 512, NoTrace: true})
			if err == nil {
				tr.Close()
			}
			return err
		})
		return float64(int64(transport)-int64(world)) / float64(ranks)
	}
	small, large := perRank(1024), perRank(4096)
	t.Logf("comm.New beyond its world: %.0f B/rank at 1024 ranks, %.0f B/rank at 4096", small, large)
	if small <= 0 || large/small > 1.5 || small/large > 1.5 {
		t.Fatalf("per-rank construction state %.0f B at 1024 ranks vs %.0f B at 4096: want within 1.5x", small, large)
	}
}

// allocated returns the bytes f allocates (after one warm-up call, so
// lazily built shared state such as the machine's fabric is excluded).
func allocated(t *testing.T, f func() error) uint64 {
	t.Helper()
	if err := f(); err != nil {
		t.Fatal(err)
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	if err := f(); err != nil {
		t.Fatal(err)
	}
	goruntime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

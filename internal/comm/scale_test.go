package comm_test

import (
	goruntime "runtime"
	"testing"

	"msgroofline/internal/comm"
	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
)

// TestConstructionStateGrowsWithPeers holds per-rank state to peer
// count, not world size, on the same dragonfly from 1024 to 4096 ranks
// (every rank talks to four halo neighbours either way). Per rank:
//   - the bytes a one-sided exchange transport allocates beyond its
//     bare world must stay within 1.5x;
//   - the bytes one Launch of a single halo Exchange epoch allocates
//     beyond building its transport and resolving its routes must not
//     grow by more than 1.5x. It may fall: the wire-plan table keeps
//     one row per sending place, sized by the machine's place count
//     (1024 nodes here), and the ranks of a place share it — one rank
//     per place at 1024 ranks, four at 4096.
//
// Dense per-pair state — a length-n sequence table or wire-plan array
// per rank, an n x n in-flight matrix per window — would make the
// 4096-rank figure about four times the 1024-rank one.
func TestConstructionStateGrowsWithPeers(t *testing.T) {
	cfg := mc(t, "dragonfly-10k")
	minimal := *cfg
	minimal.Topology.Routing = machine.RoutingMinimal
	const slotBytes = 512
	payload := make([]byte, slotBytes)
	perRank := func(side int) (built, epoch float64) {
		ranks := side * side
		spec := func(m *machine.Config, kind comm.Kind) comm.Spec {
			return comm.Spec{Machine: m, Kind: kind, Ranks: ranks,
				ExchangeSlots: 4, SlotBytes: slotBytes, NoTrace: true}
		}
		transport := func(m *machine.Config, kind comm.Kind) uint64 {
			return allocated(t, func() error {
				tr, err := comm.New(spec(m, kind))
				if err == nil {
					tr.Close()
				}
				return err
			})
		}
		world := allocated(t, func() error {
			_, err := runtime.NewWorldSharded(cfg, ranks, 1)
			return err
		})
		built = float64(int64(transport(cfg, comm.OneSided))-int64(world)) / float64(ranks)

		// The epoch runs on notified access, whose Exchange has no fence
		// barrier, so the four torus neighbours are a rank's only peers.
		// A message sent toward direction d lands in the receiver's
		// slot d. Minimal routing keeps route resolution (left out
		// below) cheap; the routing policy sizes no per-rank state.
		neighbours := func(r int) [4]int {
			x, y := r%side, r/side
			at := func(dx, dy int) int { return (y+dy+side)%side*side + (x+dx+side)%side }
			return [4]int{at(1, 0), at(-1, 0), at(0, 1), at(0, -1)}
		}
		launched := allocated(t, func() error {
			tr, err := comm.New(spec(&minimal, comm.Notified))
			if err != nil {
				return err
			}
			defer tr.Close()
			return tr.Launch(func(ep comm.Endpoint) {
				nbr := neighbours(ep.Rank())
				from := [4]int{nbr[1], nbr[0], nbr[3], nbr[2]}
				var sends []comm.Msg
				var recvs []comm.Expect
				for d := range nbr {
					sends = append(sends, comm.Msg{Peer: nbr[d], Slot: d, Data: payload})
					recvs = append(recvs, comm.Expect{Peer: from[d], Slot: d, Bytes: slotBytes})
				}
				ep.Exchange(0, sends, recvs)
			})
		})
		// A resolved route is fabric state keyed by node pair (the
		// netsim cache), not per-rank state: at one rank per node (1024
		// ranks) every neighbour needs a route of its own, at four
		// (4096) most share one. The epoch's routes are resolved on a
		// bare instance and left out of the epoch figure.
		bare := allocated(t, func() error {
			_, err := minimal.Instantiate(ranks)
			return err
		})
		routed := allocated(t, func() error {
			inst, err := minimal.Instantiate(ranks)
			if err != nil {
				return err
			}
			for r := 0; r < ranks; r++ {
				for _, p := range neighbours(r) {
					if a, b := inst.Places[r].Node, inst.Places[p].Node; a != b {
						if _, err := inst.Net.RouteTo(a, b); err != nil {
							return err
						}
					}
				}
			}
			return nil
		})
		routes := int64(routed) - int64(bare)
		epoch = float64(int64(launched)-int64(transport(&minimal, comm.Notified))-routes) / float64(ranks)
		return built, epoch
	}
	smallBuilt, smallEpoch := perRank(32)
	largeBuilt, largeEpoch := perRank(64)
	t.Logf("comm.New beyond its world: %.0f B/rank at 1024 ranks, %.0f B/rank at 4096", smallBuilt, largeBuilt)
	t.Logf("one halo epoch beyond comm.New and its routes: %.0f B/rank at 1024 ranks, %.0f B/rank at 4096", smallEpoch, largeEpoch)
	if smallBuilt <= 0 || largeBuilt/smallBuilt > 1.5 || smallBuilt/largeBuilt > 1.5 {
		t.Errorf("per-rank construction state %.0f B at 1024 ranks vs %.0f B at 4096: want within 1.5x", smallBuilt, largeBuilt)
	}
	if smallEpoch <= 0 || largeEpoch/smallEpoch > 1.5 {
		t.Errorf("per-rank halo-epoch state %.0f B at 1024 ranks vs %.0f B at 4096: want growth within 1.5x", smallEpoch, largeEpoch)
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

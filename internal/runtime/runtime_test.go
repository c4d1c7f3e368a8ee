package runtime

import (
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

func newWorld(t *testing.T, name string, ranks int) *World {
	t.Helper()
	cfg, err := machine.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(cfg, ranks)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorldConstruction(t *testing.T) {
	w := newWorld(t, "perlmutter-cpu", 8)
	if w.Size() != 8 {
		t.Fatalf("Size = %d", w.Size())
	}
	if w.Endpoint(3).Rank() != 3 {
		t.Fatal("endpoint rank mismatch")
	}
	if w.Endpoint(0).Channels() != 1 {
		t.Fatal("CPU endpoints should have 1 injection channel")
	}
	g := newWorld(t, "perlmutter-gpu", 4)
	if g.Endpoint(0).Channels() != 4 {
		t.Fatal("Perlmutter GPU endpoints should have 4 channels")
	}
}

func TestNewWorldRejectsOversubscription(t *testing.T) {
	cfg, _ := machine.Get("perlmutter-gpu")
	if _, err := NewWorld(cfg, 5); err == nil {
		t.Fatal("5 PEs on a 4-GPU machine should fail")
	}
}

func TestInjectDeliveryTiming(t *testing.T) {
	w := newWorld(t, "perlmutter-cpu", 128)
	tp, _ := w.Inst.Cfg.Params(machine.TwoSided)
	var delivered sim.Time
	w.Spawn(0, "sender", func(p *sim.Proc) {
		// Cross-socket: rank 0 (socket 0) to rank 127 (socket 1).
		w.Endpoint(0).Inject(tp, 127, 8, 0, func(at sim.Time) { delivered = at }, nil)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// Expected: soft latency (2.7us) + IF wire (150ns) + tiny ser.
	lo := tp.SoftLatency + sim.FromNanoseconds(150)
	hi := lo + sim.FromNanoseconds(10)
	if delivered < lo || delivered > hi {
		t.Fatalf("delivered at %v, want in [%v, %v]", delivered, lo, hi)
	}
}

func TestInjectGapPacing(t *testing.T) {
	w := newWorld(t, "perlmutter-cpu", 128)
	tp, _ := w.Inst.Cfg.Params(machine.TwoSided)
	var deliveries []sim.Time
	w.Spawn(0, "sender", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			w.Endpoint(0).Inject(tp, 127, 8, 0, func(at sim.Time) {
				deliveries = append(deliveries, at)
			}, nil)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(deliveries) != 3 {
		t.Fatalf("got %d deliveries", len(deliveries))
	}
	// Back-to-back injections are paced by the gap (50 ns).
	d01 := deliveries[1] - deliveries[0]
	if d01 < tp.Gap {
		t.Fatalf("spacing %v below gap %v", d01, tp.Gap)
	}
}

func TestSameNodeUsesMemoryPath(t *testing.T) {
	w := newWorld(t, "perlmutter-cpu", 4) // ranks 0,1 socket 0
	tp, _ := w.Inst.Cfg.Params(machine.TwoSided)
	var delivered sim.Time
	w.Spawn(0, "sender", func(p *sim.Proc) {
		w.Endpoint(0).Inject(tp, 1, 1000, 0, func(at sim.Time) { delivered = at }, nil)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	want := tp.SoftLatency + w.Inst.Cfg.MemLatency + sim.TransferTime(1000, w.Inst.Cfg.MemBandwidth)
	if delivered != want {
		t.Fatalf("delivered = %v, want %v", delivered, want)
	}
}

func TestAutoChannelRoundRobin(t *testing.T) {
	w := newWorld(t, "perlmutter-gpu", 4)
	ep := w.Endpoint(0)
	seen := map[int]int{}
	for i := 0; i < 8; i++ {
		seen[ep.AutoChannel()]++
	}
	for c := 0; c < 4; c++ {
		if seen[c] != 2 {
			t.Fatalf("channel %d used %d times, want 2 (round robin)", c, seen[c])
		}
	}
}

func TestParallelChannelsBeatSingleChannel(t *testing.T) {
	// The Fig 10 mechanism at runtime level: 4 messages of B/4 on
	// distinct channels finish sooner than one message of B.
	sizes := int64(1 << 20)
	single := transferDuration(t, false, sizes)
	split := transferDuration(t, true, sizes)
	if split >= single {
		t.Fatalf("split %v should beat single %v", split, single)
	}
	speedup := float64(single) / float64(split)
	if speedup < 2.5 || speedup > 4.2 {
		t.Fatalf("split speedup = %.2f, want ~3-4x for 1 MiB", speedup)
	}
}

func transferDuration(t *testing.T, split bool, bytes int64) sim.Time {
	t.Helper()
	w := newWorld(t, "perlmutter-gpu", 2)
	tp, _ := w.Inst.Cfg.Params(machine.GPUShmem)
	var last sim.Time
	w.Spawn(0, "sender", func(p *sim.Proc) {
		record := func(at sim.Time) {
			if at > last {
				last = at
			}
		}
		if split {
			for c := 0; c < 4; c++ {
				w.Endpoint(0).Inject(tp, 1, bytes/4, c, record, nil)
			}
		} else {
			w.Endpoint(0).Inject(tp, 1, bytes, 0, record, nil)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return last
}

func TestRemoteAtomicCalibration(t *testing.T) {
	// Summit GPU CAS: ~0.95us in-island, ~1.65us cross-island (paper:
	// 1us / 1.6us §III-C). Perlmutter GPU: ~0.8us.
	cases := []struct {
		machine  string
		ranks    int
		dst      int
		tr       machine.Transport
		loUS, hi float64
	}{
		{"summit-gpu", 6, 1, machine.GPUShmem, 0.85, 1.15},
		{"summit-gpu", 6, 3, machine.GPUShmem, 1.45, 1.85},
		{"perlmutter-gpu", 4, 1, machine.GPUShmem, 0.7, 0.95},
		{"perlmutter-cpu", 128, 127, machine.OneSided, 1.7, 2.3},
	}
	for _, c := range cases {
		w := newWorld(t, c.machine, c.ranks)
		tp, ok := w.Inst.Cfg.Params(c.tr)
		if !ok {
			t.Fatalf("%s lacks %v", c.machine, c.tr)
		}
		var elapsed sim.Time
		var got uint64
		w.Spawn(0, "cas", func(p *sim.Proc) {
			start := p.Now()
			got = w.Endpoint(0).RemoteAtomic(p, tp, c.dst, func() uint64 { return 42 })
			elapsed = p.Now() - start
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if got != 42 {
			t.Fatalf("%s: atomic result = %d", c.machine, got)
		}
		us := elapsed.Microseconds()
		if us < c.loUS || us > c.hi {
			t.Errorf("%s CAS to rank %d = %.2fus, want [%.2f, %.2f]",
				c.machine, c.dst, us, c.loUS, c.hi)
		}
	}
}

func TestRemoteAtomicSerialization(t *testing.T) {
	// Two concurrent atomics against the same target serialize at the
	// target's memory controller.
	w := newWorld(t, "perlmutter-gpu", 3)
	tp, _ := w.Inst.Cfg.Params(machine.GPUShmem)
	counter := uint64(0)
	var ends []sim.Time
	for r := 0; r < 2; r++ {
		rank := r
		w.Spawn(rank, "cas", func(p *sim.Proc) {
			w.Endpoint(rank).RemoteAtomic(p, tp, 2, func() uint64 {
				counter++
				return counter
			})
			ends = append(ends, p.Now())
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if counter != 2 {
		t.Fatalf("counter = %d", counter)
	}
	gap := ends[1] - ends[0]
	if gap < 0 {
		gap = -gap
	}
	if gap < tp.AtomicTime/2 {
		t.Fatalf("atomics did not serialize: completion gap %v", gap)
	}
}

func TestInjectPanicsOnBadDst(t *testing.T) {
	w := newWorld(t, "perlmutter-cpu", 2)
	tp, _ := w.Inst.Cfg.Params(machine.TwoSided)
	w.Spawn(0, "bad", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for invalid destination")
			}
		}()
		w.Endpoint(0).Inject(tp, 7, 8, 0, func(sim.Time) {}, nil)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicWorld(t *testing.T) {
	run := func() sim.Time {
		w := newWorld(t, "summit-gpu", 6)
		tp, _ := w.Inst.Cfg.Params(machine.GPUShmem)
		var last sim.Time
		for r := 0; r < 6; r++ {
			rank := r
			w.Spawn(rank, "p", func(p *sim.Proc) {
				for i := 0; i < 10; i++ {
					dst := (rank + 1 + i) % 6
					w.Endpoint(rank).Inject(tp, dst, int64(64*(i+1)), i, func(at sim.Time) {
						if at > last {
							last = at
						}
					}, nil)
					p.Sleep(100 * sim.Nanosecond)
				}
			})
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	w := newWorld(t, "perlmutter-cpu", 2)
	var after sim.Time
	w.Spawn(0, "c", func(p *sim.Proc) {
		w.Endpoint(0).Compute(p, 7*sim.Microsecond)
		after = p.Now()
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if after != 7*sim.Microsecond {
		t.Fatalf("compute advanced to %v, want 7us", after)
	}
}

func TestWireLatency(t *testing.T) {
	w := newWorld(t, "perlmutter-cpu", 128)
	// Same socket: memory latency.
	if got := w.Endpoint(0).WireLatency(1); got != w.Inst.Cfg.MemLatency {
		t.Fatalf("same-node wire = %v", got)
	}
	// Cross socket: fabric base latency (IF hop, 150 ns).
	if got := w.Endpoint(0).WireLatency(127); got != sim.FromNanoseconds(150) {
		t.Fatalf("cross-socket wire = %v, want 150ns", got)
	}
}

func TestHostStagedWireJourney(t *testing.T) {
	// Host-staged messages pay the PCIe legs: device -> host -> device.
	w := newWorld(t, "perlmutter-gpu", 2)
	tp, ok := w.Inst.Cfg.Params(machine.TwoSided)
	if !ok {
		t.Fatal("no host MPI on perlmutter-gpu")
	}
	var staged sim.Time
	w.Spawn(0, "s", func(p *sim.Proc) {
		w.Endpoint(0).Inject(tp, 1, 1<<20, 0, func(at sim.Time) { staged = at }, nil)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// Direct NVSHMEM journey of the same megabyte for comparison.
	w2 := newWorld(t, "perlmutter-gpu", 2)
	sp, _ := w2.Inst.Cfg.Params(machine.GPUShmem)
	var direct sim.Time
	w2.Spawn(0, "s", func(p *sim.Proc) {
		w2.Endpoint(0).Inject(sp, 1, 1<<20, 0, func(at sim.Time) { direct = at }, nil)
	})
	if err := w2.Run(); err != nil {
		t.Fatal(err)
	}
	if staged <= direct {
		t.Fatalf("host-staged 1 MiB (%v) should be slower than direct (%v): two PCIe serializations", staged, direct)
	}
	// Lower bound: two PCIe legs of 1 MiB at 25 GB/s each.
	lb := 2 * sim.TransferTime(1<<20, 25e9)
	if staged < lb {
		t.Fatalf("staged %v below two-PCIe-legs bound %v", staged, lb)
	}
}

func TestCrossSocketExtraCharged(t *testing.T) {
	// Summit GPU cross-island puts pay the host-proxy penalty.
	w := newWorld(t, "summit-gpu", 6)
	tp, _ := w.Inst.Cfg.Params(machine.GPUShmem)
	deliver := func(dst int) sim.Time {
		ww := newWorld(t, "summit-gpu", 6)
		var at sim.Time
		ww.Spawn(0, "s", func(p *sim.Proc) {
			ww.Endpoint(0).Inject(tp, dst, 8, 0, func(a sim.Time) { at = a }, nil)
		})
		if err := ww.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	in := deliver(1)    // in-island
	cross := deliver(3) // cross-island
	if cross-in < tp.CrossSocketExtra {
		t.Fatalf("cross-island delivery %v vs in-island %v: proxy penalty %v not charged",
			cross, in, tp.CrossSocketExtra)
	}
	_ = w
}

func TestUsageCountsDispatches(t *testing.T) {
	w := newWorld(t, "summit-gpu", 6)
	if w.Groups() < 2 {
		t.Fatalf("summit-gpu with 6 PEs has %d node group(s), want a grouped world", w.Groups())
	}
	tp, _ := w.Inst.Cfg.Params(machine.GPUShmem)
	for r := 0; r < 6; r++ {
		rank := r
		w.Spawn(rank, "p", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				w.Endpoint(rank).Inject(tp, (rank+1+i)%6, 64, i, func(sim.Time) {}, nil)
				p.Sleep(100 * sim.Nanosecond)
			}
		})
	}
	before := Usage()
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	after := Usage()
	windows := after.Windows - before.Windows
	dispatches := after.Dispatches - before.Dispatches
	if dispatches == 0 || dispatches > windows*uint64(w.Groups()) {
		t.Fatalf("usage delta: %d dispatches over %d windows x %d groups, want 0 < dispatches <= windows x groups",
			dispatches, windows, w.Groups())
	}
}
